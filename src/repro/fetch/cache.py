"""TTL'd on-disk content cache layered over any fetcher.

The paper ran every experiment "on the local version of the pages so as not
to overload web sites" (Section 6.3); :class:`CachingFetcher` is that idea
as a composable layer: the first fetch of a URL goes to the inner fetcher
and is written to disk, later fetches inside the TTL are served locally
(``FetchResult.from_cache=True``) without touching the origin.

The layout reuses the :class:`~repro.corpus.fetcher.PageCache` convention
-- one sanitized directory per site, one file pair per document::

    <root>/<site_dir>/fetch_<urldigest>.html     (the body)
    <root>/<site_dir>/fetch_<urldigest>.json     (url, age, integrity facts)

so a cache directory is browsable alongside generated corpora and the
batch engine's ``site_from_dir`` convention keys rule reuse off it.

Freshness is measured on the injected clock's wall-clock seam
(``Clock.time``), because entries outlive the writing process and must be
comparable across runs.  Entries whose recorded time lies in the future
(clock skew, a copied cache directory) are treated as stale and refetched
-- the safe direction.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

from repro.core.stages.instrumentation import Instrumentation
from repro.corpus.fetcher import _site_dir_name
from repro.fetch.base import Clock, FetchResult, Fetcher, SystemClock, site_key

__all__ = ["CachingFetcher"]


def _url_stem(url: str) -> str:
    return "fetch_" + hashlib.sha256(url.encode("utf-8")).hexdigest()[:16]


class CachingFetcher:
    """Serve repeat fetches from disk while they are fresh.

    Parameters
    ----------
    inner:
        The fetcher misses fall through to.
    root:
        Cache directory (created on first write).
    ttl:
        Seconds an entry stays fresh; ``None`` never expires.
    clock / observer:
        Test seams; the observer receives ``on_cache_hit``/``on_cache_miss``.
    """

    def __init__(
        self,
        inner: Fetcher,
        root: str | Path,
        *,
        ttl: float | None = 3600.0,
        clock: Clock | None = None,
        observer: Instrumentation | None = None,
    ) -> None:
        self.inner = inner
        self.root = Path(root)
        self.ttl = ttl
        self.clock = clock or SystemClock()
        self.observer = observer or Instrumentation()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def fetch(self, url: str, *, site: str | None = None) -> FetchResult:
        start = self.clock.monotonic()
        html_path, meta_path = self._paths(url, site)
        cached = self._load_fresh(url, site, html_path, meta_path)
        if cached is not None:
            # A hit is a complete fetch this layer served: stamp its real
            # disk-read latency (it used to come back as the dataclass
            # default 0.0, which made cache latency invisible to metrics)
            # and zero transport attempts, then report it through the same
            # fetch hooks the origin path fires so observers see every
            # fetch exactly once, hit or miss.
            cached.elapsed = self.clock.monotonic() - start
            cached.attempts = 0
            with self._lock:
                self.hits += 1
            self.observer.on_cache_hit(url)
            self.observer.on_fetch_start(url)
            self.observer.on_fetch_end(url, cached)
            return cached
        with self._lock:
            self.misses += 1
        self.observer.on_cache_miss(url)
        result = self.inner.fetch(url, site=site)
        self._store(result, html_path, meta_path)
        return result

    # -- internals -----------------------------------------------------------

    def _paths(self, url: str, site: str | None) -> tuple[Path, Path]:
        site_dir = self.root / _site_dir_name(site_key(url, site))
        stem = _url_stem(url)
        return site_dir / f"{stem}.html", site_dir / f"{stem}.json"

    def _load_fresh(
        self, url: str, site: str | None, html_path: Path, meta_path: Path
    ) -> FetchResult | None:
        if not (html_path.exists() and meta_path.exists()):
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            # newline="" disables universal-newline translation: a CRLF body
            # must reload byte-identical or verify() rejects every cache hit.
            with html_path.open("r", encoding="utf-8", newline="") as handle:
                body = handle.read()
        except (OSError, json.JSONDecodeError):
            return None
        if meta.get("url") != url:
            return None  # digest collision; let the origin answer
        age = self.clock.time() - float(meta.get("fetched_at", 0.0))
        if self.ttl is not None and not 0.0 <= age <= self.ttl:
            return None
        return FetchResult(
            url=url,
            body=body,
            status=int(meta.get("status", 200)),
            site=site,
            from_cache=True,
            declared_length=meta.get("declared_length"),
            digest=meta.get("digest"),
        )

    def _store(self, result: FetchResult, html_path: Path, meta_path: Path) -> None:
        html_path.parent.mkdir(parents=True, exist_ok=True)
        with html_path.open("w", encoding="utf-8", newline="") as handle:
            handle.write(result.body)
        meta = {
            "url": result.url,
            "status": result.status,
            # Wall-clock epoch seconds: the entry outlives this process, so
            # monotonic time (per-boot scale) would misdate it on reload.
            "fetched_at": self.clock.time(),
            "declared_length": result.declared_length,
            "digest": result.digest,
        }
        meta_path.write_text(json.dumps(meta, indent=2), encoding="utf-8")
