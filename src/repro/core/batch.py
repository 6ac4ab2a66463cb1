"""Concurrent batch extraction on top of the stage engine.

Every internal caller used to hand-roll its own page loop (the eval
harness, the timing bench, the CLI, the metasearch service, wrapper
generation).  :class:`BatchExtractor` is the one batch driver they now
share: ``extract_many(pages, workers=N)`` runs the staged pipeline over a
corpus with

* **a thread pool** -- every worker shares one extractor and one rule
  store (the multi-process path that ships is
  :mod:`repro.serve.procpool`);
* **per-site rule-store reuse** -- pass a :class:`RuleStore` and the first
  page of each site learns the Section 6.6 rule that every later page of
  that site applies via the cached fast path;
* **error isolation** -- a page that raises anywhere in the pipeline
  yields a :class:`FailedExtraction` record in its slot instead of killing
  the batch;
* **document acquisition** -- attach a :mod:`repro.fetch` fetcher and pass
  ``PageTask(url=...)`` items (or call :meth:`BatchExtractor.extract_urls`):
  each page is fetched, integrity-verified, and extracted, with fetch
  failures isolated per page and classified by kind (timeout, connection,
  http_status, truncated, corrupted, circuit_open vs plain extraction);
* **throughput/failure counts** -- :class:`BatchStats`, computed from the
  results alone.  Everything finer (stage, fetch, breaker, cache counts
  and latencies) goes to the caller's observer: the batch hands it to the
  engine and fires ``on_page_start/on_page_end/on_page_error`` on it, so
  a :class:`~repro.observe.TracingInstrumentation` collects every number
  in its :class:`~repro.observe.metrics.MetricsRegistry`.

Results always come back in input order, so ``workers=4`` is
output-equivalent to sequential execution (pinned by
``benchmarks/test_batch_throughput.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.pipeline import OminiExtractor
from repro.core.rules import RuleStore
from repro.core.stages.config import ExtractorConfig
from repro.core.stages.instrumentation import Instrumentation
from repro.fetch.base import classify_failure

__all__ = [
    "BatchExtractor",
    "BatchResult",
    "BatchStats",
    "FailedExtraction",
    "PageTask",
    "parallel_map",
]


def parallel_map(fn: Callable, items: Sequence, *, workers: int = 1) -> list:
    """Order-preserving map, threaded when ``workers > 1``.

    Exceptions propagate to the caller (use :class:`BatchExtractor` when
    you want per-item isolation instead).
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class PageTask:
    """One unit of batch work: HTML text, a file path or a URL, plus metadata."""

    source: str | None = None
    path: str | Path | None = None
    #: Fetch the page through the batch's fetcher (requires ``fetcher=``).
    url: str | None = None
    site: str | None = None
    #: Label used in results/failures; defaults to the path/URL or batch index.
    page_id: str | None = None

    def label(self, index: int) -> str:
        if self.page_id is not None:
            return self.page_id
        if self.path is not None:
            return str(self.path)
        if self.url is not None:
            return self.url
        return f"page[{index}]"


@dataclass(frozen=True)
class FailedExtraction:
    """A page the pipeline could not process; fills the page's result slot.

    ``kind`` places the failure in the acquisition taxonomy
    (:data:`repro.fetch.base.FAILURE_KINDS`): fetch failures carry the
    classified kind (``timeout``, ``connection``, ``http_status``,
    ``truncated``, ``corrupted``, ``circuit_open``) while pipeline errors
    on a successfully acquired page are ``extraction``.
    """

    page: str
    site: str | None
    error: str
    error_type: str
    kind: str = "extraction"

    def __bool__(self) -> bool:  # failures are falsy: filter with `if r`
        return False


@dataclass
class BatchStats:
    """Throughput and failure counters for one ``extract_many`` call."""

    pages: int = 0
    succeeded: int = 0
    failed: int = 0
    cached_rule_hits: int = 0
    fallbacks: int = 0
    elapsed: float = 0.0
    #: ``{failure_kind: count}`` breakdown of ``failed`` (taxonomy in
    #: :data:`repro.fetch.base.FAILURE_KINDS`).
    failure_kinds: dict = field(default_factory=dict)

    @property
    def pages_per_second(self) -> float:
        return self.pages / self.elapsed if self.elapsed > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "pages": self.pages,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "cached_rule_hits": self.cached_rule_hits,
            "fallbacks": self.fallbacks,
            "elapsed_s": self.elapsed,
            "pages_per_second": self.pages_per_second,
            "failure_kinds": dict(self.failure_kinds),
        }


@dataclass
class BatchResult:
    """Per-page outcomes (input order) plus aggregate counts."""

    results: list  # ExtractionResult | FailedExtraction
    stats: BatchStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> list:
        return [r for r in self.results if not isinstance(r, FailedExtraction)]

    @property
    def failures(self) -> list[FailedExtraction]:
        return [r for r in self.results if isinstance(r, FailedExtraction)]


class BatchExtractor:
    """Extract objects from many pages concurrently, on threads.

    Usage::

        batch = BatchExtractor(rule_store=RuleStore())
        outcome = batch.extract_many(pages, workers=4)
        for result in outcome.succeeded:
            ...

    Parameters
    ----------
    config:
        Consolidated pipeline configuration; None uses the paper defaults.
    rule_store:
        Optional shared store enabling per-site rule reuse across the
        batch (and across batches).  Pass ``PageTask(site=...)`` items (or
        use ``extract_files(..., site_from_dir=True)``) to key it.
    instrumentation:
        Observer receiving stage- and page-level hooks; attach a
        :class:`~repro.observe.TracingInstrumentation` and read its
        ``metrics`` for counts beyond :class:`BatchStats`.
    fetcher:
        Any :class:`repro.fetch.base.Fetcher`; enables ``PageTask(url=...)``
        items and :meth:`extract_urls`.  A fetch that raises a classified
        :class:`~repro.fetch.base.FetchError` (or whose body fails the
        integrity check) becomes a :class:`FailedExtraction` carrying that
        failure kind -- the batch always completes.
    """

    def __init__(
        self,
        config: ExtractorConfig | None = None,
        *,
        rule_store: RuleStore | None = None,
        instrumentation: Instrumentation | None = None,
        fetcher=None,
    ) -> None:
        self.config = config or ExtractorConfig()
        self.rule_store = rule_store
        self.instrumentation = instrumentation
        self.fetcher = fetcher

    # -- public API ----------------------------------------------------------

    def extract_many(
        self, pages: Iterable[str | PageTask], *, workers: int = 1
    ) -> BatchResult:
        """Run the pipeline over ``pages``; one result slot per page.

        ``pages`` items are HTML strings or :class:`PageTask` values.  A
        page that raises produces a :class:`FailedExtraction` in its slot;
        the batch always completes.
        """
        tasks = [
            page if isinstance(page, PageTask) else PageTask(source=page)
            for page in pages
        ]
        if any(task.url is not None for task in tasks) and self.fetcher is None:
            raise ValueError("PageTask(url=...) items require a fetcher")
        observer = self.instrumentation or Instrumentation()
        extractor = OminiExtractor.from_config(
            self.config, rule_store=self.rule_store, instrumentation=observer
        )

        def one(indexed: tuple[int, PageTask]):
            index, task = indexed
            observer.on_page_start(task)
            try:
                if task.url is not None:
                    fetched = self.fetcher.fetch(task.url, site=task.site).verify()
                    result = extractor.extract(fetched.body, site=task.site)
                elif task.source is not None:
                    result = extractor.extract(task.source, site=task.site)
                else:
                    result = extractor.extract_file(task.path, site=task.site)
            except Exception as error:  # noqa: BLE001 - isolation is the point
                observer.on_page_error(task, error)
                return FailedExtraction(
                    page=task.label(index),
                    site=task.site,
                    error=str(error),
                    error_type=type(error).__name__,
                    kind=classify_failure(error),
                )
            observer.on_page_end(task, result)
            return result

        start = time.perf_counter()
        results = parallel_map(one, list(enumerate(tasks)), workers=workers)
        elapsed = time.perf_counter() - start
        return BatchResult(results, _stats(results, elapsed))

    def extract_urls(
        self,
        urls: Iterable[str],
        *,
        site: str | None = None,
        workers: int = 1,
    ) -> BatchResult:
        """Fetch and extract each URL through the attached fetcher."""
        tasks = [PageTask(url=url, site=site) for url in urls]
        return self.extract_many(tasks, workers=workers)

    def extract_files(
        self,
        paths: Iterable[str | Path],
        *,
        workers: int = 1,
        site_from_dir: bool = False,
    ) -> BatchResult:
        """Batch-extract files on disk (the Table 16/17 layout).

        With ``site_from_dir=True`` each file's parent directory name is
        its site key -- the :class:`~repro.corpus.fetcher.PageCache` layout
        -- enabling per-site rule reuse when a rule store is attached.
        """
        tasks = [
            PageTask(
                path=path,
                site=Path(path).parent.name if site_from_dir else None,
            )
            for path in paths
        ]
        return self.extract_many(tasks, workers=workers)


def _stats(results: list, elapsed: float) -> BatchStats:
    stats = BatchStats(pages=len(results), elapsed=elapsed)
    for result in results:
        if isinstance(result, FailedExtraction):
            stats.failed += 1
            stats.failure_kinds[result.kind] = (
                stats.failure_kinds.get(result.kind, 0) + 1
            )
        else:
            stats.succeeded += 1
            if result.used_cached_rule:
                stats.cached_rule_hits += 1
            stats.fallbacks += result.fallbacks
    return stats
