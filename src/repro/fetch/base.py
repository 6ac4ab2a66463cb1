"""Acquisition primitives: the Fetcher protocol, results, and failures.

Phase 1 of the paper (Section 3, task one) starts with "fetching the
document" -- the one step the original evaluation sidestepped by running on
cached local copies (Section 6.3).  This module defines the vocabulary the
whole acquisition subsystem shares:

* :class:`Fetcher` -- the minimal protocol: URL in, :class:`FetchResult`
  out, classified :class:`FetchError` on failure;
* :class:`FetchResult` -- the body plus the integrity facts needed to
  detect a damaged transfer (:meth:`FetchResult.verify` checks the declared
  length and content digest, turning truncation and byte corruption into
  *classified* failures instead of silently degraded extractions);
* the failure-kind taxonomy (:data:`TIMEOUT` .. :data:`EXTRACTION`) that
  :func:`classify_failure` maps any exception onto, so batch runs can
  report *why* each page was lost, not just that it was;
* :class:`Clock` with real (:class:`SystemClock`) and simulated
  (:class:`FakeClock`) implementations -- backoff, TTLs and circuit-breaker
  cooldowns all read time through this seam, which is what makes the chaos
  tests able to assert breaker schedules exactly;
* :class:`StaticFetcher` -- an in-memory origin server for tests and for
  the fault-injection harness to wrap.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, runtime_checkable
from urllib.parse import urlsplit

__all__ = [
    "CIRCUIT_OPEN",
    "CONNECTION",
    "CORRUPTED",
    "CircuitOpenError",
    "Clock",
    "CorruptBodyError",
    "EXTRACTION",
    "FAILURE_KINDS",
    "FakeClock",
    "FetchConnectionError",
    "FetchError",
    "FetchHttpError",
    "FetchResult",
    "FetchTimeoutError",
    "Fetcher",
    "HTTP_STATUS",
    "OVERSIZED",
    "OversizedBodyError",
    "StaticFetcher",
    "SystemClock",
    "TIMEOUT",
    "TRUNCATED",
    "TruncatedBodyError",
    "body_digest",
    "classify_failure",
    "site_key",
]


# -- failure-kind taxonomy ----------------------------------------------------

#: The fetch timed out (slow origin, injected latency past the deadline).
TIMEOUT = "timeout"
#: The connection could not be established or died mid-transfer.
CONNECTION = "connection"
#: The origin answered with a non-success HTTP status.
HTTP_STATUS = "http_status"
#: The body ended before its declared length (integrity check).
TRUNCATED = "truncated"
#: The body exceeded the transport's size cap and was abandoned.
OVERSIZED = "oversized"
#: The body does not match its declared content digest (integrity check).
CORRUPTED = "corrupted"
#: The per-site circuit breaker is open; the request was not attempted.
CIRCUIT_OPEN = "circuit_open"
#: The page fetched fine but the extraction pipeline raised.
EXTRACTION = "extraction"

#: Every kind a :class:`~repro.core.batch.FailedExtraction` can carry.
FAILURE_KINDS = (
    TIMEOUT,
    CONNECTION,
    HTTP_STATUS,
    TRUNCATED,
    OVERSIZED,
    CORRUPTED,
    CIRCUIT_OPEN,
    EXTRACTION,
)


class FetchError(Exception):
    """Base of every classified acquisition failure."""

    kind: str = CONNECTION

    def __init__(self, message: str, *, url: str | None = None) -> None:
        super().__init__(message)
        self.url = url


class FetchTimeoutError(FetchError):
    kind = TIMEOUT


class FetchConnectionError(FetchError):
    kind = CONNECTION


class FetchHttpError(FetchError):
    kind = HTTP_STATUS

    def __init__(self, message: str, *, url: str | None = None, status: int = 500) -> None:
        super().__init__(message, url=url)
        self.status = status

    @property
    def retryable(self) -> bool:
        """5xx answers are transient; 4xx answers will not improve on retry."""
        return self.status >= 500


class TruncatedBodyError(FetchError):
    kind = TRUNCATED


class OversizedBodyError(FetchError):
    """The body exceeded the transport's size cap; retrying cannot help."""

    kind = OVERSIZED


class CorruptBodyError(FetchError):
    kind = CORRUPTED


class CircuitOpenError(FetchError):
    kind = CIRCUIT_OPEN


def classify_failure(error: BaseException) -> str:
    """Map any exception onto the failure-kind taxonomy."""
    if isinstance(error, FetchError):
        return error.kind
    return EXTRACTION


def site_key(url: str, site: str | None = None) -> str:
    """The per-site key: explicit site name, else the URL's host.

    Keys the circuit breaker, the fetch cache layout, the serve rule
    cache and (through :func:`repro.serve.protocol.routing_key`) the
    procpool shards and the fleet ring.
    """
    if site is not None:
        return site
    return urlsplit(url).netloc or url


# -- results ------------------------------------------------------------------


def body_digest(body: str) -> str:
    """Stable content digest of a page body (first 16 hex chars of SHA-256)."""
    return hashlib.sha256(body.encode("utf-8", errors="replace")).hexdigest()[:16]


@dataclass
class FetchResult:
    """One successfully transferred document plus its integrity facts.

    ``declared_length`` and ``digest`` describe the body *as the origin
    served it* (Content-Length analogue and a content checksum).  A layer
    that damages the body in transit -- the fault injector, a flaky proxy --
    leaves them untouched, which is exactly how :meth:`verify` catches the
    damage.
    """

    url: str
    body: str
    status: int = 200
    site: str | None = None
    attempts: int = 1
    elapsed: float = 0.0
    from_cache: bool = False
    declared_length: int | None = None
    digest: str | None = None

    @classmethod
    def of(
        cls, url: str, body: str, *, site: str | None = None, status: int = 200
    ) -> "FetchResult":
        """A result whose integrity facts match ``body`` (an honest origin)."""
        return cls(
            url=url,
            body=body,
            status=status,
            site=site,
            declared_length=len(body),
            digest=body_digest(body),
        )

    def verify(self) -> "FetchResult":
        """Check the body against its declared length and digest.

        Raises :class:`TruncatedBodyError` when the body is shorter than
        declared, :class:`CorruptBodyError` when the digest disagrees.
        Returns ``self`` so calls chain: ``fetcher.fetch(url).verify()``.
        """
        if self.declared_length is not None and len(self.body) < self.declared_length:
            raise TruncatedBodyError(
                f"body ended at {len(self.body)}/{self.declared_length} chars",
                url=self.url,
            )
        if self.digest is not None and body_digest(self.body) != self.digest:
            raise CorruptBodyError("body does not match its digest", url=self.url)
        return self


# -- protocol -----------------------------------------------------------------


@runtime_checkable
class Fetcher(Protocol):
    """Anything that can turn a URL into a :class:`FetchResult`."""

    def fetch(self, url: str, *, site: str | None = None) -> FetchResult:
        """Return the document at ``url`` or raise a :class:`FetchError`."""
        ...  # pragma: no cover - protocol definition


# -- clocks -------------------------------------------------------------------


class Clock(Protocol):
    """The time seam: backoff, TTLs and breaker cooldowns read this.

    ``monotonic`` measures in-process intervals (backoff, cooldowns) and
    is meaningless across processes; ``time`` is wall-clock epoch seconds,
    the only scale safe to persist (on-disk cache freshness).
    """

    def monotonic(self) -> float: ...  # pragma: no cover - protocol
    def time(self) -> float: ...  # pragma: no cover - protocol
    def sleep(self, seconds: float) -> None: ...  # pragma: no cover - protocol


class SystemClock:
    """Real time (the production default)."""

    def monotonic(self) -> float:
        return time.monotonic()

    def time(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class FakeClock:
    """Deterministic simulated time: ``sleep`` advances instead of waiting.

    Thread-safe; ``sleeps`` records every requested delay so tests can
    assert backoff schedules exactly.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self.sleeps: list[float] = []
        self._lock = threading.Lock()

    def monotonic(self) -> float:
        with self._lock:
            return self._now

    def time(self) -> float:
        # The simulation runs monotonic and wall clock on one timeline.
        return self.monotonic()

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append(seconds)
            self._now += max(0.0, seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep (external waiting)."""
        with self._lock:
            self._now += max(0.0, seconds)


# -- in-memory origin ---------------------------------------------------------


class StaticFetcher:
    """An in-memory origin server: a URL→body mapping behind the protocol.

    The innermost layer of every test stack (``ResilientFetcher(
    FaultInjectingFetcher(StaticFetcher(pages)))``) and a convenient way to
    drive the batch engine from pre-rendered corpora.  Unknown URLs raise
    :class:`FetchHttpError` with status 404.
    """

    def __init__(
        self,
        pages: Mapping[str, str] | Callable[[str], str],
        *,
        clock: Clock | None = None,
    ) -> None:
        self._pages = pages
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()
        self.calls = 0

    def fetch(self, url: str, *, site: str | None = None) -> FetchResult:
        with self._lock:
            self.calls += 1
        if callable(self._pages):
            body = self._pages(url)
        else:
            if url not in self._pages:
                raise FetchHttpError(f"no such page: {url}", url=url, status=404)
            body = self._pages[url]
        return FetchResult.of(url, body, site=site)
