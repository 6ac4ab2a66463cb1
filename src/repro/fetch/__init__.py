"""Document acquisition: the resilient fetch tier of the reproduction.

Phase 1 of the Omini pipeline begins with "fetching the document"
(Section 3); this package makes that step survive a hostile network while
reporting exactly what happened:

* :mod:`repro.fetch.base`  -- the :class:`Fetcher` protocol,
  :class:`FetchResult` (with integrity verification), the failure-kind
  taxonomy, and the clock seam;
* :mod:`repro.fetch.retry` -- bounded retries with deterministic-jitter
  backoff plus the per-site circuit breaker
  (:class:`ResilientFetcher`, :class:`CircuitBreaker`, :class:`RetryPolicy`);
* :mod:`repro.fetch.http`  -- :class:`HttpFetcher`, the urllib edge;
* :mod:`repro.fetch.cache` -- :class:`CachingFetcher`, a TTL'd on-disk
  layer in the :class:`~repro.corpus.fetcher.PageCache` layout;
* :mod:`repro.fetch.faults` -- :class:`FaultInjectingFetcher`, the seeded
  chaos harness (five fault kinds, every decision a pure function of
  ``(seed, url, call)``).

Layers compose; a production stack and a chaos stack differ only in the
innermost transport::

    CachingFetcher(HttpFetcher(...), "cache/")                    # production
    ResilientFetcher(FaultInjectingFetcher(StaticFetcher(pages)))  # chaos test
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fetch.base": (
            "CIRCUIT_OPEN", "CONNECTION", "CORRUPTED", "EXTRACTION", "FAILURE_KINDS",
            "HTTP_STATUS", "OVERSIZED", "TIMEOUT", "TRUNCATED", "CircuitOpenError",
            "CorruptBodyError", "FakeClock", "FetchConnectionError", "FetchError",
            "FetchHttpError", "FetchResult", "FetchTimeoutError", "Fetcher",
            "OversizedBodyError", "StaticFetcher", "SystemClock", "TruncatedBodyError",
            "classify_failure", "site_key",
        ),
        "repro.fetch.cache": ("CachingFetcher",),
        "repro.fetch.faults": ("FAULT_KINDS", "FaultInjectingFetcher", "corrupt_html"),
        "repro.fetch.http": ("DEFAULT_MAX_BYTES", "HttpFetcher"),
        "repro.fetch.retry": ("CircuitBreaker", "ResilientFetcher", "RetryPolicy"),
    },
)

__all__ = [
    "CIRCUIT_OPEN",
    "CONNECTION",
    "CORRUPTED",
    "CachingFetcher",
    "CircuitBreaker",
    "CircuitOpenError",
    "CorruptBodyError",
    "DEFAULT_MAX_BYTES",
    "EXTRACTION",
    "FAILURE_KINDS",
    "FAULT_KINDS",
    "FakeClock",
    "FaultInjectingFetcher",
    "FetchConnectionError",
    "FetchError",
    "FetchHttpError",
    "FetchResult",
    "FetchTimeoutError",
    "Fetcher",
    "HTTP_STATUS",
    "HttpFetcher",
    "OVERSIZED",
    "OversizedBodyError",
    "ResilientFetcher",
    "RetryPolicy",
    "StaticFetcher",
    "SystemClock",
    "TIMEOUT",
    "TRUNCATED",
    "TruncatedBodyError",
    "classify_failure",
    "corrupt_html",
    "site_key",
]
