"""Pluggable observers for the staged pipeline.

The old ``OminiExtractor._discover`` interleaved ``time.perf_counter()``
bookkeeping with phase logic; the stage engine externalizes that into an
observer interface so timing, counting, tracing, or metrics export are all
just different :class:`Instrumentation` implementations:

* ``on_extract_start(ctx)`` / ``on_extract_end(ctx, result)`` bracket one
  whole extraction (``result`` is None when it raised) -- the root of the
  per-page span hierarchy in :mod:`repro.observe`;
* ``on_stage_start(stage, ctx)`` / ``on_stage_end(stage, ctx, elapsed)``
  bracket every stage execution (``elapsed`` in seconds);
* ``on_fallback(ctx, error)`` fires when a cached-rule plan dies with a
  :class:`~repro.core.rules.StaleRuleError` and the engine reruns discovery;
* ``on_page_start/on_page_end/on_page_error`` are the batch-level hooks
  :class:`~repro.core.batch.BatchExtractor` emits around whole pages;
* ``on_fetch_*``, ``on_breaker_transition`` and ``on_cache_hit/miss`` are
  the acquisition-tier hooks the :mod:`repro.fetch` stack emits, tallied by
  :class:`StageCounters` (attempts, retries, breaker transitions, cache hit
  rate) so one observer instance can watch a batch end to end, network
  included.

Observers only watch: the Table 16/17 row itself
(:class:`~repro.core.stages.context.PhaseTimings`) is filled by the
:class:`~repro.core.stages.engine.StageEngine`, which charges each stage's
elapsed time to the column it declares via ``Stage.timing_column``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stages.context import ExtractionContext
    from repro.core.stages.plan import Stage


class Instrumentation:
    """Base observer: every hook is a no-op.  Subclass what you need."""

    # -- extraction-level hooks -------------------------------------------

    def on_extract_start(self, ctx: "ExtractionContext") -> None:
        """The engine is about to drive ``ctx`` through a plan."""

    def on_extract_end(self, ctx: "ExtractionContext", result: object) -> None:
        """The extraction finished (``result`` is None when it raised)."""

    # -- stage-level hooks ------------------------------------------------

    def on_stage_start(self, stage: "Stage", ctx: "ExtractionContext") -> None:
        """A stage is about to run."""

    def on_stage_end(
        self, stage: "Stage", ctx: "ExtractionContext", elapsed: float
    ) -> None:
        """A stage finished successfully after ``elapsed`` seconds."""

    def on_fallback(self, ctx: "ExtractionContext", error: Exception) -> None:
        """A cached-rule plan went stale; discovery is about to rerun."""

    # -- page-level hooks (batch engine) ----------------------------------

    def on_page_start(self, page: object) -> None:
        """The batch engine picked up ``page``."""

    def on_page_end(self, page: object, result: object) -> None:
        """The batch engine finished ``page`` with ``result``."""

    def on_page_error(self, page: object, error: Exception) -> None:
        """``page`` raised and was isolated into a failure record."""

    # -- fetch-level hooks (acquisition tier) ------------------------------

    def on_fetch_start(self, url: str) -> None:
        """A fetcher began acquiring ``url`` (once per fetch, not per retry)."""

    def on_fetch_retry(self, url: str, attempt: int, error: Exception) -> None:
        """Attempt ``attempt`` for ``url`` failed transiently; retrying."""

    def on_fetch_end(self, url: str, result: object) -> None:
        """``url`` was acquired (``result`` is a ``FetchResult``)."""

    def on_fetch_error(self, url: str, error: Exception) -> None:
        """``url`` could not be acquired; ``error`` is classified."""

    def on_breaker_transition(self, site: str, old: str, new: str) -> None:
        """The per-site circuit breaker changed state for ``site``."""

    def on_cache_hit(self, url: str) -> None:
        """A caching fetcher served ``url`` from disk."""

    def on_cache_miss(self, url: str) -> None:
        """A caching fetcher had to go to its inner fetcher for ``url``."""


#: Every hook name on the base observer -- the single source of truth the
#: composite forwards and the reflection test enumerates.
HOOK_NAMES = tuple(
    name
    for name, member in vars(Instrumentation).items()
    if name.startswith("on_") and callable(member)
)


class CompositeInstrumentation(Instrumentation):
    """Fan every hook out to several observers, in order.

    Forwarders are generated below from :data:`HOOK_NAMES` rather than
    hand-written per hook: a newly added hook (``on_extract_*``,
    ``on_breaker_transition``, ...) is forwarded automatically instead of
    silently dropping for composed observers.
    ``tests/test_instrumentation_contract.py`` pins this by reflection.
    """

    def __init__(self, observers: list[Instrumentation]) -> None:
        self.observers = list(observers)


def _make_forwarder(hook_name: str) -> Callable[..., None]:
    def forward(self: CompositeInstrumentation, *args: Any, **kwargs: Any) -> None:
        for observer in self.observers:
            getattr(observer, hook_name)(*args, **kwargs)

    forward.__name__ = hook_name
    forward.__qualname__ = f"CompositeInstrumentation.{hook_name}"
    forward.__doc__ = f"Forward ``{hook_name}`` to every observer, in order."
    return forward


for _hook in HOOK_NAMES:
    setattr(CompositeInstrumentation, _hook, _make_forwarder(_hook))
del _hook


@dataclass
class StageCounters(Instrumentation):
    """Thread-safe aggregate counters over any number of extractions.

    ``stage_seconds`` accumulates wall-clock per stage *name* (finer grained
    than the Table 16/17 columns: construct and refine count separately),
    ``fallbacks`` counts stale-rule reruns, and the page-level counters feed
    :class:`~repro.core.batch.BatchStats`.
    """

    stage_seconds: dict[str, float] = field(default_factory=dict)
    stage_calls: dict[str, int] = field(default_factory=dict)
    extracts: int = 0
    fallbacks: int = 0
    pages_started: int = 0
    pages_succeeded: int = 0
    pages_failed: int = 0
    # -- acquisition counters (filled when a fetcher shares this observer) --
    fetch_requests: int = 0
    fetch_retries: int = 0
    fetch_successes: int = 0
    fetch_failures: int = 0
    #: ``{(old_state, new_state): count}`` across all sites.
    breaker_transitions: dict[tuple[str, str], int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def fetch_attempts(self) -> int:
        """Total transport calls: every first try plus every retry."""
        return self.fetch_requests + self.fetch_retries

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def on_stage_end(
        self, stage: "Stage", ctx: "ExtractionContext", elapsed: float
    ) -> None:
        with self._lock:
            self.stage_seconds[stage.name] = (
                self.stage_seconds.get(stage.name, 0.0) + elapsed
            )
            self.stage_calls[stage.name] = self.stage_calls.get(stage.name, 0) + 1

    def on_extract_end(self, ctx: "ExtractionContext", result: object) -> None:
        with self._lock:
            self.extracts += 1

    def on_fallback(self, ctx: "ExtractionContext", error: Exception) -> None:
        with self._lock:
            self.fallbacks += 1

    def on_page_start(self, page: object) -> None:
        with self._lock:
            self.pages_started += 1

    def on_page_end(self, page: object, result: object) -> None:
        with self._lock:
            self.pages_succeeded += 1

    def on_page_error(self, page: object, error: Exception) -> None:
        with self._lock:
            self.pages_failed += 1

    def on_fetch_start(self, url: str) -> None:
        with self._lock:
            self.fetch_requests += 1

    def on_fetch_retry(self, url: str, attempt: int, error: Exception) -> None:
        with self._lock:
            self.fetch_retries += 1

    def on_fetch_end(self, url: str, result: object) -> None:
        with self._lock:
            self.fetch_successes += 1

    def on_fetch_error(self, url: str, error: Exception) -> None:
        with self._lock:
            self.fetch_failures += 1

    def on_breaker_transition(self, site: str, old: str, new: str) -> None:
        with self._lock:
            key = (old, new)
            self.breaker_transitions[key] = self.breaker_transitions.get(key, 0) + 1

    def on_cache_hit(self, url: str) -> None:
        with self._lock:
            self.cache_hits += 1

    def on_cache_miss(self, url: str) -> None:
        with self._lock:
            self.cache_misses += 1

    # -- cross-process merge ------------------------------------------------

    #: Scalar counters shipped between processes by :meth:`as_totals`.
    INT_FIELDS = (
        "extracts",
        "fallbacks",
        "pages_started",
        "pages_succeeded",
        "pages_failed",
        "fetch_requests",
        "fetch_retries",
        "fetch_successes",
        "fetch_failures",
        "cache_hits",
        "cache_misses",
    )

    def as_totals(self) -> dict[str, Any]:
        """A picklable snapshot of every counter, for cross-process merge.

        Observers mutated inside a process-pool worker never reach the
        parent; workers ship one of these per task and the parent applies
        it with :meth:`merge_totals`, so thread- and process-pool batches
        report identical counts for the same workload.
        """
        with self._lock:
            totals: dict[str, Any] = {name: getattr(self, name) for name in self.INT_FIELDS}
            totals["stage_seconds"] = dict(self.stage_seconds)
            totals["stage_calls"] = dict(self.stage_calls)
            totals["breaker_transitions"] = dict(self.breaker_transitions)
        return totals

    def merge_totals(self, totals: dict[str, Any]) -> None:
        """Add a worker's :meth:`as_totals` snapshot onto this observer."""
        with self._lock:
            for name in self.INT_FIELDS:
                setattr(self, name, getattr(self, name) + totals.get(name, 0))
            for name, value in totals.get("stage_seconds", {}).items():
                self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + value
            for name, count in totals.get("stage_calls", {}).items():
                self.stage_calls[name] = self.stage_calls.get(name, 0) + count
            for key, count in totals.get("breaker_transitions", {}).items():
                self.breaker_transitions[key] = (
                    self.breaker_transitions.get(key, 0) + count
                )
