"""Pluggable observers for the staged pipeline.

The old ``OminiExtractor._discover`` interleaved ``time.perf_counter()``
bookkeeping with phase logic; the stage engine externalizes that into an
observer interface so tracing and metrics export (the
:class:`~repro.observe.TracingInstrumentation` adapter) or a test's
recorder are all just different :class:`Instrumentation` implementations:

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
  the acquisition-tier hooks the :mod:`repro.fetch` stack emits, so one
  observer instance can watch a batch end to end, network included.

Observers only watch: the Table 16/17 row itself
(:class:`~repro.core.stages.context.PhaseTimings`) is filled by the
:class:`~repro.core.stages.engine.StageEngine`, which charges each stage's
elapsed time to the column it declares via ``Stage.timing_column``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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


#: Every hook name on the base observer -- the single source of truth that
#: reprolint's REP004 and the reflection test enumerate.
HOOK_NAMES = tuple(
    name
    for name, member in vars(Instrumentation).items()
    if name.startswith("on_") and callable(member)
)
