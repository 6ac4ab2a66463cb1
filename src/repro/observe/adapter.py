"""TracingInstrumentation: the bridge from the hook surface to spans/metrics.

Every subsystem already emits :class:`~repro.core.stages.instrumentation.
Instrumentation` hooks -- the stage engine around extractions and stages,
:class:`~repro.core.batch.BatchExtractor` around pages, the
:mod:`repro.fetch` layers around fetches, retries, breaker transitions and
cache lookups.  This adapter turns those hooks into

* a hierarchical trace (``page -> fetch / extract -> stage...``) on its
  :class:`~repro.observe.span.Tracer`, and
* counters + fixed-bucket latency histograms on its
  :class:`~repro.observe.metrics.MetricsRegistry`
  (naming scheme documented in :mod:`repro.observe.metrics`).

Cheap-off guard: every hook begins with ``if not self.enabled: return`` --
one attribute load and a branch, no allocation -- so an adapter attached
with tracing disabled adds no measurable hot-path cost
(``benchmarks/test_observe_overhead.py`` pins this under 5%).

Stage spans take their duration from the engine's own elapsed measurement
(passed to ``on_stage_end``), so summing a trace's stage spans per timing
column reproduces :class:`PhaseTimings` bit-for-bit --
:func:`phase_timings_from_spans` is that view, and ``eval/timing.py``
builds Tables 16/17 from it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.core.stages.context import PhaseTimings, fallback_wipe_columns
from repro.core.stages.instrumentation import Instrumentation
from repro.observe.metrics import MetricsRegistry
from repro.observe.span import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stages.context import ExtractionContext
    from repro.core.stages.plan import Stage
    from repro.fetch.base import Clock

__all__ = ["TracingInstrumentation", "phase_timings_from_spans"]


class TracingInstrumentation(Instrumentation):
    """Emit spans and metrics from the standard instrumentation hooks.

    Usage::

        adapter = TracingInstrumentation()
        batch = BatchExtractor(instrumentation=adapter, fetcher=fetcher)
        batch.extract_urls(urls, workers=8)
        spans = adapter.tracer.spans          # the trace forest
        report = adapter.metrics.to_text()  # flat key/value metrics

    One adapter instance can watch a whole concurrent batch: nesting state
    is per-thread, collection is locked.  With ``enabled=False`` every hook
    returns after a single attribute check.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        enabled: bool = True,
        clock: "Clock | None" = None,
    ) -> None:
        self.tracer = tracer or Tracer(clock=clock)
        self.metrics = metrics or MetricsRegistry()
        self.enabled = enabled
        self._tls = threading.local()

    # -- per-thread handle state -------------------------------------------

    def _handles(self) -> dict[str, Any]:
        handles = getattr(self._tls, "handles", None)
        if handles is None:
            handles = self._tls.handles = {"stages": [], "fetches": {}}
        return handles

    # -- extraction hooks ---------------------------------------------------

    def on_extract_start(self, ctx: "ExtractionContext") -> None:
        if not self.enabled:
            return
        attributes = {}
        if ctx.site is not None:
            attributes["site"] = ctx.site
        if ctx.path is not None:
            attributes["path"] = str(ctx.path)
        self._handles()["extract"] = self.tracer.start("extract", **attributes)

    def on_extract_end(self, ctx: "ExtractionContext", result: Any) -> None:
        if not self.enabled:
            return
        handles = self._handles()
        handles["stages"].clear()  # dangling handles die with the extract span
        handle = handles.pop("extract", None)
        if result is None:
            span = self.tracer.end(handle, status="error")
            self.metrics.counter("extract.errors").inc()
        else:
            span = self.tracer.end(
                handle, used_cached_rule=result.used_cached_rule
            )
            self.metrics.counter("extract.pages").inc()
        if span is not None:
            self.metrics.histogram("extract.seconds").observe(span.duration)

    def on_stage_start(self, stage: "Stage", ctx: "ExtractionContext") -> None:
        if not self.enabled:
            return
        self._handles()["stages"].append(self.tracer.start(stage.name))

    def on_stage_end(
        self, stage: "Stage", ctx: "ExtractionContext", elapsed: float
    ) -> None:
        if not self.enabled:
            return
        stages = self._handles()["stages"]
        handle = stages.pop() if stages else None
        self.tracer.end(handle, duration=elapsed, column=stage.timing_column)
        self.metrics.histogram(f"stage.{stage.name}.seconds").observe(elapsed)

    def on_fallback(self, ctx: "ExtractionContext", error: Exception) -> None:
        if not self.enabled:
            return
        # The cached plan died mid-stage: close its dangling span(s) so the
        # rerun's stages nest under the extract span, not under a corpse.
        stages = self._handles()["stages"]
        while stages:
            self.tracer.end(stages.pop(), status="error", error=type(error).__name__)
        self.tracer.event("fallback", error=type(error).__name__)
        self.metrics.counter("fallback.count").inc()

    # -- page hooks (batch engine) ------------------------------------------

    def on_page_start(self, page: object) -> None:
        if not self.enabled:
            return
        attributes = {}
        for attr in ("url", "path", "site"):
            value = getattr(page, attr, None)
            if value is not None:
                attributes[attr] = str(value)
        self._handles()["page"] = self.tracer.start("page", **attributes)

    def on_page_end(self, page: object, result: object) -> None:
        if not self.enabled:
            return
        span = self.tracer.end(self._handles().pop("page", None))
        self.metrics.counter("page.success").inc()
        if span is not None:
            self.metrics.histogram("page.seconds").observe(span.duration)

    def on_page_error(self, page: object, error: Exception) -> None:
        if not self.enabled:
            return
        span = self.tracer.end(
            self._handles().pop("page", None),
            status="error",
            error=type(error).__name__,
        )
        self.metrics.counter("page.error").inc()
        if span is not None:
            self.metrics.histogram("page.seconds").observe(span.duration)

    # -- fetch hooks (acquisition tier) -------------------------------------

    def on_fetch_start(self, url: str) -> None:
        if not self.enabled:
            return
        self._handles()["fetches"][url] = self.tracer.start("fetch", url=url)
        self.metrics.counter("fetch.requests").inc()

    def on_fetch_retry(self, url: str, attempt: int, error: Exception) -> None:
        if not self.enabled:
            return
        self.tracer.event(
            "fetch.retry", url=url, attempt=attempt, error=type(error).__name__
        )
        self.metrics.counter("fetch.retries").inc()

    def on_fetch_end(self, url: str, result: Any) -> None:
        if not self.enabled:
            return
        from_cache = bool(getattr(result, "from_cache", False))
        # Prefer the fetch layer's own elapsed measurement: a cache hit
        # fires start/end back-to-back after the disk read, and a retried
        # origin fetch measures on the (possibly fake) injected clock.
        elapsed = getattr(result, "elapsed", 0.0) or None
        span = self.tracer.end(
            self._handles()["fetches"].pop(url, None),
            duration=elapsed,
            attempts=getattr(result, "attempts", 1),
            from_cache=from_cache,
        )
        self.metrics.counter("fetch.success").inc()
        self.metrics.histogram("fetch.attempts", bounds=(1, 2, 3, 5, 8)).observe(
            getattr(result, "attempts", 1)
        )
        if span is not None:
            self.metrics.histogram("fetch.seconds").observe(span.duration)
            layer = "fetch.cache.seconds" if from_cache else "fetch.origin.seconds"
            self.metrics.histogram(layer).observe(span.duration)

    def on_fetch_error(self, url: str, error: Exception) -> None:
        if not self.enabled:
            return
        span = self.tracer.end(
            self._handles()["fetches"].pop(url, None),
            status="error",
            error=type(error).__name__,
        )
        self.metrics.counter("fetch.failures").inc()
        if span is not None:
            self.metrics.histogram("fetch.seconds").observe(span.duration)

    def on_breaker_transition(self, site: str, old: str, new: str) -> None:
        if not self.enabled:
            return
        self.tracer.event("breaker.transition", site=site, old=old, new=new)
        self.metrics.counter(f"breaker.{old}_to_{new}").inc()

    def on_cache_hit(self, url: str) -> None:
        if not self.enabled:
            return
        self.metrics.counter("cache.hits").inc()

    def on_cache_miss(self, url: str) -> None:
        if not self.enabled:
            return
        self.metrics.counter("cache.misses").inc()

    # -- cross-process merge ------------------------------------------------

    def absorb_spans(self, spans: list[Span]) -> None:
        """Merge spans a process-pool worker shipped home.

        Spans land in the tracer, and counters + stage/extract/page
        durations are re-derived into the same registry entries the thread
        path fills live, so a process-pool run exports the same metric
        names with the same totals (worker-local registries are discarded).
        """
        self.tracer.absorb(spans)
        for span in spans:
            if span.name == "extract":
                if span.status == "ok":
                    self.metrics.counter("extract.pages").inc()
                    self.metrics.histogram("extract.seconds").observe(span.duration)
                else:
                    self.metrics.counter("extract.errors").inc()
            elif span.name == "page":
                ok = span.status == "ok"
                self.metrics.counter("page.success" if ok else "page.error").inc()
                self.metrics.histogram("page.seconds").observe(span.duration)
            elif span.name == "fallback":
                self.metrics.counter("fallback.count").inc()
            elif "column" in span.attributes and span.status == "ok":
                self.metrics.histogram(f"stage.{span.name}.seconds").observe(
                    span.duration
                )


def phase_timings_from_spans(spans: list[Span]) -> PhaseTimings:
    """Rebuild a :class:`PhaseTimings` row from one extraction's spans.

    Replays exactly what the stage engine does to ``ctx.timings`` -- add
    each stage span's engine-measured duration to its declared column,
    wipe the non-prologue columns on a ``fallback`` event -- in span
    completion order, which is hook order.  Same additions of the same
    floats in the same order: the result is bit-identical to the row the
    extraction itself produced, which is what lets ``eval/timing.py``
    build Tables 16/17 as a pure view over trace data.
    """

    timings = PhaseTimings()
    for span in spans:
        if span.name == "fallback":
            for column in fallback_wipe_columns(timings):
                setattr(timings, column, 0.0)
            continue
        column = span.attributes.get("column")
        if column is not None and span.status == "ok":
            setattr(timings, column, getattr(timings, column) + span.duration)
    return timings
