"""Observability: hierarchical span tracing and metrics export.

The paper's whole evaluation is a latency study (Tables 16/17 time every
pipeline phase); this package is the production-shaped version of that
bookkeeping, built on the existing
:class:`~repro.core.stages.instrumentation.Instrumentation` hook surface:

* :class:`Tracer` / :class:`Span` -- hierarchical, thread-safe tracing
  (``page -> fetch / extract -> stage``), with process-pool spans shipped
  home by value;
* :class:`MetricsRegistry`, :class:`Counter`, :class:`Histogram` --
  fixed-bucket latency distributions plus counters, exported as JSON or
  flat ``key value`` text;
* :class:`TracingInstrumentation` -- the adapter that turns hook calls
  into spans and metrics, with a cheap enabled-check so tracing off costs
  one branch per hook;
* :func:`phase_timings_from_spans` -- the Tables 16/17 row as a pure view
  over span data.

Quickstart::

    from repro.core.batch import BatchExtractor
    from repro.observe import TracingInstrumentation, write_trace

    adapter = TracingInstrumentation()
    batch = BatchExtractor(instrumentation=adapter)
    batch.extract_files(paths, workers=8)
    write_trace(adapter.tracer.spans, "trace.json")
    report = adapter.metrics.to_text()

or from the CLI: ``omini extract PAGES... --trace trace.json
--metrics-out metrics.txt``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.observe.adapter": ("TracingInstrumentation", "phase_timings_from_spans"),
        "repro.observe.metrics": (
            "DEFAULT_LATENCY_BUCKETS", "Counter", "Histogram", "MetricsRegistry",
            "snapshot_delta",
        ),
        "repro.observe.span": ("Span", "Tracer", "write_trace"),
    },
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "TracingInstrumentation",
    "phase_timings_from_spans",
    "snapshot_delta",
    "write_trace",
]
