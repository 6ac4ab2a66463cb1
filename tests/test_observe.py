"""Tests for the observability layer (repro.observe).

Covers the span tracer (nesting, abandonment, thread safety), the metrics
primitives (counters, fixed-bucket histograms, the registry's two export
formats), the TracingInstrumentation adapter over a real extraction, and
the two correctness claims the tentpole makes:

* the span view of an extraction's timings is *byte-identical* to the
  PhaseTimings row the extraction itself produced;
* a stale-rule fallback wipes every non-prologue timing column -- pinned
  both end-to-end (a real StaleRuleError drive checking every
  PhaseTimings field) and directly against the stage engine and
  ``ExtractionContext.reset_for_discovery`` with a synthetic stage that
  charges a column outside the old hand-maintained wipe list.
"""

import dataclasses
import json
import threading
import types

import pytest

from repro.core.pipeline import OminiExtractor
from repro.core.rules import ExtractionRule, RuleStore
from repro.core.stages import engine as engine_module
from repro.core.stages.context import (
    DISCOVERY_COLUMNS,
    PROLOGUE_COLUMNS,
    ExtractionContext,
    PhaseTimings,
    fallback_wipe_columns,
)
from repro.core.stages.engine import StageEngine
from repro.fetch.base import FakeClock
from repro.observe import (
    Counter,
    Histogram,
    MetricsRegistry,
    Tracer,
    TracingInstrumentation,
    phase_timings_from_spans,
    snapshot_delta,
    write_trace,
)

from tests.test_pipeline import simple_page


class TestTracer:
    def test_nesting_links_parent_and_trace(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.end(inner)
        tracer.end(outer)
        spans = {s.name: s for s in tracer.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        tracer.end(tracer.start("a"))
        tracer.end(tracer.start("b"))
        a, b = tracer.spans
        assert a.trace_id != b.trace_id

    def test_dangling_inner_spans_are_abandoned(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")  # never ended: its operation raised
        tracer.end(outer)
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].status == "abandoned"
        assert spans["outer"].status == "ok"

    def test_end_is_idempotent_and_none_safe(self):
        tracer = Tracer()
        handle = tracer.start("x")
        assert tracer.end(handle) is not None
        assert tracer.end(handle) is None  # already closed
        assert tracer.end(None) is None

    def test_duration_override_is_exact(self):
        tracer = Tracer()
        span = tracer.end(tracer.start("x"), duration=0.125)
        assert span.duration == 0.125

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.start("x") is None
        assert tracer.end(tracer.start("x")) is None
        tracer.event("e")
        with tracer.span("cm"):
            pass
        assert tracer.spans == []

    def test_context_manager_marks_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.spans
        assert span.status == "error"
        assert span.attributes["error"] == "ValueError"

    def test_threads_weave_independent_chains(self):
        tracer = Tracer()

        def work(tag):
            outer = tracer.start(f"outer-{tag}")
            tracer.end(tracer.start(f"inner-{tag}"))
            tracer.end(outer)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans
        assert len(spans) == 16
        by_name = {s.name: s for s in spans}
        for i in range(8):
            inner, outer = by_name[f"inner-{i}"], by_name[f"outer-{i}"]
            assert inner.parent_id == outer.span_id  # no cross-thread mixups
        assert len({s.span_id for s in spans}) == 16

    def test_drain_and_absorb_round_trip(self):
        worker = Tracer(id_prefix="w1-")
        worker.end(worker.start("task"))
        shipped = worker.drain()
        assert worker.spans == []
        parent = Tracer()
        parent.end(parent.start("local"))
        parent.absorb(shipped)
        ids = {s.span_id for s in parent.spans}
        assert len(ids) == 2  # prefix keeps worker ids collision-free

    def test_write_trace_is_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.end(tracer.start("x", site="s"), status="ok")
        path = write_trace(tracer.spans, tmp_path / "trace.json")
        (entry,) = json.loads(path.read_text(encoding="utf-8"))
        assert entry["name"] == "x"
        assert entry["attributes"] == {"site": "s"}
        assert entry["duration_ms"] >= 0


class TestTracerClockSeam:
    """Spans measured on a FakeClock are *exact*, not approximate.

    This is the REP001 fix made observable: the tracer reads time only
    through its injected Clock, so a fake clock yields bit-exact span
    timestamps and durations -- no tolerance windows in assertions.
    """

    def test_durations_are_exact_under_fake_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        outer = tracer.start("outer")
        clock.advance(0.25)
        inner = tracer.start("inner")
        clock.advance(1.5)
        tracer.end(inner)
        clock.advance(0.125)
        tracer.end(outer)
        spans = {s.name: s for s in tracer.spans}
        assert spans["inner"].duration == 1.5
        assert spans["outer"].duration == 0.25 + 1.5 + 0.125

    def test_start_times_are_exact_under_fake_clock(self):
        clock = FakeClock(start=100.0)
        tracer = Tracer(clock=clock)
        first = tracer.start("first")
        tracer.end(first)
        clock.advance(2.0)
        second = tracer.start("second")
        tracer.end(second)
        spans = {s.name: s for s in tracer.spans}
        assert spans["first"].start_time == 100.0
        assert spans["second"].start_time == 102.0

    def test_explicit_duration_still_wins_over_the_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        handle = tracer.start("stage")
        clock.advance(9.0)
        span = tracer.end(handle, duration=0.5)
        assert span.duration == 0.5

    def test_adapter_threads_its_clock_into_the_tracer(self):
        clock = FakeClock()
        adapter = TracingInstrumentation(clock=clock)
        adapter.on_fetch_start("http://x.test/")
        clock.advance(3.0)
        adapter.on_fetch_error("http://x.test/", TimeoutError("t"))
        (span,) = adapter.tracer.spans
        assert span.duration == 3.0


class TestMetrics:
    def test_counter_is_thread_safe(self):
        counter = Counter("c")
        threads = [
            threading.Thread(target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000

    def test_histogram_counts_and_stats(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 8.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 13.0
        assert hist.min == 0.5
        assert hist.max == 8.0
        assert hist.mean == pytest.approx(3.25)

    def test_quantiles_are_monotone_and_clamped(self):
        hist = Histogram("h", bounds=(0.001, 0.01, 0.1, 1.0))
        for _ in range(100):
            hist.observe(0.005)
        p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert p99 <= hist.max  # interpolation never exceeds observed max

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_registry_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_text_export_is_sorted_flat_key_value(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc()
        registry.counter("a.count").inc()
        lines = registry.to_text().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            key, value = line.split(" ", 1)
            float(value)  # every value parses as a number

    def test_json_export_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("pages").inc()
        registry.histogram("lat").observe(0.01)
        payload = json.loads(registry.to_json())
        assert payload["counters"]["pages"] == 1
        assert payload["histograms"]["lat"]["count"] == 1


class TestAdapterOverExtraction:
    def test_span_forest_shape_for_one_discovery(self):
        adapter = TracingInstrumentation()
        OminiExtractor(instrumentation=adapter).extract(simple_page(5))
        spans = adapter.tracer.spans
        (root,) = [s for s in spans if s.parent_id is None]
        assert root.name == "extract"
        children = {s.name for s in spans if s.parent_id == root.span_id}
        assert {"parse_page", "choose_subtree", "object_separator"} <= children
        assert all(s.trace_id == root.trace_id for s in spans)

    def test_span_view_is_byte_identical_to_phase_timings(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(simple_page(6), encoding="utf-8")
        adapter = TracingInstrumentation()
        extractor = OminiExtractor(
            rule_store=RuleStore(), instrumentation=adapter
        )
        cold = extractor.extract_file(page, site="s")
        assert phase_timings_from_spans(adapter.tracer.drain()) == cold.timings
        warm = extractor.extract_file(page, site="s")  # cached-rule path
        assert warm.used_cached_rule
        assert phase_timings_from_spans(adapter.tracer.drain()) == warm.timings

    def test_span_view_identical_through_fallback(self):
        store = RuleStore()
        adapter = TracingInstrumentation()
        extractor = OminiExtractor(rule_store=store, instrumentation=adapter)
        extractor.extract(simple_page(5), site="s")
        adapter.tracer.drain()
        redesigned = simple_page(5).replace(
            "<table>", "<div><i>new!</i></div><table>"
        )
        result = extractor.extract(redesigned, site="s")
        assert not result.used_cached_rule
        spans = adapter.tracer.drain()
        assert any(s.name == "fallback" for s in spans)
        assert phase_timings_from_spans(spans) == result.timings

    def test_disabled_adapter_emits_nothing(self):
        adapter = TracingInstrumentation(enabled=False)
        OminiExtractor(instrumentation=adapter).extract(simple_page(4))
        assert adapter.tracer.spans == []
        assert adapter.metrics.snapshot() == {"counters": {}, "histograms": {}}

    def test_metrics_from_one_extraction(self):
        adapter = TracingInstrumentation()
        OminiExtractor(instrumentation=adapter).extract(simple_page(5))
        assert adapter.metrics.counter("extract.pages").value == 1
        assert adapter.metrics.histogram("extract.seconds").count == 1
        assert adapter.metrics.histogram("stage.parse_page.seconds").count == 1


@dataclasses.dataclass
class _ExtendedTimings(PhaseTimings):
    """PhaseTimings as a future PR might extend it: one extra column.

    ``refine_objects`` is deliberately absent from the hand-maintained
    ``DISCOVERY_COLUMNS`` list -- exactly the situation where the old wipe
    would leak a dead cached run's time into the discovery row.
    """

    refine_objects: float = 0.0


class _ChargingStage:
    """A synthetic cached-plan stage charging the new column."""

    name = "synthetic_refine"
    timing_column = "refine_objects"

    def run(self, ctx: ExtractionContext) -> None:
        pass


class TestFallbackWipesEveryColumn:
    def test_wipe_list_covers_every_non_prologue_field(self):
        timings = PhaseTimings()
        wiped = set(fallback_wipe_columns(timings))
        every = {f.name for f in dataclasses.fields(timings)}
        assert wiped == every - set(PROLOGUE_COLUMNS)
        assert wiped == set(DISCOVERY_COLUMNS)  # identical for today's shape

    def test_wipe_list_tracks_new_columns_by_construction(self):
        wiped = set(fallback_wipe_columns(_ExtendedTimings()))
        assert "refine_objects" in wiped  # derived from fields, not the list
        assert "refine_objects" not in DISCOVERY_COLUMNS

    def test_fallback_resets_columns_outside_the_old_list(self, monkeypatch):
        ticks = iter([10.0, 10.25])  # the engine's clock: one 0.25 s stage
        clock = types.SimpleNamespace(perf_counter=lambda: next(ticks))
        monkeypatch.setattr(engine_module, "time", clock)
        ctx = ExtractionContext(source="<html></html>")
        ctx.timings = _ExtendedTimings(read_file=1.0, parse_page=2.0)
        StageEngine().run_stage(_ChargingStage(), ctx)
        assert ctx.timings.refine_objects == 0.25
        ctx.reset_for_discovery()
        assert ctx.timings.refine_objects == 0.0  # leaked under the old wipe
        for column in DISCOVERY_COLUMNS:
            assert getattr(ctx.timings, column) == 0.0
        # Prologue survives: the page was read and parsed exactly once.
        assert ctx.timings.read_file == 1.0
        assert ctx.timings.parse_page == 2.0

    def test_stale_rule_drive_checks_every_phase_timings_column(self):
        """End-to-end pin: a real StaleRuleError fallback leaves a row
        indistinguishable from a pure discovery run, field by field."""
        store = RuleStore()
        store.put(
            ExtractionRule(
                site="s", subtree_path="html[1].body[9]", separator="tr"
            )
        )
        extractor = OminiExtractor(rule_store=store)
        result = extractor.extract(simple_page(5), site="s")
        assert not result.used_cached_rule
        row = result.timings
        for column in (f.name for f in dataclasses.fields(row)):
            value = getattr(row, column)
            if column == "read_file":
                assert value == 0.0, "no file read: extract() from a string"
            else:
                assert value > 0.0, f"{column} should carry discovery time"


class TestSnapshotDeltaAndAbsorb:
    """The cross-process merge path: worker deltas folded into a parent."""

    def test_absorbing_deltas_equals_direct_observation(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        direct = MetricsRegistry()
        values = [0.0002, 0.004, 0.004, 0.08, 1.7, 0.00005]

        previous = worker.snapshot()
        for index, value in enumerate(values):
            worker.counter("serve.completed").inc()
            worker.histogram("serve.request.seconds").observe(value)
            direct.counter("serve.completed").inc()
            direct.histogram("serve.request.seconds").observe(value)
            if index % 2 == 1:  # ship home every other task
                current = worker.snapshot()
                parent.absorb(snapshot_delta(previous, current))
                previous = current
        parent.absorb(snapshot_delta(previous, worker.snapshot()))

        merged = parent.snapshot()
        expected = direct.snapshot()
        assert merged["counters"] == expected["counters"]
        got = merged["histograms"]["serve.request.seconds"]
        want = expected["histograms"]["serve.request.seconds"]
        for facet in ("count", "min", "max", "buckets"):
            assert got[facet] == want[facet]
        assert got["sum"] == pytest.approx(want["sum"])

    def test_delta_omits_unchanged_metrics(self):
        registry = MetricsRegistry()
        registry.counter("stable").inc(5)
        registry.histogram("quiet")
        before = registry.snapshot()
        registry.counter("moving").inc(2)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {"moving": 2}
        assert delta["histograms"] == {}

    def test_absorb_creates_histogram_with_matching_bounds(self):
        worker = MetricsRegistry()
        worker.histogram("fetch.attempts", bounds=(1.0, 2.0, 4.0)).observe(3.0)
        parent = MetricsRegistry()
        parent.absorb(snapshot_delta({}, worker.snapshot()))
        merged = parent.histogram("fetch.attempts")
        assert merged.bounds == (1.0, 2.0, 4.0)
        assert merged.count == 1
        assert merged.quantile(0.5) > 2.0

    def test_absorb_ignores_zero_and_negative_counter_noise(self):
        parent = MetricsRegistry()
        parent.absorb({"counters": {"a": 0, "b": -3, "c": 2}, "histograms": {}})
        snapshot = parent.snapshot()["counters"]
        assert snapshot["c"] == 2
        assert snapshot.get("b", 0) == 0


class TestTracerTrim:
    def test_trim_drops_oldest_first(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        for index in range(10):
            handle = tracer.start(f"op{index}")
            tracer.end(handle)
        dropped = tracer.trim(4)
        assert dropped == 6
        assert [span.name for span in tracer.spans] == [
            "op6",
            "op7",
            "op8",
            "op9",
        ]

    def test_trim_under_capacity_is_a_no_op(self):
        tracer = Tracer(clock=FakeClock())
        handle = tracer.start("only")
        tracer.end(handle)
        assert tracer.trim(4) == 0
        assert len(tracer.spans) == 1

    def test_trim_zero_capacity_empties(self):
        tracer = Tracer(clock=FakeClock())
        for index in range(3):
            tracer.end(tracer.start(f"s{index}"))
        assert tracer.trim(0) == 3
        assert tracer.spans == []
