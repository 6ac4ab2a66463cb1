"""Batch-level observability: a concurrency stress test and fetch counters.

Every count is read from the one telemetry sink, the attached
:class:`TracingInstrumentation`'s metrics registry, and must be exact
under 8 worker threads, not approximately right.
"""

import pytest

from repro.core.batch import BatchExtractor, PageTask
from repro.core.rules import RuleStore
from repro.corpus import CorpusGenerator, TEST_SITES
from repro.observe import TracingInstrumentation

from tests.test_pipeline import simple_page


@pytest.mark.slow
class TestConcurrencyStress:
    """8 workers over a 200-page corpus: exact totals, well-formed trace."""

    WORKERS = 8
    PAGES = 200

    @pytest.fixture(scope="class")
    def stress_run(self):
        # Generate a comfortable surplus across all 15 sites (some sites
        # cap below the requested per-site count), then take exactly 200.
        pages = CorpusGenerator(max_pages_per_site=25).generate(TEST_SITES)
        assert len(pages) >= self.PAGES
        tasks = [
            PageTask(source=page.html, site=page.site, page_id=f"p{i}")
            for i, page in enumerate(pages[: self.PAGES])
        ]
        assert len(tasks) == self.PAGES
        adapter = TracingInstrumentation()
        batch = BatchExtractor(rule_store=RuleStore(), instrumentation=adapter)
        outcome = batch.extract_many(tasks, workers=self.WORKERS)
        return tasks, adapter, outcome

    def test_exact_page_and_extract_totals(self, stress_run):
        tasks, adapter, outcome = stress_run
        metrics = adapter.metrics
        # Exact, not approximate: every started page finished exactly once.
        assert metrics.histogram("page.seconds").count == self.PAGES
        assert (
            metrics.counter("page.success").value + metrics.counter("page.error").value
            == self.PAGES
        )
        assert metrics.histogram("extract.seconds").count == self.PAGES
        assert len(outcome.results) == self.PAGES
        assert metrics.counter("extract.pages").value + metrics.counter(
            "extract.errors"
        ).value == self.PAGES

    def test_exact_stage_call_totals(self, stress_run):
        _, adapter, outcome = stress_run
        calls = {
            name: adapter.metrics.histogram(f"stage.{name}.seconds").count
            for name in ("parse_page", "construct_objects")
        }
        # Every successful page parses exactly once, constructs exactly once.
        assert calls["parse_page"] == outcome.stats.succeeded + outcome.stats.failed
        assert calls["construct_objects"] >= outcome.stats.succeeded

    def test_no_orphaned_or_duplicated_spans(self, stress_run):
        _, adapter, outcome = stress_run
        spans = adapter.tracer.spans
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), "duplicated span ids"
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in by_id, f"orphaned span {span.name}"
        page_spans = [s for s in spans if s.name == "page"]
        assert len(page_spans) == self.PAGES
        assert all(s.parent_id is None for s in page_spans)
        # No span was left dangling by a worker thread.
        assert all(s.status in ("ok", "error") for s in spans)

    def test_trace_groups_one_page_per_trace_id(self, stress_run):
        _, adapter, _ = stress_run
        spans = adapter.tracer.spans
        trace_ids = {s.trace_id for s in spans if s.name == "page"}
        assert len(trace_ids) == self.PAGES
        for span in spans:
            assert span.trace_id in trace_ids


class TestFetchCountersThroughBatch:
    def test_cache_and_fetch_counters_exact(self, tmp_path):
        from repro.fetch import CachingFetcher
        from repro.fetch.base import StaticFetcher

        adapter = TracingInstrumentation()
        inner = StaticFetcher({f"http://s.test/{i}": simple_page(4) for i in range(4)})
        fetcher = CachingFetcher(
            inner, tmp_path / "cache", observer=adapter
        )
        batch = BatchExtractor(instrumentation=adapter, fetcher=fetcher)
        urls = [f"http://s.test/{i}" for i in range(4)]
        batch.extract_urls(urls, site="s.test", workers=2)
        batch.extract_urls(urls, site="s.test", workers=2)  # all hits now
        assert adapter.metrics.counter("cache.misses").value == 4
        assert adapter.metrics.counter("cache.hits").value == 4
        # A cache hit is a complete fetch: the hit path reports through the
        # same fetch hooks, with its disk-read latency on the result.
        assert adapter.metrics.counter("fetch.requests").value == 4
        assert adapter.metrics.histogram("fetch.cache.seconds").count == 4
        hit_spans = [
            s
            for s in adapter.tracer.spans
            if s.name == "fetch" and s.attributes.get("from_cache")
        ]
        assert len(hit_spans) == 4
        assert all(s.duration > 0 for s in hit_spans)
