"""Tests for the concurrent batch engine (repro.core.batch)."""

import pytest

from repro.core.batch import (
    BatchExtractor,
    FailedExtraction,
    PageTask,
    parallel_map,
)
from repro.core.rules import RuleStore
from repro.core.stages import ExtractorConfig
from repro.corpus import CorpusGenerator, TEST_SITES
from repro.observe import TracingInstrumentation

from tests.test_pipeline import simple_page


@pytest.fixture(scope="module")
def corpus_pages():
    """A small layout-diverse slice: 2 pages from each of 6 test sites."""
    return CorpusGenerator(max_pages_per_site=2).generate(TEST_SITES[:6])


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(lambda x: x * x, items, workers=4) == [
            x * x for x in items
        ]

    def test_sequential_when_one_worker(self):
        assert parallel_map(str, [1, 2, 3], workers=1) == ["1", "2", "3"]

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2], workers=2)


class TestParityWithSequential:
    """Acceptance: workers=4 is output-identical to sequential."""

    def test_objects_and_separators_identical(self, corpus_pages):
        tasks = [PageTask(source=p.html) for p in corpus_pages]
        sequential = BatchExtractor().extract_many(tasks, workers=1)
        parallel = BatchExtractor().extract_many(tasks, workers=4)
        assert len(sequential) == len(parallel) == len(tasks)
        for seq, par in zip(sequential.results, parallel.results, strict=True):
            assert seq.separator == par.separator
            assert seq.subtree_path == par.subtree_path
            assert [o.text() for o in seq.objects] == [
                o.text() for o in par.objects
            ]

    def test_plain_html_strings_accepted(self):
        outcome = BatchExtractor().extract_many(
            [simple_page(3), simple_page(5)], workers=2
        )
        assert [len(r.objects) for r in outcome.results] == [3, 5]


class TestErrorIsolation:
    """Satellite: a page that raises yields FailedExtraction, not a crash."""

    def test_missing_file_is_isolated(self):
        outcome = BatchExtractor().extract_many(
            [
                PageTask(source=simple_page(4)),
                PageTask(path="/nonexistent/page.html"),
                PageTask(source=simple_page(6)),
            ],
            workers=2,
        )
        assert [len(getattr(r, "objects", [])) for r in outcome.succeeded] == [4, 6]
        (failure,) = outcome.failures
        assert isinstance(failure, FailedExtraction)
        assert failure.page == "/nonexistent/page.html"
        assert failure.error_type == "FileNotFoundError"
        assert not failure  # failures are falsy, so `if result:` filters

    def test_page_that_raises_during_parse(self):
        # A non-string source explodes inside the parse stage.
        outcome = BatchExtractor().extract_many(
            [PageTask(source=12345, page_id="bad"), PageTask(source=simple_page(3))],
        )
        (failure,) = outcome.failures
        assert failure.page == "bad"
        assert len(outcome.succeeded) == 1
        assert outcome.stats.failed == 1
        assert outcome.stats.succeeded == 1

    def test_failure_slot_preserves_input_order(self):
        outcome = BatchExtractor().extract_many(
            [simple_page(2), PageTask(source=None, path=None), simple_page(3)],
            workers=3,
        )
        assert not isinstance(outcome.results[0], FailedExtraction)
        assert isinstance(outcome.results[1], FailedExtraction)
        assert not isinstance(outcome.results[2], FailedExtraction)


class TestRuleReuse:
    def test_per_site_rules_hit_fast_path(self, corpus_pages):
        tasks = [PageTask(source=p.html, site=p.site) for p in corpus_pages]
        outcome = BatchExtractor(rule_store=RuleStore()).extract_many(tasks)
        # 2 pages per site: at least the second of each can reuse the rule.
        assert outcome.stats.cached_rule_hits > 0
        assert outcome.stats.cached_rule_hits <= len(tasks) - 6

    def test_rule_store_shared_across_batches(self):
        store = RuleStore()
        batch = BatchExtractor(rule_store=store)
        batch.extract_many([PageTask(source=simple_page(4), site="s")])
        outcome = batch.extract_many([PageTask(source=simple_page(9), site="s")])
        assert outcome.stats.cached_rule_hits == 1
        assert len(outcome.results[0].objects) == 9

    def test_stale_rule_fallback_counted(self):
        store = RuleStore()
        adapter = TracingInstrumentation()
        batch = BatchExtractor(rule_store=store, instrumentation=adapter)
        batch.extract_many([PageTask(source=simple_page(4), site="s")])
        redesigned = simple_page(4).replace(
            "<table>", "<div><i>new!</i></div><table>"
        )
        outcome = batch.extract_many([PageTask(source=redesigned, site="s")])
        (result,) = outcome.results
        assert (
            outcome.stats.fallbacks
            == result.fallbacks
            == adapter.metrics.counter("fallback.count").value
            == 1
        )
        assert outcome.stats.cached_rule_hits == 0
        assert len(outcome.results[0].objects) == 4


class TestExtractFiles:
    def test_site_from_dir_enables_rules(self, tmp_path):
        site_dir = tmp_path / "shop.example"
        site_dir.mkdir()
        paths = []
        for index in range(3):
            path = site_dir / f"page_{index}.html"
            path.write_text(simple_page(4 + index), encoding="utf-8")
            paths.append(path)
        batch = BatchExtractor(rule_store=RuleStore())
        outcome = batch.extract_files(paths, site_from_dir=True)
        assert outcome.stats.cached_rule_hits == 2  # pages 2 and 3
        for result in outcome.results:
            assert result.timings.read_file > 0  # uniform row incl. read

    def test_throughput_counters(self, tmp_path):
        path = tmp_path / "p.html"
        path.write_text(simple_page(5), encoding="utf-8")
        outcome = BatchExtractor().extract_files([path, path])
        assert outcome.stats.pages == 2
        assert outcome.stats.elapsed > 0
        assert outcome.stats.pages_per_second > 0
        as_dict = outcome.stats.as_dict()
        assert as_dict["pages"] == 2 and as_dict["failed"] == 0


class TestConfigPlumbsThrough:
    def test_abstaining_config_applies_to_every_page(self):
        config = ExtractorConfig(abstain_below=0.999, min_separator_count=50)
        outcome = BatchExtractor(config).extract_many(
            [simple_page(4), simple_page(6)]
        )
        assert all(r.separator is None for r in outcome.results)
        assert all(r.objects == [] for r in outcome.results)
