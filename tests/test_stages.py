"""Tests for the staged pipeline architecture (repro.core.stages)."""

import pickle

import pytest

from repro.core.pipeline import OminiExtractor, extract_objects
from repro.core.rules import ExtractionRule, RuleStore, StaleRuleError
from repro.core.stages import (
    ExtractionContext,
    ExtractorConfig,
    Instrumentation,
    Stage,
    StageEngine,
    cached_plan,
    discovery_plan,
)
from repro.core.stages.plan import ApplyRuleStage, ParseStage, ReadStage
from repro.tree.builder import parse_document

from tests.test_pipeline import simple_page


def make_context(**kwargs) -> ExtractionContext:
    extractor = OminiExtractor()
    return ExtractionContext(
        subtree_finder=extractor.subtree_finder,
        separator_finder=extractor.separator_finder,
        refinement=extractor.refinement,
        **kwargs,
    )


class TestStageProtocol:
    def test_discovery_plan_sequence(self):
        names = [stage.name for stage in discovery_plan()]
        assert names == [
            "choose_subtree",
            "object_separator",
            "combine_heuristics",
            "construct_objects",
            "refine_objects",
            "learn_rule",
        ]

    def test_cached_plan_sequence(self):
        names = [stage.name for stage in cached_plan()]
        assert names == ["apply_rule", "construct_objects", "refine_objects"]

    def test_every_stage_satisfies_protocol(self):
        for stage in [ReadStage(), ParseStage(), *discovery_plan(), *cached_plan()]:
            assert isinstance(stage, Stage)

    def test_timing_columns_are_table_16_17_columns(self):
        valid = {
            "read_file",
            "parse_page",
            "choose_subtree",
            "object_separator",
            "combine_heuristics",
            "construct_objects",
            None,
        }
        for stage in [ReadStage(), ParseStage(), *discovery_plan(), *cached_plan()]:
            assert stage.timing_column in valid

    def test_engine_matches_monolithic_facade(self):
        engine = StageEngine()
        result = engine.extract(make_context(source=simple_page(5)))
        facade = OminiExtractor().extract(simple_page(5))
        assert result.separator == facade.separator == "tr"
        assert [o.text() for o in result.objects] == [
            o.text() for o in facade.objects
        ]
        assert result.subtree_path == facade.subtree_path


class TestExtractorConfig:
    def test_default_config_equals_default_extractor(self):
        via_config = OminiExtractor.from_config(ExtractorConfig()).extract(
            simple_page(6)
        )
        via_default = OminiExtractor().extract(simple_page(6))
        assert via_config.separator == via_default.separator
        assert len(via_config.objects) == len(via_default.objects)

    def test_consolidates_abstention_knobs(self):
        config = ExtractorConfig(abstain_below=0.999, min_separator_count=50)
        finder = config.build_separator_finder()
        assert finder.abstain_below == 0.999
        assert finder.min_separator_count == 50
        # End to end: the extractor abstains on a page it normally answers.
        result = OminiExtractor.from_config(config).extract(simple_page(5))
        assert result.separator is None
        assert result.objects == []

    def test_consolidates_subtree_knobs(self):
        finder = ExtractorConfig(subtree_mode="volume", subtree_min_fanout=4).build_subtree_finder()
        assert finder.mode == "volume"
        assert finder.min_fanout == 4

    def test_profiles_override(self):
        config = ExtractorConfig(heuristics=("SD",), profiles={"SD": (1.0,)})
        finder = config.build_separator_finder()
        assert finder.profiles["SD"].at_rank(1) == 1.0
        assert finder.profiles["SD"].at_rank(2) == 0.0

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError, match="unknown separator heuristic"):
            ExtractorConfig(heuristics=("XX",)).build_separator_finder()

    def test_from_config_carries_separator_knobs(self):
        config = ExtractorConfig(
            heuristics=("SD", "PP"), abstain_below=0.4, min_separator_count=2
        )
        finder = OminiExtractor.from_config(config).separator_finder
        assert tuple(h.name for h in finder.heuristics) == ("SD", "PP")
        assert finder.abstain_below == 0.4
        assert finder.min_separator_count == 2

    def test_config_is_picklable(self):
        config = ExtractorConfig(profiles={"SD": (0.9, 0.1)})
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


class TestUniformTimingRows:
    """Satellite: discovery and cached runs emit the same complete row."""

    def test_discovery_row_from_file(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(simple_page(5), encoding="utf-8")
        row = OminiExtractor().extract_file(page).timings.as_milliseconds()
        for column in (
            "read_file",
            "parse_page",
            "choose_subtree",
            "object_separator",
            "combine_heuristics",
            "construct_objects",
        ):
            assert row[column] > 0, column

    def test_cached_row_from_file_has_read_and_zero_discovery(self, tmp_path):
        page = tmp_path / "page.html"
        page.write_text(simple_page(5), encoding="utf-8")
        extractor = OminiExtractor(rule_store=RuleStore())
        extractor.extract_file(page, site="s")
        warm = extractor.extract_file(page, site="s")
        assert warm.used_cached_rule
        row = warm.timings.as_milliseconds()
        # The read is timed on the cached path too (old code attached it
        # after the fact; the stage engine times it as a stage).
        assert row["read_file"] > 0
        assert row["parse_page"] > 0
        assert row["choose_subtree"] > 0
        assert row["construct_objects"] > 0
        # Skipped discovery stages are explicit zeros (Table 17 shape).
        assert row["object_separator"] == 0.0
        assert row["combine_heuristics"] == 0.0

    def test_fallback_row_reflects_only_the_discovery_run(self):
        store = RuleStore()
        store.put(
            ExtractionRule(site="s", subtree_path="html[1].body[9]", separator="tr")
        )
        extractor = OminiExtractor(rule_store=store)
        result = extractor.extract(simple_page(5), site="s")
        assert not result.used_cached_rule
        row = result.timings.as_milliseconds()
        assert row["object_separator"] > 0  # discovery actually ran
        assert row["total"] == pytest.approx(
            sum(v for k, v in row.items() if k != "total"), rel=1e-6
        )


class RecordingInstrumentation(Instrumentation):
    def __init__(self):
        self.events = []

    def on_stage_start(self, stage, ctx):
        self.events.append(("start", stage.name))

    def on_stage_end(self, stage, ctx, elapsed):
        self.events.append(("end", stage.name))
        assert elapsed >= 0

    def on_fallback(self, ctx, error):
        self.events.append(("fallback", type(error).__name__))


class TestInstrumentationHooks:
    def test_hooks_bracket_every_stage(self):
        recorder = RecordingInstrumentation()
        OminiExtractor(instrumentation=recorder).extract(simple_page(4))
        stages = [name for kind, name in recorder.events if kind == "start"]
        assert stages == [
            "parse_page",
            "choose_subtree",
            "object_separator",
            "combine_heuristics",
            "construct_objects",
            "refine_objects",
            "learn_rule",
        ]
        # Every start has a matching end, in order.
        assert recorder.events == [
            event for name in stages for event in (("start", name), ("end", name))
        ]

    def test_on_fallback_fires_on_stale_rule(self):
        recorder = RecordingInstrumentation()
        store = RuleStore()
        extractor = OminiExtractor(rule_store=store, instrumentation=recorder)
        extractor.extract(simple_page(4), site="s")
        recorder.events.clear()
        redesigned = simple_page(4).replace(
            "<table>", "<div><i>new!</i></div><table>"
        )
        extractor.extract(redesigned, site="s")
        assert ("fallback", "StaleRuleError") in recorder.events
        # The failed apply_rule started but never ended; discovery followed.
        assert ("start", "apply_rule") in recorder.events
        assert ("end", "apply_rule") not in recorder.events
        assert ("end", "choose_subtree") in recorder.events


class TestStaleRulePath:
    """Satellite: rule invalidated -> discovery fallback -> rule re-learned."""

    def test_invalidate_relearn_then_fast_path_again(self):
        store = RuleStore()
        extractor = OminiExtractor(rule_store=store)
        learned = extractor.extract(simple_page(4), site="s")
        stale = store.get("s")

        redesigned = simple_page(4).replace(
            "<table>", "<div><i>new!</i></div><table>"
        )
        healed = extractor.extract(redesigned, site="s")
        assert (learned.fallbacks, healed.fallbacks) == (0, 1)
        assert not healed.used_cached_rule
        assert len(healed.objects) == 4
        relearned = store.get("s")
        assert relearned is not None and relearned != stale

        # The re-learned rule immediately serves the fast path.
        again = extractor.extract(redesigned, site="s")
        assert again.used_cached_rule
        assert again.rule == relearned
        assert len(again.objects) == 4

    def test_stale_report_spares_a_rule_another_thread_just_learned(self):
        """A thread holding the old rule must not delete a fresh one.

        Thread-mode batches share one RuleStore: while this extraction
        applies the old rule, another thread relearns the site.  The old
        rule's staleness report loses (it is no longer the stored rule),
        so the extraction re-leases and applies the fresh rule instead of
        deleting it and rediscovering for nothing.
        """
        page = simple_page(5)
        learned = OminiExtractor().extract(page)
        fresh = ExtractionRule(
            site="s", subtree_path=learned.subtree_path, separator=learned.separator
        )
        store = RuleStore()
        store.put(
            ExtractionRule(site="s", subtree_path="html[1].body[9]", separator="tr")
        )

        class ConcurrentLearner(Instrumentation):
            """Stores the fresh rule the moment the old one is applied."""

            def on_stage_start(self, stage, ctx):
                if stage.name == "apply_rule" and store.get("s") is not fresh:
                    store.put(fresh)

        result = OminiExtractor(
            rule_store=store, instrumentation=ConcurrentLearner()
        ).extract(page, site="s")
        assert result.used_cached_rule
        assert result.rule is fresh
        assert store.get("s") is fresh
        assert len(result.objects) == len(learned.objects) == 5

    def test_apply_rule_stage_raises_stale(self):
        ctx = make_context(source=simple_page(3))
        ctx.root = parse_document(ctx.source)
        ctx.rule = ExtractionRule(
            site="s", subtree_path="html[1].body[9].div[1]", separator="tr"
        )
        with pytest.raises(StaleRuleError):
            ApplyRuleStage().run(ctx)


class TestExtractObjectsConvenience:
    """Satellite: extract_objects forwards site/rule-store/config."""

    def test_forwards_site_and_rule_store(self):
        store = RuleStore()
        objs = extract_objects(simple_page(5), site="shop", rule_store=store)
        assert len(objs) == 5
        assert store.get("shop") is not None  # the rule actually landed

    def test_second_call_uses_cached_rule(self):
        store = RuleStore()
        extract_objects(simple_page(4), site="shop", rule_store=store)
        rule = store.get("shop")
        objs = extract_objects(simple_page(7), site="shop", rule_store=store)
        assert len(objs) == 7
        assert store.get("shop") == rule  # reused, not re-learned

    def test_accepts_extractor_config(self):
        config = ExtractorConfig(abstain_below=0.999, min_separator_count=50)
        assert extract_objects(simple_page(5), config=config) == []
        assert len(extract_objects(simple_page(5), config=ExtractorConfig())) == 5

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(TypeError, match="not both"):
            extract_objects(
                simple_page(3),
                config=ExtractorConfig(),
                refinement=None,
            )

    def test_classic_kwargs_still_work(self):
        objs = extract_objects(simple_page(6))
        assert len(objs) == 6
