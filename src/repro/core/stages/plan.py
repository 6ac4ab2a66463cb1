"""The pipeline stages and the plans that sequence them.

Each stage is one Figure 3 box with a uniform surface: a ``name``, the
Table 16/17 ``timing_column`` it charges (None = untimed), and
``run(ctx)`` mutating the shared
:class:`~repro.core.stages.context.ExtractionContext`.  Two plans cover the
paper's two execution modes:

* :func:`discovery_plan` -- the full Phase 2 + Phase 3 sequence
  (``SubtreeStage -> SeparatorStage -> CombineStage -> ConstructStage ->
  RefineStage -> LearnRuleStage``), Table 16;
* :func:`cached_plan` -- the Section 6.6 fast path
  (``ApplyRuleStage -> ConstructStage -> RefineStage``), Table 17.  The
  fast path is *the same machinery* with a different plan, not a parallel
  code path: construction and refinement are literally the same stage
  objects in both plans.

Read/parse (:class:`ReadStage`, :class:`ParseStage`) are shared prologue
stages the engine runs before selecting a plan, so both modes emit the
complete, uniform timing row the benches expect.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.objects import construct_objects
from repro.core.refinement import refine_objects
from repro.core.rules import ExtractionRule
from repro.core.separator.base import RankedTag, build_context
from repro.core.stages.context import ExtractionContext
from repro.tree.builder import parse_document
from repro.tree.paths import path_of


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: a name, a timing column, and a ``run`` method."""

    #: Stable identifier, used by instrumentation and progress reporting.
    name: str
    #: Which :class:`PhaseTimings` field this stage's wall-clock charges
    #: (several stages may share a column; None = not timed).
    timing_column: str | None

    def run(self, ctx: ExtractionContext) -> None:
        """Advance the context; raise to abort the plan."""
        ...


class ReadStage:
    """Phase 1 prologue: read ``ctx.path`` into ``ctx.source`` (Table 16 col 1)."""

    name = "read_file"
    timing_column = "read_file"

    def run(self, ctx: ExtractionContext) -> None:
        assert ctx.path is not None, "ReadStage needs ctx.path"
        with open(ctx.path, "r", encoding="utf-8", errors="replace") as handle:
            ctx.source = handle.read()


class ParseStage:
    """Phase 1: one fused pass from ``ctx.source`` to the tag tree.

    Uses ``ctx.parser`` when the caller injected one (the serve runtime's
    incremental re-parser); either way the time lands in the
    ``parse_page`` column of Tables 16/17.
    """

    name = "parse_page"
    timing_column = "parse_page"

    def run(self, ctx: ExtractionContext) -> None:
        assert ctx.source is not None, "ParseStage needs ctx.source"
        parser = ctx.parser
        ctx.root = (
            parser(ctx.source) if parser is not None else parse_document(ctx.source)
        )


class SubtreeStage:
    """Phase 2 step 1: choose the minimal object-rich subtree (Section 4)."""

    name = "choose_subtree"
    timing_column = "choose_subtree"

    def run(self, ctx: ExtractionContext) -> None:
        assert ctx.root is not None and ctx.subtree_finder is not None
        ctx.subtree = ctx.subtree_finder.choose(ctx.root)


class SeparatorStage:
    """Phase 2 step 2a: run each heuristic's ranking (Table 16 col 4)."""

    name = "object_separator"
    timing_column = "object_separator"

    def run(self, ctx: ExtractionContext) -> None:
        assert ctx.subtree is not None and ctx.separator_finder is not None
        ctx.candidate_context = build_context(ctx.subtree)
        ctx.per_heuristic = [
            (heuristic, heuristic.rank(ctx.candidate_context))
            for heuristic in ctx.separator_finder.heuristics
        ]


class CombineStage:
    """Phase 2 step 2b: fuse the rankings probabilistically (Section 6).

    Applies the Section 6.5 abstention policy: no answer when the best
    compound probability falls below the finder's ``abstain_below`` or the
    winning tag occurs fewer than ``min_separator_count`` times.
    """

    name = "combine_heuristics"
    timing_column = "combine_heuristics"

    def run(self, ctx: ExtractionContext) -> None:
        assert ctx.candidate_context is not None and ctx.separator_finder is not None
        finder = ctx.separator_finder
        rank_maps = {
            heuristic.name: {
                entry.tag: index + 1 for index, entry in enumerate(ranking)
            }
            for heuristic, ranking in ctx.per_heuristic
        }
        scored: list[RankedTag] = []
        for tag in ctx.candidate_context.candidate_tags:
            probability = 1.0
            for heuristic, _ in ctx.per_heuristic:
                rank = rank_maps[heuristic.name].get(tag)
                probability *= 1.0 - finder.profiles[heuristic.name].at_rank(rank)
            probability = 1.0 - probability
            if probability > 0:
                scored.append(RankedTag(tag, probability))
        scored.sort(key=lambda entry: -entry.score)
        ctx.separator_ranking = scored

        separator = scored[0].tag if scored else None
        if separator is not None and (
            scored[0].score < finder.abstain_below
            or ctx.candidate_context.counts.get(separator, 0)
            < finder.min_separator_count
        ):
            separator = None  # the finder abstains (Section 6.5)
        ctx.separator = separator


class ConstructStage:
    """Phase 3 step 1: split the subtree into candidate objects.

    Shared by both plans: in a cached run :class:`ApplyRuleStage` has
    already set ``ctx.separator`` and ``ctx.construction_mode`` from the
    stored rule, so construction is literally the same code either way.
    """

    name = "construct_objects"
    timing_column = "construct_objects"

    def run(self, ctx: ExtractionContext) -> None:
        if ctx.separator is None:
            ctx.candidates = []
            return
        assert ctx.subtree is not None
        ctx.candidates = construct_objects(
            ctx.subtree, ctx.separator, mode=ctx.construction_mode
        )


class RefineStage:
    """Phase 3 step 2: drop non-conforming candidates (Section 3 filters).

    Charges the same ``construct_objects`` column as :class:`ConstructStage`
    -- the paper times construction and refinement as one number.
    """

    name = "refine_objects"
    timing_column = "construct_objects"

    def run(self, ctx: ExtractionContext) -> None:
        if ctx.separator is None:
            ctx.objects = []
            return
        ctx.objects = refine_objects(ctx.candidates, ctx.refinement)


class ApplyRuleStage:
    """Section 6.6 fast path: resolve the cached rule instead of discovery.

    Raises :class:`~repro.core.rules.StaleRuleError` when the stored path
    no longer resolves or the separator vanished; the engine catches it,
    reports the rule stale, and falls back to :func:`discovery_plan`.
    """

    name = "apply_rule"
    timing_column = "choose_subtree"

    def run(self, ctx: ExtractionContext) -> None:
        assert ctx.root is not None and ctx.rule is not None
        ctx.subtree = ctx.rule.apply(ctx.root)  # raises StaleRuleError
        ctx.separator = ctx.rule.separator
        ctx.construction_mode = ctx.rule.construction_mode
        ctx.used_cached_rule = True


class LearnRuleStage:
    """Build the rule discovery implies (untimed housekeeping).

    Sets ``ctx.rule`` for the engine to publish to the context's rule
    source; no-op without a rule source + site key, or when discovery
    abstained.
    """

    name = "learn_rule"
    timing_column = None

    def run(self, ctx: ExtractionContext) -> None:
        if ctx.site is None or ctx.rule_store is None or not ctx.separator:
            return
        assert ctx.subtree is not None
        ctx.rule = ExtractionRule(
            site=ctx.site,
            subtree_path=path_of(ctx.subtree),
            separator=ctx.separator,
        )


def discovery_plan() -> list[Stage]:
    """The full Phase 2 + Phase 3 sequence (Table 16 configuration)."""
    return [
        SubtreeStage(),
        SeparatorStage(),
        CombineStage(),
        ConstructStage(),
        RefineStage(),
        LearnRuleStage(),
    ]


def cached_plan() -> list[Stage]:
    """The cached-rule fast path (Table 17 configuration)."""
    return [ApplyRuleStage(), ConstructStage(), RefineStage()]
