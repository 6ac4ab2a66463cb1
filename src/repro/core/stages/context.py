"""The state that flows through the staged pipeline.

:class:`ExtractionContext` is the single mutable object handed from stage to
stage: inputs (raw source, file path, site key), the strategy components
(subtree finder, separator finder, refinement thresholds, rule store),
every intermediate artifact (parsed tree, chosen subtree, per-heuristic
rankings, separator, candidate objects), and the per-phase wall-clock
bookkeeping.  A finished context converts to the public
:class:`ExtractionResult` via :meth:`ExtractionContext.to_result`.

:class:`PhaseTimings` lives here (and is re-exported by
:mod:`repro.core.pipeline` for backward compatibility): its fields are
exactly the columns of Tables 16 and 17 (read file, parse page, choose
subtree, object separator, combine heuristics, construct objects, total),
so the timing benches print rows in the paper's own format.  Stages declare
which column they charge via ``timing_column``, and the
:class:`~repro.core.stages.engine.StageEngine` fills the row -- uniformly
for discovery runs and cached-rule runs alike (a cached run simply leaves
the skipped discovery columns at 0.0, which is the Table 17 shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.objects import ExtractedObject
from repro.core.refinement import RefinementConfig
from repro.core.rules import ExtractionRule, RuleSource
from repro.core.separator.base import CandidateContext, RankedTag
from repro.tree.node import TagNode
from repro.tree.paths import path_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.separator.combine import CombinedSeparatorFinder
    from repro.core.subtree.combined import CombinedSubtreeFinder


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline stage (Tables 16/17 columns)."""

    read_file: float = 0.0
    parse_page: float = 0.0
    choose_subtree: float = 0.0
    object_separator: float = 0.0
    combine_heuristics: float = 0.0
    construct_objects: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.read_file
            + self.parse_page
            + self.choose_subtree
            + self.object_separator
            + self.combine_heuristics
            + self.construct_objects
        )

    def as_milliseconds(self) -> dict[str, float]:
        """The Table 16/17 row for this run, in milliseconds."""
        return {
            "read_file": self.read_file * 1e3,
            "parse_page": self.parse_page * 1e3,
            "choose_subtree": self.choose_subtree * 1e3,
            "object_separator": self.object_separator * 1e3,
            "combine_heuristics": self.combine_heuristics * 1e3,
            "construct_objects": self.construct_objects * 1e3,
            "total": self.total * 1e3,
        }


#: Columns that belong to the discovery phases and must be wiped when a
#: stale cached rule forces a rerun (read/parse survive: the page is fine).
DISCOVERY_COLUMNS = (
    "choose_subtree",
    "object_separator",
    "combine_heuristics",
    "construct_objects",
)

#: Prologue columns a fallback must *preserve*: read/parse ran once, before
#: plan selection, and their cost belongs to the final row either way.
PROLOGUE_COLUMNS = ("read_file", "parse_page")


def fallback_wipe_columns(timings: PhaseTimings) -> tuple[str, ...]:
    """Every timing column a stale-rule fallback must reset.

    Derived from the :class:`PhaseTimings` dataclass fields instead of a
    hand-maintained list: the engine *accumulates* each stage's time into
    its column, which is only safe if the wipe covers every column a
    cached-plan stage could have charged.  Enumerating the fields makes
    that hold by construction, even when a new column or a new cached
    stage is added later.
    """
    return tuple(
        f.name for f in fields(timings) if f.name not in PROLOGUE_COLUMNS
    )


@dataclass
class ExtractionResult:
    """Everything the pipeline learned about one page."""

    objects: list[ExtractedObject]
    subtree: TagNode
    separator: str | None
    candidate_objects: int
    separator_ranking: list[RankedTag]
    timings: PhaseTimings
    used_cached_rule: bool = False
    rule: ExtractionRule | None = None
    #: Stale-rule fallbacks this extraction took.  More than one happens
    #: only when threads race to relearn the same site.
    fallbacks: int = 0

    @property
    def subtree_path(self) -> str:
        return path_of(self.subtree)


@dataclass
class ExtractionContext:
    """Mutable state threaded through every stage of one extraction.

    Inputs are set by the caller (``source`` or ``path``, optionally
    ``site``); components are the concrete Phase 2/3 strategies; artifact
    fields start empty and are filled by the stages that own them.
    """

    # -- inputs ----------------------------------------------------------
    source: str | None = None
    path: str | Path | None = None
    site: str | None = None

    # -- components ------------------------------------------------------
    subtree_finder: "CombinedSubtreeFinder | None" = None
    separator_finder: "CombinedSeparatorFinder | None" = None
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    #: Where the cached-rule plan leases, heals and learns rules: a plain
    #: :class:`~repro.core.rules.RuleStore`, or the serving tier's
    #: single-flight :class:`~repro.serve.rulecache.SharedRuleCache`.
    rule_store: RuleSource | None = None
    #: Optional parse override used by :class:`~repro.core.stages.plan.
    #: ParseStage` in place of ``parse_document`` -- the serve runtime
    #: injects an incremental re-parser here so a near-miss in the tree
    #: cache patches the cached tree instead of re-parsing from scratch,
    #: while the work still lands in the ``parse_page`` timing column.
    parser: Callable[[str], TagNode] | None = None

    # -- artifacts -------------------------------------------------------
    root: TagNode | None = None
    subtree: TagNode | None = None
    candidate_context: CandidateContext | None = None
    #: ``[(heuristic, ranking), ...]`` produced by the separator stage.
    per_heuristic: list = field(default_factory=list)
    separator_ranking: list[RankedTag] = field(default_factory=list)
    separator: str | None = None
    construction_mode: str = "auto"
    candidates: list[ExtractedObject] = field(default_factory=list)
    objects: list[ExtractedObject] = field(default_factory=list)
    rule: ExtractionRule | None = None
    used_cached_rule: bool = False

    # -- bookkeeping -----------------------------------------------------
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    fallbacks: int = 0

    def reset_for_discovery(self) -> None:
        """Drop everything a failed cached-rule plan produced.

        Called between a :class:`~repro.core.rules.StaleRuleError` and the
        fallback discovery plan so the rerun starts from a clean slate
        (parse and read artifacts are kept -- the page itself is fine),
        and the final timing row reflects only the run that produced the
        objects.  It is the engine's only fallback point, so it also
        counts the fallback.
        """
        self.fallbacks += 1
        for column in fallback_wipe_columns(self.timings):
            setattr(self.timings, column, 0.0)
        self.subtree = None
        self.candidate_context = None
        self.per_heuristic = []
        self.separator_ranking = []
        self.separator = None
        self.construction_mode = "auto"
        self.candidates = []
        self.objects = []
        self.rule = None
        self.used_cached_rule = False

    def to_result(self) -> ExtractionResult:
        """Freeze the finished context into the public result object."""
        assert self.subtree is not None, "pipeline finished without a subtree"
        return ExtractionResult(
            objects=self.objects,
            subtree=self.subtree,
            separator=self.separator,
            candidate_objects=len(self.candidates),
            separator_ranking=self.separator_ranking,
            timings=self.timings,
            used_cached_rule=self.used_cached_rule,
            rule=self.rule,
            fallbacks=self.fallbacks,
        )
