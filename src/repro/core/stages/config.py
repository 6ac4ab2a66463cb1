"""One configuration object for the whole extraction pipeline.

Before this module existed the pipeline's knobs were scattered across three
layers: :class:`~repro.core.pipeline.OminiExtractor` held the strategy
objects, :class:`~repro.core.separator.CombinedSeparatorFinder` held the
abstention policy (``abstain_below``, ``min_separator_count``), and
:class:`~repro.core.refinement.RefinementConfig` held the Phase 3 filters.
:class:`ExtractorConfig` consolidates all of them into a single declarative,
picklable value, so a batch, a serve worker process and an evaluation lane
all build their extractors from the same description.

Heuristics are named by their paper acronyms (``"SD"``, ``"RP"``, ...) and
instantiated through :data:`HEURISTIC_REGISTRY`; profiles are plain
name -> probability-tuple maps (Table 10/13 shape).  ``build_extractor()``
materializes the classic facade; the stage engine consumes the built
components through :class:`~repro.core.stages.context.ExtractionContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.core.refinement import RefinementConfig
from repro.core.separator import (
    CombinedSeparatorFinder,
    HCHeuristic,
    HeuristicProfile,
    IPSHeuristic,
    ITHeuristic,
    PPHeuristic,
    RPHeuristic,
    SBHeuristic,
    SDHeuristic,
)
from repro.core.subtree import CombinedSubtreeFinder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import OminiExtractor

#: Paper acronym -> heuristic factory (the five Omini heuristics plus the
#: two BYU baseline heuristics, so Table 19/20 configurations are also
#: expressible as plain config values).
HEURISTIC_REGISTRY: dict[str, Callable] = {
    "SD": SDHeuristic,
    "RP": RPHeuristic,
    "IPS": IPSHeuristic,
    "PP": PPHeuristic,
    "SB": SBHeuristic,
    "HC": HCHeuristic,
    "IT": ITHeuristic,
}

#: The paper's winning RSIPB combination, in the order the paper lists it.
DEFAULT_HEURISTICS: tuple[str, ...] = ("RP", "SD", "IPS", "PP", "SB")


@dataclass
class ExtractorConfig:
    """Every tunable of the three-phase pipeline, in one place.

    The defaults reproduce the paper's best configuration (rank-product
    subtree combination, RSIPB separator fusion with Table 10 profiles,
    permissive refinement) -- ``ExtractorConfig()`` behaves identically to
    ``OminiExtractor()``.
    """

    # -- Phase 2 step 1: object-rich subtree (Section 4) ------------------
    subtree_mode: str = "rank_product"
    subtree_min_fanout: int = 2
    subtree_dimensions: tuple[str, ...] = ("fanout", "size_increase", "tags")
    subtree_rerank_window: int = 10

    # -- Phase 2 step 2: object separator (Sections 5-6) ------------------
    #: Heuristic acronyms to combine (keys of :data:`HEURISTIC_REGISTRY`).
    heuristics: tuple[str, ...] = DEFAULT_HEURISTICS
    #: Name -> rank-probability tuple overriding the Table 10 defaults
    #: (the evaluation harness passes corpus-estimated distributions).
    profiles: dict[str, tuple[float, ...]] = field(default_factory=dict)
    #: Abstain when the best compound probability falls below this value
    #: (Section 6.5 operating point; 0.0 always answers).
    abstain_below: float = 0.0
    #: Abstain when the winning tag occurs fewer times than this.
    min_separator_count: int = 3

    # -- Phase 3: construction + refinement (Section 3) -------------------
    refinement: RefinementConfig = field(default_factory=RefinementConfig)

    # -- component builders ----------------------------------------------

    def build_subtree_finder(self) -> CombinedSubtreeFinder:
        return CombinedSubtreeFinder(
            mode=self.subtree_mode,
            min_fanout=self.subtree_min_fanout,
            dimensions=self.subtree_dimensions,
            rerank_window=self.subtree_rerank_window,
        )

    def build_separator_finder(self) -> CombinedSeparatorFinder:
        members = []
        for name in self.heuristics:
            factory = HEURISTIC_REGISTRY.get(name)
            if factory is None:
                raise ValueError(
                    f"unknown separator heuristic {name!r}; "
                    f"known: {sorted(HEURISTIC_REGISTRY)}"
                )
            members.append(factory())
        profiles = {
            name: HeuristicProfile(name, tuple(probabilities))
            for name, probabilities in self.profiles.items()
        }
        return CombinedSeparatorFinder(
            members,
            profiles=profiles,
            abstain_below=self.abstain_below,
            min_separator_count=self.min_separator_count,
        )

    def build_refinement(self) -> RefinementConfig:
        return replace(self.refinement)

    def build_extractor(self, *, rule_store=None) -> "OminiExtractor":
        """Materialize the classic :class:`OminiExtractor` facade."""
        from repro.core.pipeline import OminiExtractor

        return OminiExtractor(
            subtree_finder=self.build_subtree_finder(),
            separator_finder=self.build_separator_finder(),
            refinement=self.build_refinement(),
            rule_store=rule_store,
        )

    # -- reverse mapping --------------------------------------------------

    @classmethod
    def from_extractor(cls, extractor: "OminiExtractor") -> "ExtractorConfig":
        """Best-effort config snapshot of an assembled extractor.

        Exact for extractors whose heuristics come from
        :data:`HEURISTIC_REGISTRY`; custom heuristic *instances* cannot be
        named declaratively and raise ``ValueError``.
        """
        subtree = extractor.subtree_finder
        separator = extractor.separator_finder
        unknown = [
            h.name for h in separator.heuristics if h.name not in HEURISTIC_REGISTRY
        ]
        if unknown:
            raise ValueError(
                f"heuristics {unknown} are not registry-known; "
                "pass components to OminiExtractor directly instead"
            )
        return cls(
            subtree_mode=subtree.mode,
            subtree_min_fanout=subtree.min_fanout,
            subtree_dimensions=tuple(subtree.dimensions),
            subtree_rerank_window=subtree.rerank_window,
            heuristics=tuple(h.name for h in separator.heuristics),
            profiles={
                name: tuple(profile.probabilities)
                for name, profile in separator.profiles.items()
            },
            abstain_below=separator.abstain_below,
            min_separator_count=separator.min_separator_count,
            refinement=replace(extractor.refinement),
        )
