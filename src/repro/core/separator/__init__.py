"""Object separator extraction (Sections 5 and 6 of the paper).

Given the minimal object-rich subtree, rank its candidate separator tags.
Candidates are the tag names of the subtree's *child* nodes (Section 5:
"it is sufficient to consider only the child nodes in the chosen subtree").

Five Omini heuristics, each producing an independent ranked list:

* :class:`SDHeuristic`  -- standard deviation of inter-occurrence distance
  (Section 5.1, adopted from Embley et al.);
* :class:`RPHeuristic`  -- repeating tag-pair patterns (Section 5.2, ditto);
* :class:`IPSHeuristic` -- identifiable path separator tags, keyed by the
  subtree's root tag (Section 5.3, Omini's extension of Embley's IT);
* :class:`SBHeuristic`  -- highest-count sibling tag pairs (Section 5.4, new);
* :class:`PPHeuristic`  -- repeated partial paths (Section 5.5, new);

plus the two BYU baseline heuristics used in the Section 6.7 comparison:

* :class:`HCHeuristic`  -- highest count (Embley et al.);
* :class:`ITHeuristic`  -- identifiable tag with a fixed global list.

:class:`CombinedSeparatorFinder` (Section 6) fuses any subset of ranked lists
through the inclusion-exclusion probability law using per-heuristic empirical
rank-success distributions.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.separator.base": (
            "CandidateContext", "RankedTag", "SeparatorHeuristic", "build_context",
        ),
        "repro.core.separator.combine": (
            "ALL_COMBINATIONS", "CombinedSeparatorFinder", "HeuristicProfile",
            "combination_name", "compound_probability",
        ),
        "repro.core.separator.hc": ("HCHeuristic",),
        "repro.core.separator.ips": ("IPS_LIST", "IPS_SUBTREE_TAGS", "IPSHeuristic"),
        "repro.core.separator.it": ("IT_LIST", "ITHeuristic"),
        "repro.core.separator.pp": ("PPHeuristic",),
        "repro.core.separator.rp": ("RPHeuristic",),
        "repro.core.separator.sb": ("SBHeuristic",),
        "repro.core.separator.sd": ("SDHeuristic",),
    },
)

__all__ = [
    "ALL_COMBINATIONS",
    "CandidateContext",
    "CombinedSeparatorFinder",
    "HCHeuristic",
    "HeuristicProfile",
    "IPSHeuristic",
    "IPS_LIST",
    "IPS_SUBTREE_TAGS",
    "ITHeuristic",
    "IT_LIST",
    "PPHeuristic",
    "RPHeuristic",
    "RankedTag",
    "SBHeuristic",
    "SDHeuristic",
    "SeparatorHeuristic",
    "build_context",
    "combination_name",
    "compound_probability",
]
