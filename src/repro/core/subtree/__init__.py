"""Object-rich subtree extraction (Section 4 of the paper).

Given the tag tree of a page, locate the *minimal subtree* containing all the
objects of interest.  Three independent heuristics rank every subtree:

* :class:`~repro.core.subtree.fanout.HFHeuristic` -- highest fanout (Section
  4.1, adopted from Embley et al.);
* :class:`~repro.core.subtree.size_increase.GSIHeuristic` -- greatest size
  increase (Section 4.2, new in Omini);
* :class:`~repro.core.subtree.tag_count.LTCHeuristic` -- largest tag count
  with the ancestor re-ranking step (Section 4.3, new in Omini);

and :class:`~repro.core.subtree.combined.CombinedSubtreeFinder` merges them
by multi-dimensional volume (Section 4.4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.subtree.base": (
            "RankedSubtree", "SubtreeHeuristic", "candidate_subtrees",
        ),
        "repro.core.subtree.combined": ("CombinedSubtreeFinder",),
        "repro.core.subtree.fanout": ("HFHeuristic",),
        "repro.core.subtree.size_increase": ("GSIHeuristic",),
        "repro.core.subtree.tag_count": ("LTCHeuristic",),
    },
)

__all__ = [
    "CombinedSubtreeFinder",
    "GSIHeuristic",
    "HFHeuristic",
    "LTCHeuristic",
    "RankedSubtree",
    "SubtreeHeuristic",
    "candidate_subtrees",
]
