"""The BYU record-boundary discovery baseline (Embley, Jiang, Ng [7]).

Section 6.7: "For the sake of performance comparison, we have implemented
all of the heuristics in [7] except for the ontology based heuristic" (OM
requires ~2 man-weeks of human ontology building per domain, which is what
Omini exists to avoid).  The remaining four heuristics are

* **HC** -- highest count (:class:`repro.core.separator.hc.HCHeuristic`),
* **IT** -- identifiable tag, fixed global list
  (:class:`repro.core.separator.it.ITHeuristic`),
* **RP** -- repeating pattern (shared with Omini),
* **SD** -- standard deviation (shared with Omini),

combined as **HTRS** via the same probabilistic fusion.  The BYU pipeline
also differs in subtree selection: it relies on the highest-fanout rule
alone (Section 4.1 -- "the entire information extraction process described
in [7] relies on the assumption that ... the subtree whose root has the
highest fan-out should contain the records"), so :class:`BYUExtractor`
wires :class:`~repro.core.subtree.fanout.HFHeuristic` in rather than
Omini's combined volume finder.
"""

from __future__ import annotations

from repro.core.pipeline import OminiExtractor
from repro.core.separator.base import SeparatorHeuristic
from repro.core.separator.combine import CombinedSeparatorFinder
from repro.core.separator.hc import HCHeuristic
from repro.core.separator.it import ITHeuristic
from repro.core.separator.rp import RPHeuristic
from repro.core.separator.sd import SDHeuristic
from repro.core.subtree.combined import CombinedSubtreeFinder


def byu_heuristics() -> list[SeparatorHeuristic]:
    """The four automatable BYU heuristics: HC, IT, RP, SD."""
    return [HCHeuristic(), ITHeuristic(), RPHeuristic(), SDHeuristic()]


def byu_combination() -> CombinedSeparatorFinder:
    """The HTRS combination (all four BYU heuristics fused)."""
    return CombinedSeparatorFinder(byu_heuristics())


def _hf_as_combined() -> CombinedSubtreeFinder:
    """HF-only subtree selection expressed as a single-dimension volume."""
    return CombinedSubtreeFinder(dimensions=("fanout",))


class BYUExtractor(OminiExtractor):
    """End-to-end extractor configured like the BYU system.

    Same Phase 1/Phase 3 machinery as Omini (the comparison isolates the
    discovery heuristics, as in the paper), but HF-only subtree selection
    and the HTRS separator combination.
    """

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("subtree_finder", _hf_as_combined())
        kwargs.setdefault("separator_finder", byu_combination())
        super().__init__(**kwargs)
