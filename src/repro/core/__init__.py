"""Omini core: the paper's primary contribution.

Three-phase object extraction (Figure 3 of the paper):

* Phase 1 lives in :mod:`repro.html` / :mod:`repro.tree` (prepare & parse).
* Phase 2 step 1 -- object-rich subtree extraction -- in
  :mod:`repro.core.subtree` (Section 4: HF, GSI, LTC, compound volume).
* Phase 2 step 2 -- object separator extraction -- in
  :mod:`repro.core.separator` (Section 5: SD, RP, IPS, SB, PP; Section 6:
  the probabilistic combination).
* Phase 3 -- candidate object construction and refinement -- in
  :mod:`repro.core.objects` and :mod:`repro.core.refinement`.

:class:`repro.core.pipeline.OminiExtractor` ties the phases together and is
the main public entry point; :mod:`repro.core.rules` adds the cached
extraction-rule fast path of Section 6.6.  The phases themselves run as an
explicit staged pipeline (:mod:`repro.core.stages`): a :class:`Stage`
protocol, an :class:`ExtractorConfig` consolidating every knob, and
pluggable instrumentation.  :class:`repro.core.batch.BatchExtractor` drives
the same stage engine over many pages concurrently.
"""

from repro.core.batch import (
    BatchExtractor,
    BatchResult,
    BatchStats,
    FailedExtraction,
    PageTask,
    parallel_map,
)
from repro.core.objects import ExtractedObject, construct_objects
from repro.core.pipeline import ExtractionResult, OminiExtractor, PhaseTimings, extract_objects
from repro.core.refinement import RefinementConfig, refine_objects
from repro.core.rules import ExtractionRule, RuleStore
from repro.core.stages import (
    ExtractionContext,
    ExtractorConfig,
    Instrumentation,
    Stage,
    StageEngine,
)
from repro.core.separator import (
    CombinedSeparatorFinder,
    HCHeuristic,
    IPSHeuristic,
    ITHeuristic,
    PPHeuristic,
    RPHeuristic,
    SBHeuristic,
    SDHeuristic,
    SeparatorHeuristic,
)
from repro.core.subtree import (
    CombinedSubtreeFinder,
    GSIHeuristic,
    HFHeuristic,
    LTCHeuristic,
    SubtreeHeuristic,
)

__all__ = [
    "BatchExtractor",
    "BatchResult",
    "BatchStats",
    "CombinedSeparatorFinder",
    "CombinedSubtreeFinder",
    "ExtractedObject",
    "ExtractionContext",
    "ExtractionResult",
    "ExtractionRule",
    "ExtractorConfig",
    "FailedExtraction",
    "Instrumentation",
    "PageTask",
    "Stage",
    "StageEngine",
    "GSIHeuristic",
    "HCHeuristic",
    "HFHeuristic",
    "IPSHeuristic",
    "ITHeuristic",
    "LTCHeuristic",
    "OminiExtractor",
    "PPHeuristic",
    "PhaseTimings",
    "RPHeuristic",
    "RefinementConfig",
    "RuleStore",
    "SBHeuristic",
    "SDHeuristic",
    "SeparatorHeuristic",
    "SubtreeHeuristic",
    "construct_objects",
    "extract_objects",
    "parallel_map",
    "refine_objects",
]
