"""Staged pipeline architecture for the Omini extraction path.

The monolithic ``OminiExtractor._discover`` is decomposed into explicit,
independently swappable stages (the NEXT-EVAL/AMBER architecture argument:
credible evaluation and scaling both demand composable, measurable phases):

* :mod:`~repro.core.stages.plan` -- the :class:`Stage` protocol, the six
  concrete stages (``Parse -> Subtree -> Separator -> Combine -> Construct
  -> Refine``), the cached-rule stages, and the two plans;
* :mod:`~repro.core.stages.context` -- :class:`ExtractionContext`, the
  state flowing through a plan, plus :class:`PhaseTimings` and
  :class:`ExtractionResult`;
* :mod:`~repro.core.stages.config` -- :class:`ExtractorConfig`, the single
  consolidated (and picklable) knob object;
* :mod:`~repro.core.stages.instrumentation` -- the observer interface
  (``on_stage_start/on_stage_end/on_fallback`` + batch page hooks);
* :mod:`~repro.core.stages.engine` -- :class:`StageEngine`, which runs
  plans, fills the Tables 16/17 timing row, and implements the one
  stale-rule self-healing loop.

:class:`repro.core.pipeline.OminiExtractor` remains the friendly facade;
:class:`repro.core.batch.BatchExtractor` is the concurrent driver built on
the same engine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.stages.config": (
            "DEFAULT_HEURISTICS", "HEURISTIC_REGISTRY", "ExtractorConfig",
        ),
        "repro.core.stages.context": (
            "ExtractionContext", "ExtractionResult", "PhaseTimings",
        ),
        "repro.core.stages.engine": ("StageEngine",),
        "repro.core.stages.lanes": ("ExtractorLane", "LaneResult", "PipelineLane"),
        "repro.core.stages.instrumentation": ("Instrumentation",),
        "repro.core.stages.plan": (
            "ApplyRuleStage", "CombineStage", "ConstructStage", "LearnRuleStage",
            "ParseStage", "ReadStage", "RefineStage", "SeparatorStage", "Stage",
            "SubtreeStage", "cached_plan", "discovery_plan",
        ),
    },
)

__all__ = [
    "ApplyRuleStage",
    "CombineStage",
    "ConstructStage",
    "DEFAULT_HEURISTICS",
    "ExtractionContext",
    "ExtractionResult",
    "ExtractorConfig",
    "ExtractorLane",
    "HEURISTIC_REGISTRY",
    "Instrumentation",
    "LaneResult",
    "LearnRuleStage",
    "PipelineLane",
    "ParseStage",
    "PhaseTimings",
    "ReadStage",
    "RefineStage",
    "SeparatorStage",
    "Stage",
    "StageEngine",
    "SubtreeStage",
    "cached_plan",
    "discovery_plan",
]
