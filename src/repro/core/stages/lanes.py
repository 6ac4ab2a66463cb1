"""Extractor lanes: one protocol for every extractor the harness compares.

NEXT-EVAL-style evaluation (``repro.eval.harness2``) scores *systems*, not
heuristics: the Omini staged pipeline, the BYU baseline, and any future
extractor (nested-record stages, an LLM-fallback lane) must all be drivable
through one surface.  :class:`ExtractorLane` is that surface -- a name plus
``extract(html) -> LaneResult`` -- deliberately smaller than
:class:`~repro.core.stages.engine.StageEngine`'s interface so lanes that do
not use the stage machinery at all can still be compared.

:class:`PipelineLane` adapts the staged pipeline to the protocol: any
:class:`~repro.core.stages.config.ExtractorConfig` becomes a lane.  The
stock comparison pair lives in :mod:`repro.eval.harness2` (``omini_lane`` /
``byu_lane``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.stages.config import ExtractorConfig

__all__ = ["ExtractorLane", "LaneResult", "PipelineLane"]


@dataclass(frozen=True, slots=True)
class LaneResult:
    """What one lane produced for one page -- the scorable surface."""

    #: Extracted object texts, in document order.
    objects: tuple[str, ...]
    #: The separator the lane committed to (None = abstained).
    separator: str | None
    #: Dot-notation path of the subtree the lane extracted from.
    subtree_path: str | None


@runtime_checkable
class ExtractorLane(Protocol):
    """Anything the evaluation harness can race against ground truth."""

    #: Stable lane identifier used as the report key (``"omini"``, ...).
    name: str

    def extract(self, source: str, *, site: str | None = None) -> LaneResult:
        """Extract ``source`` end to end and return the scorable result."""
        ...


class PipelineLane:
    """An :class:`ExtractorLane` over the staged pipeline.

    The lane runs the same :class:`~repro.core.pipeline.OminiExtractor`
    value the serve runtime builds from its config, so a lane scores the
    deployed system.  Stateless between calls (the engine and strategy
    objects are shared, exactly as :class:`~repro.core.batch.BatchExtractor`
    shares them across worker threads), so one lane instance may score
    pages concurrently.
    """

    def __init__(self, name: str, config: ExtractorConfig | None = None) -> None:
        # Lazy: repro.core.pipeline imports this package.
        from repro.core.pipeline import OminiExtractor

        self.name = name
        self.extractor = OminiExtractor.from_config(config)

    def extract(self, source: str, *, site: str | None = None) -> LaneResult:
        result = self.extractor.extract(source, site=site)
        return LaneResult(
            objects=tuple(obj.text() for obj in result.objects),
            separator=result.separator,
            subtree_path=result.subtree_path,
        )
