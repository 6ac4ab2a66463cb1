"""The end-to-end Omini pipeline (Figure 3 of the paper).

:class:`OminiExtractor` is the one extractor value over the staged pipeline
in :mod:`repro.core.stages` -- batch extraction, wrapper generation, the
evaluation lanes and the serve core all build theirs with
:meth:`OminiExtractor.from_config`:

1. read + normalize + parse (``ReadStage`` / ``ParseStage``),
2. choose the minimal object-rich subtree and the object separator
   (``SubtreeStage -> SeparatorStage -> CombineStage``),
3. construct and refine objects (``ConstructStage -> RefineStage``).

Every stage is timed by the :class:`~repro.core.stages.engine.StageEngine`
into :class:`PhaseTimings`, whose fields are exactly the columns of Tables
16 and 17 (read file, parse page, choose subtree, object separator, combine
heuristics, construct objects, total), so the timing benches print rows in
the paper's own format.

The Section 6.6 fast path is an alternate *stage plan*, not a parallel
code path: given a :class:`~repro.core.rules.RuleStore` and a site key, the
engine runs ``ApplyRuleStage -> ConstructStage -> RefineStage`` whenever a
cached rule applies, with automatic fallback + rule re-learning when the
rule has gone stale.

For many pages at once, use :class:`repro.core.batch.BatchExtractor`,
which drives the same engine concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objects import ExtractedObject
from repro.core.refinement import RefinementConfig
from repro.core.rules import RuleSource, RuleStore
from repro.core.separator.combine import CombinedSeparatorFinder
from repro.core.stages.config import ExtractorConfig
from repro.core.stages.context import (
    ExtractionContext,
    ExtractionResult,
    PhaseTimings,
)
from repro.core.stages.engine import StageEngine
from repro.core.stages.instrumentation import Instrumentation
from repro.core.subtree.combined import CombinedSubtreeFinder
from repro.tree.node import TagNode

__all__ = [
    "ExtractionResult",
    "OminiExtractor",
    "PhaseTimings",
    "extract_objects",
]


@dataclass
class OminiExtractor:
    """Fully automated object extraction, Phase 1 through Phase 3.

    Usage::

        extractor = OminiExtractor()
        result = extractor.extract(html_text)
        texts = [obj.text() for obj in result.objects]

    Parameters
    ----------
    subtree_finder:
        Phase 2 step 1 strategy; defaults to the Section 4.4 combined
        volume ranking.
    separator_finder:
        Phase 2 step 2 strategy; defaults to the RSIPB combination that won
        the Table 11 sweep.
    refinement:
        Phase 3 refinement thresholds; None uses the defaults.
    rule_store:
        Optional :class:`~repro.core.rules.RuleSource` enabling the
        Section 6.6 cached-rule fast path (pass ``site=`` to
        :meth:`extract`): a :class:`RuleStore`, or the serve runtime's
        single-flight shared cache.
    instrumentation:
        Optional observer receiving the stage hooks (the engine fills
        :class:`PhaseTimings` either way).

    Prefer :meth:`from_config` to assemble an extractor from a single
    declarative :class:`~repro.core.stages.ExtractorConfig`.
    """

    subtree_finder: CombinedSubtreeFinder = field(default_factory=CombinedSubtreeFinder)
    separator_finder: CombinedSeparatorFinder = field(
        default_factory=lambda: ExtractorConfig().build_separator_finder()
    )
    refinement: RefinementConfig = field(default_factory=RefinementConfig)
    rule_store: RuleSource | None = None
    instrumentation: Instrumentation | None = None
    #: Built once from ``instrumentation``; stateless between calls, so
    #: one extractor may run pages concurrently.
    engine: StageEngine = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.engine = StageEngine(self.instrumentation or Instrumentation())

    @classmethod
    def from_config(
        cls,
        config: ExtractorConfig | None = None,
        *,
        rule_store: RuleSource | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> "OminiExtractor":
        """Build an extractor from one consolidated config object."""
        config = config or ExtractorConfig()
        return cls(
            subtree_finder=config.build_subtree_finder(),
            separator_finder=config.build_separator_finder(),
            refinement=config.build_refinement(),
            rule_store=rule_store,
            instrumentation=instrumentation,
        )

    # -- public API ----------------------------------------------------------

    def extract(self, source: str, *, site: str | None = None) -> ExtractionResult:
        """Extract objects from raw HTML ``source``.

        With ``site`` given and a rule store attached, a cached rule is
        applied when available (falling back to discovery if stale) and a
        freshly discovered rule is stored for next time.
        """
        return self.engine.extract(self.context(source=source, site=site))

    def extract_file(self, path, *, site: str | None = None) -> ExtractionResult:
        """Extract from a file on disk, timing the read (Table 16 column 1)."""
        return self.engine.extract(self.context(path=path, site=site))

    def extract_tree(self, root: TagNode) -> ExtractionResult:
        """Run Phases 2-3 on an already-parsed tag tree."""
        return self.engine.extract(self.context(root=root))

    def context(self, **inputs) -> ExtractionContext:
        """A fresh context carrying this extractor's components.

        ``inputs`` are :class:`ExtractionContext` input fields (``source``,
        ``path``, ``site``, ``root``, ``parser``); run the context with
        ``self.engine.extract(ctx)``.  Callers that keep their own tree
        caches (the serve core) pass ``root`` or set ``parser`` this way.
        """
        return ExtractionContext(
            subtree_finder=self.subtree_finder,
            separator_finder=self.separator_finder,
            refinement=self.refinement,
            rule_store=self.rule_store,
            **inputs,
        )


def extract_objects(
    source: str,
    *,
    site: str | None = None,
    config: ExtractorConfig | None = None,
    rule_store: RuleStore | None = None,
    **kwargs,
) -> list[ExtractedObject]:
    """One-call convenience API: HTML text in, refined objects out.

    Forwards ``site=`` (with ``rule_store=`` or a store inside ``kwargs``)
    to enable the cached-rule fast path, and accepts either a consolidated
    :class:`~repro.core.stages.ExtractorConfig` via ``config=`` or the
    classic :class:`OminiExtractor` keyword arguments.

    >>> html = "<ul>" + "".join(f"<li>item {i} details here</li>" for i in range(5)) + "</ul>"
    >>> objs = extract_objects(html)
    >>> len(objs)
    5
    """
    if config is not None:
        if kwargs:
            raise TypeError(
                "pass either config= or OminiExtractor keyword arguments, not both"
            )
        extractor = OminiExtractor.from_config(config, rule_store=rule_store)
    else:
        if rule_store is not None:
            kwargs["rule_store"] = rule_store
        extractor = OminiExtractor(**kwargs)
    return extractor.extract(source, site=site).objects
