"""The stage engine: run plans, time stages, heal stale rules.

:class:`StageEngine` owns the mechanics the old monolithic
``OminiExtractor._discover`` interleaved with phase logic:

* bracketing every stage with the instrumentation hooks and charging its
  engine-measured wall-clock to its Table 16/17 column;
* plan selection and the Section 6.6 self-healing loop -- the only one:
  leases come from the context's :class:`~repro.core.rules.RuleSource`
  (a :class:`~repro.core.rules.RuleStore` for library callers, the
  single-flight :class:`~repro.serve.rulecache.SharedRuleCache` when
  serving); a :class:`~repro.core.rules.StaleRuleError` is reported,
  fires ``on_fallback``, resets the context, and reruns discovery.

The engine is deliberately tiny and stateless between calls: one engine
can serve any number of extractions concurrently (the batch extractor
shares a single engine across its worker threads).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.rules import RuleSource, StaleRuleError
from repro.core.stages.context import ExtractionContext, ExtractionResult
from repro.core.stages.instrumentation import Instrumentation
from repro.core.stages.plan import (
    ParseStage,
    ReadStage,
    Stage,
    cached_plan,
    discovery_plan,
)

#: Leases per extraction: each retry follows a stale report lost to a
#: concurrent relearn; past the bound the page is discovered privately.
_MAX_LEASES = 4


@dataclass
class StageEngine:
    """Execute stage plans over extraction contexts."""

    instrumentation: Instrumentation = field(default_factory=Instrumentation)

    def run_stage(self, stage: Stage, ctx: ExtractionContext) -> None:
        """Run one stage, charge its timing column, fire the hooks."""
        self.instrumentation.on_stage_start(stage, ctx)
        start = time.perf_counter()
        stage.run(ctx)
        elapsed = time.perf_counter() - start
        column = stage.timing_column
        if column is not None:
            setattr(ctx.timings, column, getattr(ctx.timings, column) + elapsed)
        self.instrumentation.on_stage_end(stage, ctx, elapsed)

    def run_plan(self, plan: list[Stage], ctx: ExtractionContext) -> ExtractionContext:
        """Run ``plan``'s stages in order; exceptions abort the plan."""
        for stage in plan:
            self.run_stage(stage, ctx)
        return ctx

    def extract(self, ctx: ExtractionContext) -> ExtractionResult:
        """Drive ``ctx`` through prologue + the appropriate plan.

        Brackets the whole run with ``on_extract_start`` /
        ``on_extract_end`` -- the latter always fires (``result=None``
        when the pipeline raised), so tracing observers can close their
        root span on every path.
        """
        self.instrumentation.on_extract_start(ctx)
        result: ExtractionResult | None = None
        try:
            result = self._extract(ctx)
            return result
        finally:
            self.instrumentation.on_extract_end(ctx, result)

    def _extract(self, ctx: ExtractionContext) -> ExtractionResult:
        """Prologue + plan selection (see :meth:`extract`).

        Prologue: :class:`ReadStage` when only a path was given, then
        :class:`ParseStage` (skipped when the caller supplied a parsed
        tree).  Plan: :func:`cached_plan` under a leased rule, with
        discovery fallback on staleness; :func:`discovery_plan` as the
        elected learner, for a cached abstention, or without a site/source.
        """
        if ctx.root is None:
            if ctx.source is None and ctx.path is not None:
                self.run_stage(ReadStage(), ctx)
            self.run_stage(ParseStage(), ctx)

        source, site = ctx.rule_store, ctx.site
        if source is None or site is None:
            self.run_plan(discovery_plan(), ctx)
            return ctx.to_result()
        for _ in range(_MAX_LEASES):
            lease = source.lease(site)
            if lease.learner:
                return self._learn(ctx, source, site)
            if lease.rule is None:
                # Cached abstention: discovery for this page only, with
                # an opportunistic upgrade if it does find a separator.
                self.run_plan(discovery_plan(), ctx)
                if ctx.rule is not None:
                    source.offer(site, ctx.rule)
                return ctx.to_result()
            ctx.rule = lease.rule
            try:
                self.run_plan(cached_plan(), ctx)
                return ctx.to_result()
            except StaleRuleError as error:
                won = source.report_stale(site, lease.rule)
                self.instrumentation.on_fallback(ctx, error)
                ctx.reset_for_discovery()
                if won:
                    return self._learn(ctx, source, site)
        self.run_plan(discovery_plan(), ctx)
        return ctx.to_result()

    def _learn(
        self, ctx: ExtractionContext, source: RuleSource, site: str
    ) -> ExtractionResult:
        """Run discovery as the site's elected learner and publish."""
        try:
            self.run_plan(discovery_plan(), ctx)
        except BaseException:
            source.abort(site)
            raise
        source.publish(site, ctx.rule)
        return ctx.to_result()
