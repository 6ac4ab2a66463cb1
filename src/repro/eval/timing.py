"""Per-phase execution-time measurement (Section 6.6, Tables 16 and 17).

"For each web page the algorithms were run ten times over the page" --
:func:`time_pipeline` does the same, against pages materialized on disk so
the Read File column measures real I/O, and averages per split exactly as
the paper's tables do (Test / Experimental / Combined rows).

The ``parse_page`` column is whatever ``ParseStage`` runs -- since the
parse fusion that is the single-pass engine (tokenize + repair + build in
one scan), so the column stays comparable across table regenerations even
though the implementation under it changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import OminiExtractor, PhaseTimings
from repro.core.rules import RuleStore
from repro.corpus.fetcher import PageCache

#: Column order of Tables 16/17.
PHASE_COLUMNS = (
    "read_file",
    "parse_page",
    "choose_subtree",
    "object_separator",
    "combine_heuristics",
    "construct_objects",
    "total",
)


@dataclass
class TimingBreakdown:
    """Average per-phase milliseconds over a set of pages (one table row)."""

    label: str
    pages: int = 0
    repetitions: int = 1
    sums: dict[str, float] = field(default_factory=lambda: {c: 0.0 for c in PHASE_COLUMNS})

    def add(self, timings: PhaseTimings) -> None:
        row = timings.as_milliseconds()
        for column in PHASE_COLUMNS:
            self.sums[column] += row[column]
        self.pages += 1

    def averages(self) -> dict[str, float]:
        """Mean milliseconds per page run, keyed by Table 16/17 column."""
        if self.pages == 0:
            return {c: 0.0 for c in PHASE_COLUMNS}
        return {c: self.sums[c] / self.pages for c in PHASE_COLUMNS}

    @classmethod
    def merge(cls, label: str, parts: list["TimingBreakdown"]) -> "TimingBreakdown":
        """Pool several breakdowns (the tables' "Combined" row)."""
        merged = cls(label)
        for part in parts:
            merged.pages += part.pages
            for column in PHASE_COLUMNS:
                merged.sums[column] += part.sums[column]
        return merged


def time_pipeline(
    cache: PageCache,
    *,
    label: str,
    site: str | None = None,
    repetitions: int = 10,
    use_rules: bool = False,
    adapter=None,
) -> TimingBreakdown:
    """Time the extractor over cached pages, ``repetitions`` runs per page.

    With ``use_rules=True``, a rule is learned from each site's first page
    and all timed runs take the cached-rule fast path -- the Table 17
    configuration.  Without it every run performs full discovery (Table 16).
    Runs are sequential on purpose (concurrency would distort per-phase
    wall-clock); each row is the stage engine's uniform timing row, so
    discovery and cached runs carry the same columns.

    Pass a :class:`~repro.observe.TracingInstrumentation` as ``adapter``
    and it becomes the extractor's observer: the table rows are then
    rebuilt from the spans it collects
    (:func:`~repro.observe.phase_timings_from_spans`) -- stage spans carry
    the engine's own elapsed measurements, so the span view is
    byte-identical to the direct :class:`PhaseTimings` rows while also
    leaving the full trace and latency histograms on the adapter
    (``tests/test_observe.py`` pins the equality exactly).
    """
    extractor = OminiExtractor.from_config(
        rule_store=RuleStore() if use_rules else None, instrumentation=adapter
    )
    breakdown = TimingBreakdown(label, repetitions=repetitions)
    paths = cache.page_paths(site)
    if use_rules:
        # Learn rules once per site from its first page (untimed warm-up).
        seen: set[str] = set()
        for path in paths:
            site_key = Path(path).parent.name
            if site_key not in seen:
                seen.add(site_key)
                extractor.extract_file(path, site=site_key)
    for path in paths:
        site_key = Path(path).parent.name if use_rules else None
        for _ in range(repetitions):
            seen_spans = len(adapter.tracer.spans) if adapter is not None else 0
            result = extractor.extract_file(path, site=site_key)
            if adapter is not None:
                from repro.observe import phase_timings_from_spans

                breakdown.add(
                    phase_timings_from_spans(adapter.tracer.spans[seen_spans:])
                )
            else:
                breakdown.add(result.timings)
    return breakdown
