"""Evaluation harness reproducing the paper's Section 6 experiments.

* :mod:`repro.eval.metrics`      -- success rate / precision / recall per the
  paper's definitions (Sections 6.2, 6.5);
* :mod:`repro.eval.harness`      -- run heuristics over labeled corpora:
  rank distributions (Tables 10/13/20), per-heuristic outcomes;
* :mod:`repro.eval.combinations` -- the 26-combination sweep (Tables 11/20);
* :mod:`repro.eval.objects`      -- end-to-end object-level precision/recall
  (the abstract's 100% / 93-98% claim);
* :mod:`repro.eval.timing`       -- per-phase execution times (Tables 16/17);
* :mod:`repro.eval.report`       -- fixed-width table formatting that mimics
  the paper's layout, shared by all benches;
* :mod:`repro.eval.harness2`     -- the NEXT-EVAL-style *system* comparison:
  extractor lanes raced over the ~1000-site adversarial corpus, scored per
  category, emitting the pinned-schema ``BENCH_eval.json`` trend report.
"""

from repro._lazy import lazy_exports

# NOTE: repro.eval.harness2 is deliberately NOT in this table -- it is the
# ``python -m repro.eval.harness2`` entry point, and loading it through the
# package would shadow runpy's execution of the module (double-import
# warning).  Import it directly: ``from repro.eval import harness2``.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.eval.combinations": ("combination_sweep", "fast_combination_sweep"),
        "repro.eval.harness": (
            "EvaluatedPage", "estimate_profiles", "evaluate_pages", "rank_distribution",
            "separator_outcomes",
        ),
        "repro.eval.metrics": ("HeuristicScore", "per_site_average", "score_outcomes"),
        "repro.eval.objects": ("ObjectScore", "object_level_scores"),
        "repro.eval.report": ("format_table",),
        "repro.eval.timing": ("TimingBreakdown", "time_pipeline"),
    },
)

__all__ = [
    "EvaluatedPage",
    "HeuristicScore",
    "ObjectScore",
    "TimingBreakdown",
    "combination_sweep",
    "estimate_profiles",
    "fast_combination_sweep",
    "evaluate_pages",
    "format_table",
    "object_level_scores",
    "per_site_average",
    "rank_distribution",
    "score_outcomes",
    "separator_outcomes",
    "time_pipeline",
]
