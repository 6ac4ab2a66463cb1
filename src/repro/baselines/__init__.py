"""Baseline systems the paper compares against."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.byu": ("BYUExtractor", "byu_combination", "byu_heuristics"),
    },
)

__all__ = ["BYUExtractor", "byu_combination", "byu_heuristics"]
