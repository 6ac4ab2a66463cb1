"""Omini — a fully automated object extraction system for the Web.

Reproduction of Buttler, Liu, Pu (ICDCS 2001).  Quickstart::

    from repro import OminiExtractor

    extractor = OminiExtractor()
    result = extractor.extract(html_text)
    texts = [obj.text() for obj in result.objects]

Package map:

* :mod:`repro.html`       -- tokenizer + Tidy-equivalent normalizer (Phase 1)
* :mod:`repro.tree`       -- tag-tree model and metrics (Section 2)
* :mod:`repro.core`       -- subtree + separator heuristics, combination,
  object construction/refinement, rule caching (Sections 3-6)
* :mod:`repro.baselines`  -- the BYU comparison system (Section 6.7)
* :mod:`repro.corpus`     -- synthetic labeled web corpus (Section 6.3)
* :mod:`repro.fetch`      -- resilient document acquisition: HTTP fetching
  with retries/backoff/circuit breaking, TTL'd caching, and deterministic
  fault injection for chaos testing
* :mod:`repro.eval`       -- success/precision/recall harness and the
  combination sweep (Section 6)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "BatchExtractor", "BatchResult", "CombinedSeparatorFinder",
            "CombinedSubtreeFinder", "ExtractedObject", "ExtractionResult",
            "ExtractionRule", "ExtractorConfig", "FailedExtraction", "GSIHeuristic",
            "HFHeuristic", "IPSHeuristic", "LTCHeuristic", "OminiExtractor",
            "PPHeuristic", "RPHeuristic", "RuleStore", "SBHeuristic", "SDHeuristic",
            "extract_objects",
        ),
        "repro.tree": ("parse_document", "render_tree"),
        "repro.wrapper": (
            "FieldExtractor", "ObjectFields", "Wrapper", "WrapperError",
            "generate_wrapper",
        ),
        "repro.aggregate": ("HttpProvider", "MetaSearch", "SyntheticProvider"),
        "repro.fetch": (
            "CachingFetcher", "FaultInjectingFetcher", "FetchError", "HttpFetcher",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "BatchExtractor",
    "BatchResult",
    "CombinedSeparatorFinder",
    "CombinedSubtreeFinder",
    "ExtractedObject",
    "ExtractionResult",
    "ExtractionRule",
    "ExtractorConfig",
    "FailedExtraction",
    "GSIHeuristic",
    "HFHeuristic",
    "IPSHeuristic",
    "LTCHeuristic",
    "OminiExtractor",
    "PPHeuristic",
    "RPHeuristic",
    "RuleStore",
    "SBHeuristic",
    "SDHeuristic",
    "CachingFetcher",
    "FaultInjectingFetcher",
    "FetchError",
    "FieldExtractor",
    "HttpFetcher",
    "HttpProvider",
    "MetaSearch",
    "ObjectFields",
    "SyntheticProvider",
    "Wrapper",
    "WrapperError",
    "extract_objects",
    "generate_wrapper",
    "parse_document",
    "render_tree",
]
