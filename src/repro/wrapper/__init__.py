"""Wrapper generation on top of Omini (the paper's Section 1 and Section 7).

Section 1 defines a wrapper as "an end-to-end computer program" that (a)
forwards a search request to the content provider and (b) "converts the
search result returned by the content provider into a normalized format for
summarization and aggregation processing at the integration server".
Section 7 names the planned integration: "we plan to demonstrate the
usefulness of Omini by combining it with a wrapper generation system (e.g.,
the XWRAP Elite) to automate the wrapper generation and evolution process",
plus "incorporation of feedback-based refinement of object extraction".

This package is that layer:

* :mod:`repro.wrapper.fields`   -- decompose an extracted object into
  normalized fields (title, url, description, price, byline);
* :mod:`repro.wrapper.wrapper`  -- generate a self-contained, serializable
  :class:`Wrapper` for a site from sample pages, and apply it to new pages
  (with automatic re-learning when the site redesigns -- the "evolution"
  part);
* :mod:`repro.wrapper.feedback` -- fold user verdicts on extractions back
  into the per-heuristic rank-probability profiles;
* :mod:`repro.wrapper.forms`    -- the wrapper's *first* task per Section 1:
  discover the provider's search form and construct the query request.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.wrapper.feedback": ("FeedbackStore", "refine_profiles"),
        "repro.wrapper.forms": (
            "FormSpec", "SearchRequest", "build_search_request", "find_forms",
            "find_search_form",
        ),
        "repro.wrapper.fields": ("FieldExtractor", "ObjectFields"),
        "repro.wrapper.wrapper": ("Wrapper", "WrapperError", "generate_wrapper"),
    },
)

__all__ = [
    "FeedbackStore",
    "FormSpec",
    "SearchRequest",
    "build_search_request",
    "find_forms",
    "find_search_form",
    "FieldExtractor",
    "ObjectFields",
    "Wrapper",
    "WrapperError",
    "generate_wrapper",
    "refine_profiles",
]
