"""HTML substrate for the Omini reproduction.

The paper's Phase 1 ("preparing a web document for extraction", Section 3)
requires three capabilities that this package provides from scratch:

* lexing raw HTML into a token stream (:mod:`repro.html.tokenizer`),
* transforming arbitrary tag soup into a *well-formed* document in the sense
  of Section 2.1 of the paper (:mod:`repro.html.normalizer` -- our equivalent
  of the HTML Tidy step the authors used), and
* serializing a normalized document back to text
  (:mod:`repro.html.serializer`).

Supporting modules hold the HTML entity codec (:mod:`repro.html.entities`)
and per-tag metadata such as void tags and implied-end-tag rules
(:mod:`repro.html.tags`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.html.entities": ("decode_entities", "encode_entities"),
        "repro.html.normalizer": ("NormalizationReport", "Normalizer", "normalize"),
        "repro.html.serializer": ("serialize_tokens",),
        "repro.html.tags": (
            "BLOCK_TAGS", "FLOW_BREAKERS", "INLINE_TAGS", "TABLE_SCOPE_TAGS",
            "VOID_TAGS", "closes_implicitly", "is_block", "is_inline", "is_void",
        ),
        "repro.html.tokenizer": (
            "CommentToken", "DoctypeToken", "EndTagToken", "StartTagToken", "TextToken",
            "Token",
        ),
    },
)

__all__ = [
    "BLOCK_TAGS",
    "CommentToken",
    "DoctypeToken",
    "EndTagToken",
    "FLOW_BREAKERS",
    "INLINE_TAGS",
    "NormalizationReport",
    "Normalizer",
    "StartTagToken",
    "TABLE_SCOPE_TAGS",
    "TextToken",
    "Token",
    "VOID_TAGS",
    "closes_implicitly",
    "decode_entities",
    "encode_entities",
    "is_block",
    "is_inline",
    "is_void",
    "normalize",
    "serialize_tokens",
]
