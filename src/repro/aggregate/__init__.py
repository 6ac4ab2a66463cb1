"""The information-integration service built on Omini wrappers (Section 1).

The paper motivates Omini with "domain-specific information integration
portal services ... such as excite's jango and cnet.com" that "offer an
uniformed access to heterogeneous collections of dynamic pages using the
wrapper technology".  A wrapper, per Section 1, does two things: forward
the search request to the content provider, and normalize the returned
results for "summarization and aggregation processing at the integration
server".

This package is that integration server:

* :mod:`repro.aggregate.sources` -- content providers: the query-forwarding
  side of the wrapper (backed by the synthetic web, the way the paper's
  experiments were backed by cached pages);
* :mod:`repro.aggregate.merge`   -- the aggregation side: cross-site record
  deduplication and query-relevance ranking;
* :mod:`repro.aggregate.service` -- :class:`MetaSearch`, the portal facade:
  register sites (wrappers are generated automatically on first use),
  issue one query, get one merged result list.

The point the paper makes -- and this package demonstrates end to end --
is that with fully automatic extraction, "incorporating additional or new
content providers" is one registration call, not a wrapper-programming
project.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.aggregate.merge": ("MergedRecord", "dedupe_records", "rank_records"),
        "repro.aggregate.service": ("MetaSearch", "SearchResult"),
        "repro.aggregate.sources": (
            "ContentProvider", "HttpProvider", "SyntheticProvider",
        ),
    },
)

__all__ = [
    "ContentProvider",
    "HttpProvider",
    "MergedRecord",
    "MetaSearch",
    "SearchResult",
    "SyntheticProvider",
    "dedupe_records",
    "rank_records",
]
