"""The long-running extraction service (Section 6.6 as a subsystem).

The paper frames rule caching as an amortization argument: discovery is
expensive once, application is cheap forever after -- which only pays off
inside a *process that stays up*.  This package is that process:

* :mod:`repro.serve.protocol` -- the wire contract (requests, response
  envelopes, the pinned ``/metrics`` schema);
* :mod:`repro.serve.lifecycle` -- starting/ready/draining/stopped;
* :mod:`repro.serve.rulecache` -- single-flight rule learning shared
  across worker threads, write-behind persistence;
* :mod:`repro.serve.treecache` -- parsed-tree reuse (the Table 17
  "read+parse dominates" fix);
* :mod:`repro.serve.runtime` -- bounded admission, thread worker pool,
  per-request deadlines, graceful drain (and :class:`ExtractionCore`,
  the per-process extraction machine both runtimes share);
* :mod:`repro.serve.procpool` -- the pre-forked multiprocess runtime:
  site-hash shard routing, shared-memory body hand-off, per-task
  metrics/span/rule merge, worker crash recovery;
* :mod:`repro.serve.server` -- the stdlib HTTP layer;
* ``python -m repro.serve`` -- the bootable entry point
  (``--workers-mode {thread,process}``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.lifecycle": (
            "DRAINING", "READY", "STARTING", "STOPPED", "Lifecycle",
        ),
        "repro.serve.procpool": ("ProcessServeRuntime",),
        "repro.core.shard": ("shard_index",),
        "repro.serve.protocol": (
            "METRICS_SCHEMA", "ExtractRequest", "ProtocolError", "ServeResponse",
            "parse_extract_request", "validate_metrics",
        ),
        "repro.serve.rulecache": ("RuleLease", "SharedRuleCache"),
        "repro.serve.runtime": (
            "ExtractionCore", "PendingRequest", "ServeConfig", "ServeRuntime",
        ),
        "repro.serve.server": ("ExtractionHTTPServer", "ServeRuntimeLike"),
        "repro.serve.treecache": ("TreeCache",),
    },
)

__all__ = [
    "DRAINING",
    "ExtractRequest",
    "ExtractionCore",
    "ExtractionHTTPServer",
    "Lifecycle",
    "METRICS_SCHEMA",
    "PendingRequest",
    "ProcessServeRuntime",
    "ProtocolError",
    "READY",
    "RuleLease",
    "STARTING",
    "STOPPED",
    "ServeConfig",
    "ServeResponse",
    "ServeRuntime",
    "ServeRuntimeLike",
    "SharedRuleCache",
    "TreeCache",
    "parse_extract_request",
    "shard_index",
    "validate_metrics",
]
