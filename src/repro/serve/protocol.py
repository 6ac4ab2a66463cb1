"""The serve wire protocol: request parsing, response shapes, metrics schema.

One request format (``POST /extract``)::

    {"url": "http://site3.test/page_000.html", "site": "site3.test"}
    {"html": "<ul><li>...</li></ul>", "site": "inline.test", "deadline_ms": 500}

Exactly one of ``url`` / ``html`` must be present.  ``site`` keys the
shared rule cache (defaulting to the URL's host for URL requests);
``deadline_ms`` caps this request's end-to-end budget below the server
default.

One response envelope: every body has a top-level ``status`` ("ok" or
"error").  Success carries the extraction facts (records, separator,
subtree path, cache provenance, per-phase timings); errors carry a
``code`` / ``kind`` / ``message`` triple mirroring the HTTP status so
clients can branch on the body alone.  The shapes are pinned by golden
snapshots under ``tests/golden/serve/``.

``/metrics`` exposes the :class:`~repro.observe.metrics.MetricsRegistry`
snapshot; :func:`validate_metrics` checks such a snapshot against the
pinned schema (:data:`METRICS_SCHEMA`) so dashboards can rely on the
serve counters and phase histograms existing with stable names and
facets from the first scrape onward.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.fetch.base import body_digest, site_key

__all__ = [
    "METRICS_SCHEMA",
    "ExtractRequest",
    "ProtocolError",
    "ServeResponse",
    "deadline_exceeded_response",
    "draining_response",
    "error_response",
    "fetch_failed_response",
    "internal_error_response",
    "malformed_response",
    "parse_extract_request",
    "routing_key",
    "saturated_response",
    "success_response",
    "validate_metrics",
]

#: Ceiling on client-requested deadlines (seconds): a client may tighten
#: its budget below the server default but never extend past this.
MAX_DEADLINE_SECONDS = 300.0


class ProtocolError(ValueError):
    """A request body that does not conform to the extract protocol."""


@dataclass(frozen=True)
class ExtractRequest:
    """One validated ``POST /extract`` body."""

    html: str | None = None
    url: str | None = None
    site: str | None = None
    #: Client-requested end-to-end budget in seconds (None = server default).
    deadline: float | None = None

    @property
    def mode(self) -> str:
        """``"inline"`` for html-bodied requests, ``"url"`` for fetches."""
        return "inline" if self.html is not None else "url"


def routing_key(request: ExtractRequest) -> str:
    """Site when known, else URL host, else body digest (site-less inline).

    The one request-to-key derivation shared by the procpool shards and
    the :mod:`repro.fleet` consistent-hash ring -- both layers must agree
    on the key, or a site local to one scatters in the other.
    """
    if request.site is not None:
        return request.site
    if request.url is not None:
        return site_key(request.url)
    return body_digest(request.html or "")


def parse_extract_request(raw: bytes | str) -> ExtractRequest:
    """Validate a raw request body into an :class:`ExtractRequest`.

    Raises :class:`ProtocolError` with a client-facing message on any
    malformation: bad JSON, a non-object body, unknown keys, both or
    neither of ``url``/``html``, wrong value types, or an out-of-range
    deadline.
    """
    text = raw.decode("utf-8", errors="replace") if isinstance(raw, bytes) else raw
    try:
        payload = json.loads(text) if text.strip() else None
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"body is not valid JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("body must be a JSON object")

    known = {"url", "html", "site", "deadline_ms"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {', '.join(unknown)}; expected "
            "url | html, site?, deadline_ms?"
        )

    url = payload.get("url")
    html = payload.get("html")
    if (url is None) == (html is None):
        raise ProtocolError("exactly one of 'url' or 'html' is required")
    if url is not None and (not isinstance(url, str) or not url.strip()):
        raise ProtocolError("'url' must be a non-empty string")
    if html is not None and not isinstance(html, str):
        raise ProtocolError("'html' must be a string")

    site = payload.get("site")
    if site is not None and (not isinstance(site, str) or not site.strip()):
        raise ProtocolError("'site' must be a non-empty string")

    deadline: float | None = None
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolError("'deadline_ms' must be a number")
        deadline = float(deadline_ms) / 1e3
        # NaN fails the chained comparison too, but test finiteness
        # explicitly so the rejection does not hinge on that subtlety.
        if not math.isfinite(deadline) or not 0.0 < deadline <= MAX_DEADLINE_SECONDS:
            raise ProtocolError(
                "'deadline_ms' must be in (0, "
                f"{int(MAX_DEADLINE_SECONDS * 1e3)}]"
            )

    return ExtractRequest(html=html, url=url, site=site, deadline=deadline)


# -- responses ----------------------------------------------------------------


@dataclass
class ServeResponse:
    """One HTTP-ready answer: status code, JSON payload, extra headers."""

    status: int
    payload: dict[str, Any]
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def body(self) -> bytes:
        return (json.dumps(self.payload, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )


def success_response(
    request: ExtractRequest,
    *,
    site: str | None,
    objects: list[str],
    candidate_objects: int,
    separator: str | None,
    subtree_path: str,
    used_cached_rule: bool,
    fetched_from_cache: bool,
    parsed_from_cache: bool,
    timings_ms: dict[str, float],
    elapsed_ms: float,
) -> ServeResponse:
    """The 200 envelope for one finished extraction."""
    return ServeResponse(
        status=200,
        payload={
            "status": "ok",
            "mode": request.mode,
            "url": request.url,
            "site": site,
            "record_count": len(objects),
            "records": objects,
            "candidate_objects": candidate_objects,
            "separator": separator,
            "subtree": subtree_path,
            "used_cached_rule": used_cached_rule,
            "fetched_from_cache": fetched_from_cache,
            "parsed_from_cache": parsed_from_cache,
            "timings_ms": timings_ms,
            "elapsed_ms": elapsed_ms,
        },
    )


def error_response(
    status: int,
    kind: str,
    message: str,
    *,
    headers: dict[str, str] | None = None,
    **extra: Any,
) -> ServeResponse:
    """The uniform error envelope (mirrors the HTTP status in the body)."""
    payload: dict[str, Any] = {
        "status": "error",
        "error": {"code": status, "kind": kind, "message": message, **extra},
    }
    return ServeResponse(status=status, payload=payload, headers=dict(headers or {}))


def malformed_response(message: str) -> ServeResponse:
    """400: the request body failed protocol validation."""
    return error_response(400, "malformed", message)


def saturated_response(retry_after: float) -> ServeResponse:
    """429: the admission queue is full; back off and retry."""
    seconds = max(1, int(retry_after + 0.999))
    return error_response(
        429,
        "saturated",
        "admission queue is full; retry after the indicated delay",
        headers={"Retry-After": str(seconds)},
        retry_after=seconds,
    )


def draining_response() -> ServeResponse:
    """503: the server is draining (or not yet ready) and admits nothing."""
    return error_response(
        503, "draining", "server is not accepting new extraction requests"
    )


def deadline_exceeded_response(deadline: float) -> ServeResponse:
    """504: the per-request budget expired before a result was produced."""
    return error_response(
        504,
        "deadline",
        "request deadline expired before extraction completed",
        deadline_ms=deadline * 1e3,
    )


def fetch_failed_response(kind: str, message: str) -> ServeResponse:
    """502: the origin fetch failed with a classified failure kind."""
    return error_response(502, f"fetch:{kind}", message)


def internal_error_response(error_type: str) -> ServeResponse:
    """500: the pipeline raised; the exception type is all we disclose."""
    return error_response(
        500, "internal", f"extraction failed internally ({error_type})"
    )


# -- metrics schema -----------------------------------------------------------

#: Histogram facets every entry of a metrics snapshot must carry.
HISTOGRAM_FACETS = ("count", "sum", "min", "max", "mean", "p50", "p95", "p99")

#: The pinned ``/metrics`` contract: these names exist (with the right
#: shape) in every snapshot a serve runtime exports, from the very first
#: scrape -- the runtime pre-registers them at startup so a dashboard
#: never has to special-case a counter that has not fired yet.
METRICS_SCHEMA: dict[str, tuple[str, ...]] = {
    "counters": (
        "serve.accepted",
        "serve.completed",
        "serve.deadline_exceeded",
        "serve.errors",
        "serve.fetch_failures",
        "serve.rejected.draining",
        "serve.rejected.invalid",
        "serve.rejected.saturated",
        "rules.hits",
        "rules.misses",
        "rules.store_hits",
        "rules.stale",
        "rules.relearned",
        "rules.shared",
        "rules.evicted",
        "rules.flushes",
        "trees.hits",
        "trees.misses",
        "trees.evicted",
        "trees.incremental.hits",
        "trees.incremental.fallbacks",
    ),
    "histograms": (
        "serve.request.seconds",
        "serve.queue.seconds",
    ),
}


def validate_metrics(
    snapshot: dict[str, Any],
    schema: dict[str, tuple[str, ...]] = METRICS_SCHEMA,
) -> list[str]:
    """Check a metrics snapshot against a pinned schema.

    Defaults to the serve :data:`METRICS_SCHEMA`; the fleet coordinator
    validates its aggregated snapshot against the wider
    :data:`repro.fleet.protocol.FLEET_METRICS_SCHEMA` instead.  Returns
    a list of human-readable problems (empty = valid).  Extra metrics
    beyond the schema are fine -- a schema pins a floor, not a ceiling.
    """
    problems: list[str] = []
    counters = snapshot.get("counters")
    histograms = snapshot.get("histograms")
    if not isinstance(counters, dict):
        return ["snapshot has no 'counters' object"]
    if not isinstance(histograms, dict):
        return ["snapshot has no 'histograms' object"]

    for name in schema["counters"]:
        value = counters.get(name)
        if value is None:
            problems.append(f"missing counter {name}")
        elif not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"counter {name} must be a non-negative int, got {value!r}")

    for name in schema["histograms"]:
        facets = histograms.get(name)
        if not isinstance(facets, dict):
            problems.append(f"missing histogram {name}")
            continue
        for facet in HISTOGRAM_FACETS:
            value = facets.get(facet)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"histogram {name} facet {facet} must be a number")
        buckets = facets.get("buckets")
        if not isinstance(buckets, dict) or not buckets:
            problems.append(f"histogram {name} has no buckets")
        elif not all(
            isinstance(count, int) and not isinstance(count, bool) and count >= 0
            for count in buckets.values()
        ):
            problems.append(f"histogram {name} bucket counts must be ints")
    return problems
