"""The HTTP face of the extraction service.

A deliberately thin layer: every route translates to one call on the
runtime and one :class:`~repro.serve.protocol.ServeResponse` written
back.  All policy -- admission, backpressure, deadlines, caching, drain
-- lives in the runtime: either subclass of
:class:`~repro.serve.runtime.AdmissionRuntime` (threads or forked
shards), which share one admission layer and which the deterministic
tests exercise.  This module owns only sockets and JSON framing.

Routes::

    GET  /healthz   -> 200 always (liveness; body carries lifecycle state)
    GET  /readyz    -> 200 while accepting, 503 otherwise (readiness)
    GET  /metrics   -> flat text (``?format=json`` for the JSON snapshot)
    POST /extract   -> the extraction protocol (see repro.serve.protocol)

Built on :class:`http.server.ThreadingHTTPServer` (stdlib only): one
thread per connection, but those threads immediately park in the
runtime's ``handle``, so concurrency and fairness are governed by its
admission bound and fixed worker pool -- not by socket count.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Protocol
from urllib.parse import parse_qs, urlsplit

from repro.observe.metrics import MetricsRegistry
from repro.serve.lifecycle import Lifecycle
from repro.serve.protocol import (
    ExtractRequest,
    ProtocolError,
    ServeResponse,
    error_response,
    malformed_response,
    parse_extract_request,
)

__all__ = ["ExtractionHTTPServer", "MAX_BODY_BYTES", "ServeRuntimeLike"]

#: Request bodies beyond this are refused with 413 before being read.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServeRuntimeLike(Protocol):
    """What the HTTP layer needs from a runtime.

    Both :class:`~repro.serve.runtime.ServeRuntime` (threads) and
    :class:`~repro.serve.procpool.ProcessServeRuntime` (forked shards)
    satisfy this; the HTTP front neither knows nor cares which is behind
    it.
    """

    lifecycle: Lifecycle
    metrics: MetricsRegistry

    def start(self) -> "ServeRuntimeLike": ...

    def drain(self, join_timeout: float | None = None) -> None: ...

    def handle(self, request: ExtractRequest) -> ServeResponse: ...


class ExtractionHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer bound to one serving runtime."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], runtime: ServeRuntimeLike
    ) -> None:
        self.runtime = runtime
        super().__init__(address, _ExtractionHandler)


class _ExtractionHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    @property
    def runtime(self) -> ServeRuntimeLike:
        assert isinstance(self.server, ExtractionHTTPServer)
        return self.server.runtime

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        parts = urlsplit(self.path)
        runtime = self.runtime
        if parts.path == "/healthz":
            self._send_response(
                ServeResponse(
                    status=200,
                    payload={"status": "alive", "state": runtime.lifecycle.state},
                )
            )
        elif parts.path == "/readyz":
            accepting = runtime.lifecycle.accepting
            self._send_response(
                ServeResponse(
                    status=200 if accepting else 503,
                    payload={
                        "status": "ready" if accepting else "unready",
                        "state": runtime.lifecycle.state,
                    },
                )
            )
        elif parts.path == "/metrics":
            query = parse_qs(parts.query)
            if query.get("format", ["text"])[-1] == "json":
                body = runtime.metrics.to_json().encode("utf-8")
                self._send_bytes(200, body, "application/json; charset=utf-8")
            else:
                body = runtime.metrics.to_text().encode("utf-8")
                self._send_bytes(200, body, "text/plain; charset=utf-8")
        elif parts.path == "/extract":
            self._send_response(
                error_response(405, "method_not_allowed", "POST to /extract")
            )
        else:
            self._send_response(
                error_response(404, "not_found", f"no such path: {parts.path}")
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server's naming
        parts = urlsplit(self.path)
        if parts.path in ("/healthz", "/readyz", "/metrics"):
            self._send_response(
                error_response(405, "method_not_allowed", f"GET {parts.path}")
            )
            return
        if parts.path != "/extract":
            self._send_response(
                error_response(404, "not_found", f"no such path: {parts.path}")
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send_response(
                malformed_response("Content-Length header is required")
            )
            return
        if length > MAX_BODY_BYTES:
            self._send_response(
                error_response(
                    413,
                    "too_large",
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                )
            )
            return
        raw = self.rfile.read(length)
        try:
            request = parse_extract_request(raw)
        except ProtocolError as error:
            self._send_response(malformed_response(str(error)))
            return
        self._send_response(self.runtime.handle(request))

    # -- plumbing -----------------------------------------------------------

    def _send_response(self, response: ServeResponse) -> None:
        body = response.body()
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self._finish_body(body, "application/json; charset=utf-8")

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self._finish_body(body, content_type)

    def _finish_body(self, body: bytes, content_type: str) -> None:
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log (observability goes
        through spans and /metrics, not per-request prints)."""
