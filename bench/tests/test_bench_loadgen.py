"""The load generator against fake servers: checking and open-loop timing."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadgen import Connection, closed_loop, open_loop
from workloads import Answer, Cursor, inline_item

ANSWER = Answer(
    records=("first record", "second record"),
    separator="li",
    subtree="html[1].body[2].ul[1]",
    used_cached_rule=True,
)
ITEM = inline_item("fake.test", "<ul><li>first record<li>second record</ul>", ANSWER)


def _body(records: list[str]) -> bytes:
    return json.dumps(
        {
            "status": "ok",
            "records": records,
            "separator": ANSWER.separator,
            "subtree": ANSWER.subtree,
            "used_cached_rule": True,
        }
    ).encode("utf-8")


def _serve(answer: bytes, *, stall_first: float = 0.0):
    """A keep-alive server answering every POST with ``answer``.

    Headers and body go out in one write, so the fake has no Nagle stall
    of its own.  The first request waits ``stall_first`` seconds.
    """
    stalled = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self) -> None:  # noqa: N802 - http.server's naming
            self.rfile.read(int(self.headers["Content-Length"]))
            if stall_first and not stalled.is_set():
                stalled.set()
                time.sleep(stall_first)
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(answer)}\r\n\r\n".encode()
                + answer
            )

        def log_message(self, format: str, *args: object) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, name="fake-serve", daemon=True)
    thread.start()
    return server, thread


@pytest.fixture
def fake_server(request):
    server, thread = _serve(**request.param)
    yield server.server_address[1]
    server.shutdown()
    thread.join(timeout=5)
    assert not thread.is_alive()
    server.server_close()


def _cursor() -> Cursor:
    return Cursor({ITEM.site: [ITEM]})


@pytest.mark.parametrize(
    "fake_server", [{"answer": _body(["first record", "second record"])}], indirect=True
)
def test_a_correct_response_counts_as_correct(fake_server):
    conn = Connection(fake_server)
    try:
        result = closed_loop([conn], _cursor(), [ITEM.site], 0.2)
    finally:
        conn.close()
    assert result.attempted > 0
    assert result.failed == 0
    assert len(result.latencies) == result.attempted


@pytest.mark.parametrize(
    "fake_server", [{"answer": _body(["first record", "tampered record"])}], indirect=True
)
def test_a_tampered_response_counts_as_failed(fake_server):
    conn = Connection(fake_server)
    try:
        result = open_loop([conn], _cursor(), [ITEM.site], [(0.0, ITEM.site)] * 3)
    finally:
        conn.close()
    assert result.attempted == 3
    assert result.failed == 3
    assert result.latencies == []


STALL = 0.3


@pytest.mark.parametrize(
    "fake_server",
    [{"answer": _body(["first record", "second record"]), "stall_first": STALL}],
    indirect=True,
)
def test_open_loop_latency_runs_from_the_due_time(fake_server):
    # Three requests due 0.1 s apart on one connection; the first stalls.
    # Timed from the send, the two behind the stall would look instant;
    # timed from the due time they carry the wait the stall imposed.
    conn = Connection(fake_server)
    due = [(0.0, ITEM.site), (0.1, ITEM.site), (0.2, ITEM.site)]
    try:
        result = open_loop([conn], _cursor(), [ITEM.site], due)
    finally:
        conn.close()
    assert result.failed == 0
    first, second, third = result.latencies
    assert STALL <= first < STALL + 0.1
    assert STALL - 0.1 <= second < STALL
    assert STALL - 0.2 <= third < STALL - 0.1
    # Waiting for the busy connection is the server's doing, not lateness.
    assert max(result.late) < 0.05
