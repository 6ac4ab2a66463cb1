"""The load generator: keep-alive HTTP connections driving three phases.

One process, at most ``nproc`` connections, one thread per connection
(the main thread drives the first).  Each site is pinned to one
connection, so a site's requests reach the server in schedule order and
every response has exactly one correct answer.

* ``closed_loop``: each connection sends its next request as soon as the
  previous answer arrives (callers that wait for a reply).
* ``open_loop``: requests are due on a fixed arrival schedule whatever the
  server does (independent users).  Latency is timed from the due time,
  so a stall also charges the requests queued behind it, and the
  generator's own lateness is recorded apart.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from workloads import Cursor, Item

_HEADERS = {"Content-Type": "application/json"}

#: Percentiles a tail metric may fall back to, highest first.
_TAIL_LADDER = (0.99, 0.95, 0.90, 0.75, 0.50)
#: Samples a percentile must leave beyond it to be reported.
TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def supported_quantile(count: int, wanted: float) -> float:
    """The highest quantile <= ``wanted`` with ``TAIL_SAMPLES`` beyond it.

    A p95 over 100 samples rests on 5 values; the guide's rule is to
    report the highest percentile that at least ten samples exceed.  Falls
    back down ``_TAIL_LADDER``; the median is always returned as a last
    resort.
    """
    for q in _TAIL_LADDER:
        if q <= wanted and count - math.ceil(q * count) >= TAIL_SAMPLES:
            return q
    return 0.50


class Connection:
    """One keep-alive HTTP/1.1 connection to the service under test."""

    def __init__(self, port: int, *, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def exchange(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        """Send one request and read the whole answer."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
        try:
            self._conn.request(method, path, body=body, headers=_HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()  # the next exchange reconnects
            raise

    def metrics(self) -> dict[str, Any]:
        """Scrape ``/metrics?format=json``."""
        status, body = self.exchange("GET", "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        snapshot: dict[str, Any] = json.loads(body)
        return snapshot

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def post_fresh(port: int, item: Item, *, timeout: float = 30.0) -> bool:
    """One request on a fresh connection; True when the answer is right.

    Warm-up uses this: a new connection does not hit the keep-alive
    floor, so warming hundreds of sites stays quick.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", "/extract", body=item.payload,
            headers={**_HEADERS, "Connection": "close"},
        )
        response = conn.getresponse()
        return check(response.status, response.read(), item)
    finally:
        conn.close()


def check(status: int, body: bytes, item: Item) -> bool:
    """True when a response carries the item's reference answer."""
    if status != 200:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    return item.expected.matches(payload)


@dataclass
class PhaseResult:
    """What one phase measured."""

    #: Seconds per correct response (closed loop: from send; open loop:
    #: from the due time).
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Open loop only: seconds the generator sent after it could have.
    late: list[float] = field(default_factory=list)
    #: Wall seconds from the phase start to its last answer.
    elapsed: float = 0.0

    @property
    def correct(self) -> int:
        return self.attempted - self.failed

    def absorb(self, other: "PhaseResult") -> None:
        self.latencies.extend(other.latencies)
        self.attempted += other.attempted
        self.failed += other.failed
        self.late.extend(other.late)


def _send(conn: Connection, item: Item, result: PhaseResult, started: float) -> None:
    try:
        status, body = conn.exchange("POST", "/extract", item.payload)
        ok = check(status, body, item)
    except (OSError, http.client.HTTPException):
        ok = False
    result.attempted += 1
    if ok:
        result.latencies.append(time.perf_counter() - started)
    else:
        result.failed += 1


def _on_threads(drive: Callable[[int], PhaseResult], count: int) -> PhaseResult:
    """Run ``drive(i)`` for each connection; the main thread takes ``0``."""
    results: list[PhaseResult | None] = [None] * count
    errors: list[Exception] = []

    def worker(index: int) -> None:
        try:
            results[index] = drive(index)
        except Exception as error:  # re-raised on the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(index,), name=f"bench-client-{index}")
        for index in range(1, count)
    ]
    for thread in threads:
        thread.start()
    worker(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = PhaseResult()
    for result in results:
        assert result is not None
        merged.absorb(result)
    return merged


def pin_sites(sites: list[str], connections: int) -> list[list[str]]:
    """Site ``i`` goes to connection ``i % connections``."""
    return [sites[index::connections] for index in range(connections)]


def closed_loop(
    connections: list[Connection], cursor: Cursor, sites: list[str], seconds: float
) -> PhaseResult:
    """Every connection sends back-to-back for ``seconds``."""
    assignment = pin_sites(sites, len(connections))
    start = time.perf_counter()
    end = start + seconds

    def drive(index: int) -> PhaseResult:
        result = PhaseResult()
        own = assignment[index]
        turn = 0
        while time.perf_counter() < end:
            item = cursor.next(own[turn % len(own)])
            turn += 1
            _send(connections[index], item, result, time.perf_counter())
        return result

    merged = _on_threads(drive, len(connections))
    merged.elapsed = time.perf_counter() - start
    return merged


def open_loop(
    connections: list[Connection],
    cursor: Cursor,
    sites: list[str],
    arrivals: list[tuple[float, str]],
) -> PhaseResult:
    """Send each arrival at its due time on its site's connection.

    A request due while its connection is still busy waits for it, and
    that wait counts as latency.  Lateness is how long after the later of
    its due time and its connection becoming free a request was sent --
    the generator's own delay.
    """
    assignment = pin_sites(sites, len(connections))
    owner = {site: index for index, own in enumerate(assignment) for site in own}
    queues: list[list[tuple[float, str]]] = [[] for _ in connections]
    for due, site in arrivals:
        queues[owner[site]].append((due, site))
    start = time.perf_counter()

    def drive(index: int) -> PhaseResult:
        result = PhaseResult()
        free_at = start
        for due, site in queues[index]:
            due_at = start + due
            wait = due_at - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            result.late.append(max(0.0, sent - max(due_at, free_at)))
            _send(connections[index], cursor.next(site), result, due_at)
            free_at = time.perf_counter()
        return result

    merged = _on_threads(drive, len(connections))
    merged.elapsed = time.perf_counter() - start
    return merged
