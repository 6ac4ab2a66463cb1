"""Tests for the multiprocess serving runtime (``repro.serve.procpool``).

Real forked workers under real time: these tests exercise shard routing,
the metrics/span/rule merge path, shared-memory body hand-off, graceful
drain, and crash recovery (SIGKILL a worker mid-request and verify the
shard re-elects exactly one learner with no request lost).  The
deterministic FakeClock lifecycle suite lives in ``test_serve_runtime``
and ``test_serve_races`` against the thread runtime -- process mode is
real-time-only by design.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import threading

from repro.fetch.base import FetchResult
from repro.serve.procpool import (
    ProcessServeRuntime,
    _worker_main,
    shard_index,
)
from repro.serve.protocol import ExtractRequest, validate_metrics
from repro.serve.runtime import PendingRequest, ServeConfig

_FORK = multiprocessing.get_context("fork")

LIST_HTML = (
    "<html><body><ul>"
    + "".join(f"<li>item {i} alpha beta gamma</li>" for i in range(6))
    + "</ul></body></html>"
)


def _inline(site: str, html: str = LIST_HTML, **kw: object) -> ExtractRequest:
    return ExtractRequest(html=html, site=site, **kw)  # type: ignore[arg-type]


class PipeGate:
    """A fork-shared gate that never waits on its waiters.

    ``multiprocessing.Event.set()`` blocks until every sleeping waiter
    acknowledges the wake-up, so a waiter SIGKILLed inside ``wait()``
    hangs the setter forever.  Here opening the gate writes one byte to
    an inherited pipe and waiters ``select`` on its read end: the byte is
    never consumed, so the gate stays open for every later waiter, and a
    dead waiter costs the setter nothing.
    """

    def __init__(self) -> None:
        self._read, self._write = os.pipe()

    def set(self) -> None:
        os.write(self._write, b"1")

    def wait(self, timeout: float) -> bool:
        readable, _, _ = select.select([self._read], [], [], timeout)
        return bool(readable)


class ForkGateFetcher:
    """An origin that parks every fetch until the test opens the gate.

    Built on fork-shared primitives so the gate works across the
    runtime's worker processes: the semaphore tells the test a worker
    entered the fetch, the pipe gate releases it.
    """

    def __init__(self, pages: dict[str, str]) -> None:
        self.pages = dict(pages)
        self.gate = PipeGate()
        self.entered = _FORK.Semaphore(0)

    def fetch(self, url: str, *, site: str | None = None) -> FetchResult:
        self.entered.release()
        assert self.gate.wait(timeout=30), "test never opened the fetch gate"
        return FetchResult.of(url, self.pages[url], site=site)


class TestProcessRuntime:
    def test_warm_extraction_with_merged_metrics(self) -> None:
        runtime = ProcessServeRuntime(ServeConfig(workers=2)).start()
        try:
            for site in ("a.test", "b.test", "c.test"):
                cold = runtime.handle(_inline(site))
                warm = runtime.handle(_inline(site))
                assert cold.status == 200, cold.payload
                assert warm.status == 200, warm.payload
                # Shard routing keeps the site on one worker, so the
                # second request hits that shard's rule and tree caches.
                assert warm.payload["used_cached_rule"], warm.payload
                assert warm.payload["parsed_from_cache"], warm.payload
        finally:
            runtime.drain()

        snapshot = runtime.metrics.snapshot()
        assert validate_metrics(snapshot) == []
        counters = snapshot["counters"]
        assert counters["serve.accepted"] == 6
        assert counters["serve.completed"] == 6
        assert counters["rules.hits"] == 3
        # Digest-keyed tree cache: every warm request hits; sites sharing
        # a shard also share identical-body trees, so cold ones can too.
        assert counters["trees.hits"] >= 3
        # Histograms merged from worker deltas, one entry per request.
        assert snapshot["histograms"]["serve.request.seconds"]["count"] == 6
        # Spans shipped home with per-pid prefixes.
        assert any(span.name == "request" for span in runtime.tracer.spans)
        # Rules folded into the parent's authoritative store.
        assert runtime.rule_store.get("a.test") is not None

    def test_sharding_is_stable_and_site_local(self) -> None:
        assert shard_index("a.test", 4) == shard_index("a.test", 4)
        assert 0 <= shard_index("anything", 3) < 3
        spread = {shard_index(f"site{i}.test", 4) for i in range(64)}
        assert spread == {0, 1, 2, 3}, "64 sites must reach every shard"

    def test_large_body_travels_via_shared_memory(self) -> None:
        config = ServeConfig(workers=2, shm_threshold=4096)
        runtime = ProcessServeRuntime(config).start()
        try:
            big = LIST_HTML * max(2, 8192 // len(LIST_HTML))
            assert len(big) >= config.shm_threshold
            response = runtime.handle(_inline("big.test", html=big))
            assert response.status == 200, response.payload
            assert response.payload["record_count"] >= 6
        finally:
            runtime.drain()

    def test_invalid_budget_rejected_before_dispatch(self) -> None:
        runtime = ProcessServeRuntime(ServeConfig(workers=1)).start()
        try:
            outcome = runtime.submit(
                _inline("bad.test", deadline=float("nan"))
            )
            assert not isinstance(outcome, PendingRequest)
            assert outcome.status == 400
        finally:
            runtime.drain()
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["serve.rejected.invalid"] == 1

    def test_drain_is_idempotent_and_closes_admission(self) -> None:
        runtime = ProcessServeRuntime(ServeConfig(workers=2)).start()
        assert runtime.handle(_inline("pre.test")).status == 200
        runtime.drain()
        runtime.drain()  # second drain (SIGTERM racing SIGINT) is a no-op
        refused = runtime.handle(_inline("post.test"))
        assert refused.status == 503

    def test_rules_persist_through_parent_store(self, tmp_path: object) -> None:
        from pathlib import Path

        from repro.core.rules import RuleStore

        path = Path(str(tmp_path)) / "rules.json"
        runtime = ProcessServeRuntime(
            ServeConfig(workers=2), rule_store=RuleStore(path)
        ).start()
        try:
            assert runtime.handle(_inline("persist.test")).status == 200
        finally:
            runtime.drain()
        assert path.is_file()
        assert RuleStore(path).get("persist.test") is not None


class TestCrashRecovery:
    def test_sigkill_mid_learn_reelects_one_learner_no_request_lost(self) -> None:
        """Kill the shard worker while it is processing the request that
        would learn the site's rule.  The parent must fork a replacement,
        resubmit the ticket, and the fresh shard must elect exactly one
        learner -- the caller sees a 200, not a hang or an error."""
        url = "http://chaos.test/p.html"
        fetcher = ForkGateFetcher({url: LIST_HTML})
        runtime = ProcessServeRuntime(
            ServeConfig(workers=2, deadline=60.0), fetcher=fetcher
        ).start()
        try:
            ticket = runtime.submit(ExtractRequest(url=url, site="chaos.test"))
            assert isinstance(ticket, PendingRequest)
            # The shard worker is now parked inside the fetch, before it
            # could lease/learn anything.
            assert fetcher.entered.acquire(timeout=15)
            shard = shard_index("chaos.test", 2)
            victim = runtime._workers[shard].process
            assert victim.pid is not None
            os.kill(victim.pid, signal.SIGKILL)

            # The replacement shard re-runs the same ticket and parks in
            # the fetch again; open the gate and collect the answer.
            assert fetcher.entered.acquire(timeout=15), "ticket was not resubmitted"
            fetcher.gate.set()
            response = runtime.wait(ticket, timeout=30)
            assert response.status == 200, response.payload
        finally:
            fetcher.gate.set()
            runtime.drain()

        counters = runtime.metrics.snapshot()["counters"]
        assert counters["procpool.restarts"] == 1
        assert counters["procpool.resubmitted"] == 1
        # Exactly one learner election across both worker generations:
        # the killed worker died before leasing, the replacement learned.
        assert counters["rules.misses"] == 1
        assert counters["rules.relearned"] == 0
        assert counters["serve.completed"] == 1
        assert runtime.rule_store.get("chaos.test") is not None

    def test_kill_during_drain_answers_outstanding_503(self) -> None:
        url = "http://stuck.test/p.html"
        fetcher = ForkGateFetcher({url: LIST_HTML})
        runtime = ProcessServeRuntime(
            ServeConfig(workers=1, deadline=60.0), fetcher=fetcher
        ).start()
        ticket = runtime.submit(ExtractRequest(url=url, site="stuck.test"))
        assert isinstance(ticket, PendingRequest)
        assert fetcher.entered.acquire(timeout=15)

        drainer = threading.Thread(
            target=runtime.drain, kwargs={"join_timeout": 20.0}, name="test-drainer"
        )
        drainer.start()
        # Admission is closed while the worker is still parked mid-fetch;
        # killing it now must answer the outstanding ticket, not respawn.
        victim = runtime._workers[0].process
        assert victim.pid is not None
        os.kill(victim.pid, signal.SIGKILL)
        drainer.join(timeout=30)
        assert not drainer.is_alive()

        assert ticket.event.wait(timeout=10), "drained ticket was never answered"
        assert ticket.response is not None
        assert ticket.response.status == 503
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["procpool.restarts"] == 0


class TestWorkerMainInProcess:
    """Drive ``_worker_main`` over an in-process pipe.

    The function is just a loop over a Connection; running it on a
    thread (with a real pipe) pins the wire protocol -- task/done
    framing, sentinel farewell, per-task metrics deltas -- without
    fork-related test flakiness.
    """

    def test_wire_protocol_round_trip(self) -> None:
        parent_conn, child_conn = _FORK.Pipe(duplex=True)
        config = ServeConfig(workers=1, tracing=True)
        worker = threading.Thread(
            target=_worker_main,
            args=(0, child_conn, config, None, None, []),
            name="inproc-worker",
        )
        worker.start()
        try:
            from repro.serve.procpool import _WireTask

            task = _WireTask(
                request=_inline("wire.test"),
                enqueued=0.0,
                deadline=1e12,
                budget=1e12,
            )
            parent_conn.send(("task", 7, task, None, 0))
            kind, ticket, response, delta, spans, rules = parent_conn.recv()
            assert kind == "done"
            assert ticket == 7
            assert response.status == 200
            assert delta["counters"]["serve.completed"] == 1
            assert delta["histograms"]["serve.request.seconds"]["count"] == 1
            assert any(span.name == "request" for span in spans)
            assert any(rule.site == "wire.test" for rule in rules)

            parent_conn.send(None)
            farewell = parent_conn.recv()
            assert farewell[0] == "bye"
        finally:
            worker.join(timeout=15)
            assert not worker.is_alive()
            parent_conn.close()

    def test_wire_task_and_request_pickle_cheaply(self) -> None:
        blob = pickle.dumps(_inline("pickle.test"))
        assert len(blob) < 4096
