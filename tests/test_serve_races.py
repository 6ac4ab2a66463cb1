"""Regression tests for the serve runtime's admission and retention races.

Four bugs pinned here:

* **drain/submit race** -- ``submit`` used to check ``lifecycle.accepting``
  and then ``put_nowait`` without any mutual exclusion against ``drain``;
  a request enqueued *behind* the stop sentinels was never answered and
  its ``wait()`` blocked forever.  Admission is now atomic against drain,
  and drain additionally sweeps the queue after joining workers so even a
  deliberately stranded ticket gets its 503.
* **hand-off/drain race** -- process mode answered a submit whose shard
  hand-off ran after drain had stopped the workers 429 ``saturated``;
  both runtimes now answer a hand-off refused after admission closed
  503 ``draining``, as thread mode always did.
* **trace retention** -- exceeding ``trace_capacity`` used to drop *all*
  finished spans (``tracer.drain()``); retention is now oldest-first.
* **deadline validation** -- a non-positive or NaN budget used to be
  admitted and produce a nonsense absolute deadline; it is rejected with
  400 at both the protocol layer and programmatic ``submit``.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.fetch.base import FakeClock
from repro.serve.lifecycle import STOPPED
from repro.serve.procpool import ProcessServeRuntime
from repro.serve.protocol import (
    ExtractRequest,
    ProtocolError,
    parse_extract_request,
)
from repro.serve.runtime import PendingRequest, ServeConfig, ServeRuntime

LIST_HTML = (
    "<html><body><ul>"
    + "".join(f"<li>item {i} alpha beta gamma</li>" for i in range(6))
    + "</ul></body></html>"
)


def _inline(site: str, **kw: object) -> ExtractRequest:
    return ExtractRequest(html=LIST_HTML, site=site, **kw)  # type: ignore[arg-type]


class TestDrainSubmitRace:
    def test_request_stranded_behind_sentinels_is_answered_503(
        self, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """Recreate the lost interleaving: a ticket enqueued after drain's
        stop sentinels (what the unlocked check-then-put allowed) must be
        answered by the drain sweep, not left blocking forever."""
        clock = FakeClock()
        runtime = ServeRuntime(ServeConfig(workers=2), clock=clock).start()

        now = clock.monotonic()
        stranded = PendingRequest(
            request=_inline("stranded.test"),
            enqueued=now,
            deadline=now + 10.0,
            budget=10.0,
        )
        sentinel_puts = 0
        real_put = runtime._queue.put

        def put_and_strand(item: object, *args: object, **kw: object) -> None:
            nonlocal sentinel_puts
            real_put(item, *args, **kw)  # type: ignore[arg-type]
            if item is None:
                sentinel_puts += 1
                if sentinel_puts == runtime.config.workers:
                    # The raced submit's enqueue lands after the last
                    # sentinel: no worker will ever dequeue it.
                    runtime._queue.put_nowait(stranded)

        monkeypatch.setattr(runtime._queue, "put", put_and_strand)
        runtime.drain()

        assert runtime.lifecycle.state == STOPPED
        assert stranded.event.is_set(), "stranded ticket was never answered"
        assert stranded.response is not None
        assert stranded.response.status == 503
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["serve.rejected.draining"] >= 1

    def test_submits_racing_drain_never_hang(self) -> None:
        """Every submit issued while drain runs either completes (200) or
        is refused (429/503) -- no ticket may block forever."""
        clock = FakeClock()
        runtime = ServeRuntime(
            ServeConfig(workers=2, queue_limit=8), clock=clock
        ).start()
        tickets: list[PendingRequest] = []
        refusals: list[int] = []
        lock = threading.Lock()
        go = threading.Event()

        def submitter(index: int) -> None:
            go.wait()
            for attempt in range(25):
                outcome = runtime.submit(_inline(f"race{index}-{attempt}.test"))
                with lock:
                    if isinstance(outcome, PendingRequest):
                        tickets.append(outcome)
                    else:
                        refusals.append(outcome.status)

        threads = [
            threading.Thread(target=submitter, args=(i,), name=f"race-submit-{i}")
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        go.set()
        runtime.drain()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()

        assert runtime.lifecycle.state == STOPPED
        for ticket in tickets:
            assert ticket.event.wait(timeout=10), "an admitted ticket hung"
            assert ticket.response is not None
            assert ticket.response.status in (200, 503)
        assert all(status in (429, 503) for status in refusals)


class TestHandOffDrainRace:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_hand_off_after_drain_answers_503_draining(
        self, mode: str, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """A submit whose hand-off runs only after drain has stopped the
        executors is refused 503 ``draining`` in both modes -- never 429
        ``saturated`` -- and is not counted as admitted."""
        runtime: ServeRuntime | ProcessServeRuntime
        if mode == "thread":
            runtime = ServeRuntime(ServeConfig(workers=1), clock=FakeClock())
            seam = "_hand_off"
        else:
            runtime = ProcessServeRuntime(ServeConfig(workers=1))
            seam = "_dispatch"
        runtime.start()
        real_hand_off = getattr(runtime, seam)

        def drain_first(*args: object) -> bool:
            runtime.drain()
            return bool(real_hand_off(*args))

        monkeypatch.setattr(runtime, seam, drain_first)
        response = runtime.handle(_inline("race.test"))

        assert runtime.lifecycle.state == STOPPED
        assert response.status == 503
        assert response.payload["error"]["kind"] == "draining"
        assert "Retry-After" not in response.headers
        counters = runtime.metrics.snapshot()["counters"]
        assert counters["serve.rejected.draining"] == 1
        assert counters["serve.rejected.saturated"] == 0
        assert counters["serve.accepted"] == 0


class TestTraceRetention:
    def test_overflow_drops_oldest_spans_not_all(self) -> None:
        clock = FakeClock()
        runtime = ServeRuntime(
            ServeConfig(workers=1, trace_capacity=8), clock=clock
        ).start()
        for index in range(20):
            response = runtime.handle(_inline(f"s{index}.test"))
            assert response.status == 200
        runtime.drain()

        spans = runtime.tracer.spans
        assert spans, "retention must keep the newest spans, not drop all"
        assert len(spans) <= 8
        request_sites = {
            span.attributes.get("site")
            for span in spans
            if span.name == "request"
        }
        assert "s19.test" in request_sites, "the newest request span was lost"
        assert "s0.test" not in request_sites, "the oldest span survived"

    def test_sustained_load_keeps_span_count_bounded(self) -> None:
        clock = FakeClock()
        runtime = ServeRuntime(
            ServeConfig(workers=2, trace_capacity=16), clock=clock
        ).start()
        for index in range(40):
            runtime.handle(_inline(f"load{index % 5}.test"))
            assert len(runtime.tracer.spans) <= 16
        runtime.drain()
        assert 0 < len(runtime.tracer.spans) <= 16


class TestDeadlineValidation:
    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_submit_rejects_unusable_budget_with_400(self, budget: float) -> None:
        clock = FakeClock()
        runtime = ServeRuntime(ServeConfig(workers=1), clock=clock).start()
        try:
            outcome = runtime.submit(_inline("bad.test", deadline=budget))
            assert not isinstance(outcome, PendingRequest)
            assert outcome.status == 400
            counters = runtime.metrics.snapshot()["counters"]
            assert counters["serve.rejected.invalid"] == 1
            assert counters["serve.accepted"] == 0
        finally:
            runtime.drain()

    @pytest.mark.parametrize(
        "raw",
        [
            '{"html": "<p>x</p>", "deadline_ms": NaN}',
            '{"html": "<p>x</p>", "deadline_ms": Infinity}',
            '{"html": "<p>x</p>", "deadline_ms": -Infinity}',
            '{"html": "<p>x</p>", "deadline_ms": 0}',
            '{"html": "<p>x</p>", "deadline_ms": -250}',
        ],
    )
    def test_protocol_rejects_unusable_deadline_ms(self, raw: str) -> None:
        with pytest.raises(ProtocolError):
            parse_extract_request(raw)

    def test_valid_deadline_still_admitted(self) -> None:
        request = parse_extract_request('{"html": "<p>x</p>", "deadline_ms": 250}')
        assert request.deadline is not None
        assert math.isclose(request.deadline, 0.25)
