"""The multiprocess serving runtime: N forked extraction shards, one merge.

:class:`~repro.serve.runtime.ServeRuntime`'s worker pool is threads, so
extraction -- pure Python tree-walking -- is GIL-bound: BENCH_serve.json
showed warm throughput flat from 1 to 8 workers.  This module breaks that
ceiling by pre-forking N worker *processes*, each running its own
:class:`~repro.serve.runtime.ExtractionCore`.  Admission, ``wait``/
``handle`` and the drain skeleton are the shared
:class:`~repro.serve.runtime.AdmissionRuntime`, so both runtimes answer
backpressure and a drain race alike; this module supplies the executor:

* **Shard routing.**  Requests are routed by ``crc32(site) % N``
  (:func:`shard_index`), so every request for a site lands on the same
  worker.  Each worker owns a private
  :class:`~repro.serve.rulecache.SharedRuleCache` and
  :class:`~repro.serve.treecache.TreeCache` shard: rule locality is
  preserved (the shard that learned a site's rule answers all its
  requests) and single-flight learning holds trivially -- a shard is one
  process processing its pipe in order, so at most one learner per site
  can exist fleet-wide.

* **Body hand-off.**  Tasks travel over a per-worker duplex pipe.
  Inline bodies at or above ``ServeConfig.shm_threshold`` bytes go
  through ``multiprocessing.shared_memory`` instead (the pipe carries
  only the segment name); the worker reads, closes, and unlinks the
  segment.  URL-mode requests carry no body at all -- each worker
  inherits the fetcher via fork and fetches locally.

* **Metrics/span merge.**  After every task the worker ships home a
  :func:`~repro.observe.metrics.snapshot_delta` of its registry, its
  drained spans, and any freshly learned rules.  The parent
  :meth:`~repro.observe.metrics.MetricsRegistry.absorb`\\ s the delta,
  absorbs the spans (trimmed to ``trace_capacity``), and folds the rules
  into the authoritative :class:`~repro.core.rules.RuleStore` -- so the
  pinned ``/metrics`` schema is fully populated from merged worker
  deltas and rules persist across worker generations.  Workers never
  touch the rule JSON file; the parent persists on drain.

* **Crash recovery.**  A worker that dies mid-task (OOM kill, segfault)
  is detected by its receiver thread (pipe EOF without a farewell).
  While serving, the parent forks a replacement seeded with the current
  rule snapshot and resubmits every outstanding ticket to it
  (``procpool.restarts`` / ``procpool.resubmitted`` counters); while
  draining, outstanding tickets are answered 503 so no caller blocks
  forever.

* **Backpressure.**  A shard holds at most ``queue_limit // workers``
  outstanding tickets; the next submit for it answers 429.  The
  hand-off checks ``accepting`` under the shard's lock, the same lock
  drain sends the stop sentinel under, so a ticket never lands behind
  the sentinel and a hand-off that races drain answers 503.

Process mode runs on real time only: deadlines are absolute
``CLOCK_MONOTONIC`` values stamped by the parent and compared in the
workers, which is valid because that clock is system-wide on Linux.  The
deterministic :class:`FakeClock` lifecycle tests run against the thread
runtime (``--workers-mode=thread``), which remains the default for
single-core or replay-exact deployments.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from multiprocessing.connection import Connection
from typing import Any

from repro.core.rules import ExtractionRule, RuleStore
from repro.core.shard import shard_index
from repro.core.stages.config import ExtractorConfig
from repro.fetch.base import Fetcher, SystemClock
from repro.observe.metrics import MetricsRegistry, snapshot_delta
from repro.observe.span import Span, Tracer
from repro.serve.lifecycle import READY
from repro.serve.protocol import ExtractRequest, routing_key
from repro.serve.runtime import (
    AdmissionRuntime,
    ExtractionCore,
    PendingRequest,
    ServeConfig,
)

__all__ = ["ProcessServeRuntime", "shard_index"]


def _write_shared_body(body: str) -> tuple[str, int]:
    """Stage an inline body in a shared-memory segment; (name, byte size)."""
    data = body.encode("utf-8")
    segment = shared_memory.SharedMemory(create=True, size=max(1, len(data)))
    segment.buf[: len(data)] = data
    segment.close()
    return segment.name, len(data)


def _read_shared_body(name: str, size: int) -> str:
    """Read and retire a staged body (the worker side owns the unlink)."""
    segment = shared_memory.SharedMemory(name=name)
    try:
        return bytes(segment.buf[:size]).decode("utf-8")
    finally:
        segment.close()
        segment.unlink()


def _discard_shared_body(name: str) -> None:
    """Best-effort unlink of a segment whose worker died before reading."""
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def _worker_main(
    index: int,
    conn: Connection,
    config: ServeConfig,
    fetcher: Fetcher | None,
    extractor_config: ExtractorConfig | None,
    seed_rules: list[ExtractionRule],
) -> None:
    """One shard: read tasks off the pipe in order, ship results home.

    Single-threaded by design -- processing the pipe sequentially is what
    makes single-flight learning a structural property of the shard
    instead of a lock discipline.  The shard's rule store is pathless
    (persistence is the parent's job); it starts from the parent's rule
    snapshot so a replacement worker does not relearn the world.
    """
    if threading.current_thread() is threading.main_thread():
        # Parent owns shutdown: workers must not die on a forwarded ^C.
        # (Guarded so the wire-protocol tests can drive this loop on a
        # thread, where installing handlers is impossible.)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    store = RuleStore()
    for rule in seed_rules:
        store.put(rule)
    clock = SystemClock()
    metrics = MetricsRegistry()
    tracer = Tracer(
        enabled=config.tracing, id_prefix=f"w{os.getpid()}-", clock=clock
    )
    core = ExtractionCore(
        config,
        clock=clock,
        fetcher=fetcher,
        rule_store=store,
        metrics=metrics,
        tracer=tracer,
        extractor_config=extractor_config,
    )
    previous = metrics.snapshot()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent vanished; no one left to report to
            if message is None:
                break
            _kind, ticket, task, shm_name, shm_size = message
            request = task.request
            if shm_name is not None:
                request = replace(
                    request, html=_read_shared_body(shm_name, shm_size)
                )
            pending = PendingRequest(
                request=request,
                enqueued=task.enqueued,
                deadline=task.deadline,
                budget=task.budget,
            )
            response = core.process(pending)
            current = metrics.snapshot()
            delta = snapshot_delta(previous, current)
            previous = current
            try:
                conn.send(
                    (
                        "done",
                        ticket,
                        response,
                        delta,
                        tracer.drain(),
                        core.rules.drain_dirty(),
                    )
                )
            except (BrokenPipeError, OSError):
                return
        current = metrics.snapshot()
        try:
            conn.send(
                (
                    "bye",
                    snapshot_delta(previous, current),
                    tracer.drain(),
                    core.rules.drain_dirty(),
                )
            )
        except (BrokenPipeError, OSError):
            return
    finally:
        conn.close()


@dataclass(frozen=True)
class _WireTask:
    """The per-ticket fields a task message carries (body travels beside)."""

    request: ExtractRequest
    enqueued: float
    deadline: float
    budget: float


@dataclass
class _Outstanding:
    """Parent-side bookkeeping for one in-flight ticket."""

    pending: PendingRequest
    shm_name: str | None = None


class _Worker:
    """Parent-side handle on one shard process."""

    def __init__(
        self, index: int, process: Any, conn: Connection
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: Guards ``outstanding``/``dead`` and serializes pipe sends.
        self.lock = threading.Lock()
        self.outstanding: dict[int, _Outstanding] = {}
        self.dead = False
        self.said_bye = False
        self.receiver: threading.Thread | None = None


class ProcessServeRuntime(AdmissionRuntime):
    """Pre-forked multiprocess serving: admission, shards, merge, drain.

    Admission, ``wait``/``handle`` and the drain skeleton are the shared
    :class:`~repro.serve.runtime.AdmissionRuntime`; this class hands an
    admitted ticket down its site-hash shard's pipe.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        fetcher: Fetcher | None = None,
        rule_store: RuleStore | None = None,
        extractor_config: ExtractorConfig | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        # Real time only: deadlines are parent-stamped CLOCK_MONOTONIC
        # values compared inside the workers (system-wide on Linux).
        super().__init__(
            config if config is not None else ServeConfig(),
            SystemClock(),
            metrics if metrics is not None else MetricsRegistry(),
        )
        self.metrics.counter("procpool.restarts")
        self.metrics.counter("procpool.resubmitted")
        self.fetcher = fetcher
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(enabled=self.config.tracing, clock=self.clock)
        )
        self.rule_store = rule_store if rule_store is not None else RuleStore()
        self._extractor_config = extractor_config
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX hosts
            raise RuntimeError(
                "process workers need the fork start method; use "
                "--workers-mode=thread on this platform"
            ) from error
        self._workers: list[_Worker] = []
        self._ticket_seq = itertools.count(1)
        self._per_worker_limit = max(
            1, self.config.queue_limit // max(1, self.config.workers)
        )
        self._rules_dirty = False

    def start(self) -> "ProcessServeRuntime":
        """Fork the shard processes and open admission."""
        for index in range(self.config.workers):
            self._workers.append(self._spawn(index))
        self.lifecycle.advance(READY)
        return self

    # -- the executor seam --------------------------------------------------

    def _hand_off(self, pending: PendingRequest) -> bool:
        shard = shard_index(routing_key(pending.request), len(self._workers))
        return self._dispatch(shard, pending)

    def _stop_executors(self, join_timeout: float | None) -> None:
        """Send each worker its sentinel and wait for it to exit.

        The sentinel lands *after* everything already dispatched (pipes
        are FIFO); the worker answers it with a farewell carrying its
        final metrics delta, spans and dirty rules.
        """
        for worker in list(self._workers):
            with worker.lock:
                if worker.dead:
                    continue
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for worker in list(self._workers):
            worker.process.join(timeout=join_timeout)
            if worker.receiver is not None:
                worker.receiver.join(timeout=join_timeout)

    def _stranded(self) -> list[PendingRequest]:
        return [
            pending
            for worker in list(self._workers)
            for pending in self._take_outstanding(worker)
        ]

    def _flush(self) -> None:
        """Persist the merged store, so every worker generation's rules
        survive."""
        if self._rules_dirty and self.rule_store.path is not None:
            self.rule_store.save()
            self.metrics.counter("rules.flushes").inc()

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, shard: int, pending: PendingRequest) -> bool:
        """Register a ticket on a live shard worker and send the task.

        Returns False when admission has closed or the shard is
        saturated.  The accepting-check shares ``worker.lock`` with
        drain's sentinel send, so a task never lands behind the sentinel.
        A worker observed ``dead`` mid-dispatch means its replacement is
        being installed; retry against the refreshed handle.  A send that
        breaks anyway leaves the ticket registered -- the receiver's EOF
        handling resubmits or answers it, so no ticket is ever silently
        lost.
        """
        for _ in range(4):
            worker = self._workers[shard]
            with worker.lock:
                if worker.dead:
                    continue
                if (
                    not self.lifecycle.accepting
                    or len(worker.outstanding) >= self._per_worker_limit
                ):
                    return False
                self._send_task(worker, pending)
                return True
        return False

    def _send_task(self, worker: _Worker, pending: PendingRequest) -> None:
        """Stage the body, register the ticket, send (worker.lock held)."""
        request = pending.request
        shm_name: str | None = None
        shm_size = 0
        wire_request = request
        if (
            request.html is not None
            and len(request.html) >= self.config.shm_threshold
        ):
            shm_name, shm_size = _write_shared_body(request.html)
            wire_request = replace(request, html=None)
        ticket = next(self._ticket_seq)
        worker.outstanding[ticket] = _Outstanding(pending, shm_name)
        task = _WireTask(
            request=wire_request,
            enqueued=pending.enqueued,
            deadline=pending.deadline,
            budget=pending.budget,
        )
        try:
            worker.conn.send(("task", ticket, task, shm_name, shm_size))
        except (BrokenPipeError, OSError):
            # The worker died under us; its receiver thread sees the EOF
            # and resubmits (or 503s) everything registered, this ticket
            # included.
            pass

    @staticmethod
    def _take_outstanding(worker: _Worker) -> list[PendingRequest]:
        """Unregister every ticket on ``worker``; unlink their staged bodies."""
        with worker.lock:
            entries = list(worker.outstanding.values())
            worker.outstanding.clear()
        for entry in entries:
            if entry.shm_name is not None:
                _discard_shared_body(entry.shm_name)
        return [entry.pending for entry in entries]

    # -- the receive/merge side ---------------------------------------------

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main,
            name=f"serve-procworker-{index}",
            args=(
                index,
                child_conn,
                self.config,
                self.fetcher,
                self._extractor_config,
                list(self.rule_store.snapshot().values()),
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child's copy is the only live one now
        worker = _Worker(index, process, parent_conn)
        receiver = threading.Thread(
            target=self._receiver_loop,
            args=(worker,),
            name=f"serve-procpool-rx-{index}",
            daemon=True,
        )
        worker.receiver = receiver
        receiver.start()
        return worker

    def _receiver_loop(self, worker: _Worker) -> None:
        """Drain one worker's pipe: merge results, detect its death."""
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "done":
                _kind, ticket, response, delta, spans, rules = message
                self._absorb(delta, spans, rules)
                with worker.lock:
                    entry = worker.outstanding.pop(ticket, None)
                if entry is not None:
                    if entry.shm_name is not None:
                        # The worker read and unlinked it; forget the name
                        # so crash cleanup cannot double-unlink.
                        entry.shm_name = None
                    entry.pending.response = response
                    entry.pending.event.set()
            elif message[0] == "bye":
                _kind, delta, spans, rules = message
                self._absorb(delta, spans, rules)
                worker.said_bye = True
        self._on_worker_exit(worker)

    def _absorb(
        self,
        delta: dict[str, Any],
        spans: list[Span],
        rules: list[ExtractionRule],
    ) -> None:
        """Fold one worker message into the parent's view."""
        self.metrics.absorb(delta)
        if spans:
            self.tracer.absorb(spans)
            self.tracer.trim(self.config.trace_capacity)
        if rules:
            for rule in rules:
                self.rule_store.put(rule)
            self._rules_dirty = True

    def _on_worker_exit(self, worker: _Worker) -> None:
        """The pipe hit EOF: clean drain exit, or a crash to recover from."""
        worker.conn.close()
        worker.process.join()  # reap; the process is already gone
        with worker.lock:
            worker.dead = True
        # Staged bodies are unlinked here and re-staged on resend.
        leftovers = self._take_outstanding(worker)
        replacement: _Worker | None = None
        with self._admission_lock:
            if self.lifecycle.accepting:
                # Crash while serving: replace the shard (seeded with the
                # merged rule snapshot) and hand it the stranded work.
                replacement = self._spawn(worker.index)
                self._workers[worker.index] = replacement
        if replacement is None:
            # Draining (or stopped): no one will run these.
            for pending in leftovers:
                self._answer_draining(pending)
            return
        self.metrics.counter("procpool.restarts").inc()
        for pending in leftovers:
            with replacement.lock:
                self._send_task(replacement, pending)
            self.metrics.counter("procpool.resubmitted").inc()
