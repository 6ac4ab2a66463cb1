"""The serving runtime: admission, workers, deadlines, shared caches, drain.

This is the core of ``repro.serve`` -- the HTTP layer in
:mod:`repro.serve.server` is a thin translation onto these classes.  The
work is split in three:

* :class:`ExtractionCore` is the per-process extraction machine: one
  fetcher, one :class:`~repro.serve.rulecache.SharedRuleCache`
  (single-flight rule learning over the
  :class:`~repro.core.rules.RuleStore`, and the fleet seam), one
  :class:`~repro.serve.treecache.TreeCache` (digest-keyed parsed trees,
  the Table 17 "read+parse dominates" fix), one metrics registry and one
  tracer.  :meth:`ExtractionCore.process` turns an admitted
  :class:`PendingRequest` into a ready
  :class:`~repro.serve.protocol.ServeResponse` -- no threads, no queue.
  Plan selection and rule healing are the stage engine's: the core hands
  it a context whose rule source is the shared cache.
  The thread runtime below embeds one core; the multiprocess runtime
  (:mod:`repro.serve.procpool`) builds one core *per worker process* so
  each shard keeps its own caches and single-flight learner election.

* :class:`AdmissionRuntime` is the admission surface both runtimes
  share, written once: deadline-budget validation (400), the
  :class:`PendingRequest` ticket, backpressure (429 + ``Retry-After``
  when the executors are full, 503 once admission has closed, also for
  a hand-off that loses the race with drain), ``wait``/``handle``, and
  **graceful drain** (close admission, let the executors finish and
  stop, answer stranded tickets 503, flush learned rules, STOPPED).  A
  subclass supplies only the executor.

* :class:`ServeRuntime` runs a core on a **fixed pool of named
  threads** behind a **bounded queue**.  Each admitted request carries
  an absolute monotonic deadline; a request that expires in the queue
  is answered 504 without doing work, and a fetch that consumes the
  budget is answered 504 without running the pipeline.  The pre-forked
  process runtime, :class:`~repro.serve.procpool.ProcessServeRuntime`,
  is the other subclass.

Every time read goes through the injected
:class:`~repro.fetch.base.Clock`, so the whole lifecycle -- saturation,
deadline expiry, drain -- replays deterministically under
:class:`~repro.fetch.base.FakeClock`.  Every request runs under a root
``request`` span with extract/stage/fetch spans nested beneath, and the
pinned ``/metrics`` names (:data:`repro.serve.protocol.METRICS_SCHEMA`)
are pre-registered so the first scrape already carries the full surface.
Span retention is newest-first: once the buffer exceeds
``trace_capacity`` the oldest spans are trimmed, never the whole buffer.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.pipeline import OminiExtractor
from repro.core.rules import RuleStore
from repro.core.stages.config import ExtractorConfig
from repro.fetch.base import (
    Clock,
    FetchError,
    Fetcher,
    SystemClock,
    body_digest,
    site_key,
)
from repro.observe.adapter import TracingInstrumentation
from repro.observe.metrics import MetricsRegistry
from repro.observe.span import Tracer
from repro.serve.lifecycle import DRAINING, READY, STOPPED, Lifecycle
from repro.serve.protocol import (
    METRICS_SCHEMA,
    ExtractRequest,
    ServeResponse,
    deadline_exceeded_response,
    draining_response,
    fetch_failed_response,
    internal_error_response,
    malformed_response,
    saturated_response,
    success_response,
)
from repro.serve.rulecache import SharedRuleCache
from repro.serve.treecache import TreeCache
from repro.tree.builder import parse_document
from repro.tree.incremental import try_incremental_parse
from repro.tree.node import TagNode

__all__ = [
    "AdmissionRuntime",
    "ExtractionCore",
    "PendingRequest",
    "ServeConfig",
    "ServeRuntime",
]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving runtime."""

    #: Fixed worker-pool size (threads or processes, per the runtime).
    workers: int = 4
    #: Admission-queue bound; a full queue answers 429.
    queue_limit: int = 64
    #: Default per-request budget in seconds (clients may tighten it).
    deadline: float = 10.0
    #: Seconds suggested in 429 ``Retry-After`` answers.
    retry_after: float = 1.0
    #: LRU capacity of the in-memory rule cache.
    rule_capacity: int = 256
    #: LRU capacity of the parsed-tree cache.
    tree_capacity: int = 128
    #: Dirty-rule count that triggers a write-behind flush before drain.
    flush_threshold: int = 32
    #: Collect request/extract/stage spans (metrics are always on).
    tracing: bool = True
    #: Finished spans retained before the oldest are dropped.
    trace_capacity: int = 4096
    #: Bodies at or above this many bytes hand off to process-mode
    #: workers via ``multiprocessing.shared_memory`` instead of the pipe.
    shm_threshold: int = 256 * 1024


@dataclass
class PendingRequest:
    """One admitted request travelling from the queue to a worker."""

    request: ExtractRequest
    #: Monotonic admission time (queue-delay accounting).
    enqueued: float
    #: Absolute monotonic deadline.
    deadline: float
    #: The budget the deadline was derived from, in seconds.
    budget: float
    event: threading.Event = field(default_factory=threading.Event)
    response: ServeResponse | None = None


class ExtractionCore:
    """One process's extraction machine: caches, pipeline, observability.

    Everything below the admission queue lives here, so the thread
    runtime and every procpool worker process run the *same* code; only
    how requests arrive differs (queue hand-off vs. pipe hand-off).
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        clock: Clock | None = None,
        fetcher: Fetcher | None = None,
        rule_store: RuleStore | None = None,
        rule_cache: SharedRuleCache | None = None,
        tree_cache: TreeCache | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        extractor_config: ExtractorConfig | None = None,
    ) -> None:
        self.config = config
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.fetcher = fetcher
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(enabled=config.tracing, clock=self.clock)
        )
        self.rules = (
            rule_cache
            if rule_cache is not None
            else SharedRuleCache(
                rule_store if rule_store is not None else RuleStore(),
                capacity=config.rule_capacity,
                flush_threshold=config.flush_threshold,
                metrics=self.metrics,
            )
        )
        self.trees = (
            tree_cache
            if tree_cache is not None
            else TreeCache(capacity=config.tree_capacity, metrics=self.metrics)
        )

        # Plan selection and rule healing run against the shared cache.
        self.extractor = OminiExtractor.from_config(
            extractor_config,
            rule_store=self.rules,
            instrumentation=TracingInstrumentation(
                self.tracer, self.metrics, enabled=config.tracing, clock=self.clock
            ),
        )
        self.metrics.preregister(METRICS_SCHEMA)

    # -- the per-request machine --------------------------------------------

    def process(self, pending: PendingRequest) -> ServeResponse:
        """Run one admitted request to a ready response.

        Pure with respect to the ticket: the caller owns
        ``pending.response`` / ``pending.event`` plumbing (the thread
        runtime sets them on its side of the queue; a procpool worker
        ships the response home over a pipe instead).
        """
        start = self.clock.monotonic()
        self.metrics.histogram("serve.queue.seconds").observe(
            max(0.0, start - pending.enqueued)
        )
        request = pending.request
        attributes: dict[str, object] = {"request.mode": request.mode}
        if request.site is not None:
            attributes["site"] = request.site
        if request.url is not None:
            attributes["url"] = request.url
        handle = self.tracer.start("request", **attributes)
        try:
            if start >= pending.deadline:
                # Expired while queued: answer without doing any work.
                response = deadline_exceeded_response(pending.budget)
            else:
                response = self._answer(pending)
        except Exception as error:
            self.metrics.counter("serve.errors").inc()
            response = internal_error_response(type(error).__name__)
        self.tracer.end(
            handle,
            status="ok" if response.ok else "error",
            http_status=response.status,
        )
        end = self.clock.monotonic()
        self.metrics.histogram("serve.request.seconds").observe(
            max(0.0, end - pending.enqueued)
        )
        if response.ok:
            self.metrics.counter("serve.completed").inc()
        elif response.status == 504:
            self.metrics.counter("serve.deadline_exceeded").inc()
        # Bound long-running memory by retiring the *oldest* spans only.
        self.tracer.trim(self.config.trace_capacity)
        return response

    def _answer(self, pending: PendingRequest) -> ServeResponse:
        """Acquire the body, run the pipeline, build the 200 envelope."""
        request = pending.request
        if request.html is not None:
            body = request.html
            site = request.site
            fetched_from_cache = False
        else:
            assert request.url is not None
            site = site_key(request.url, request.site)
            if self.fetcher is None:
                self.metrics.counter("serve.fetch_failures").inc()
                return fetch_failed_response(
                    "unconfigured", "server has no fetcher for URL requests"
                )
            try:
                fetched = self.fetcher.fetch(request.url, site=site)
            except FetchError as error:
                self.metrics.counter("serve.fetch_failures").inc()
                return fetch_failed_response(error.kind, str(error))
            if self.clock.monotonic() >= pending.deadline:
                # The fetch consumed the whole budget (slow or stalled
                # origin): the client has given up, skip the pipeline.
                return deadline_exceeded_response(pending.budget)
            body = fetched.body
            fetched_from_cache = fetched.from_cache

        digest = body_digest(body)
        tree = self.trees.get(digest)
        parsed_from_cache = tree is not None

        ctx = self.extractor.context(source=body, site=site, root=tree)
        if tree is None and site is not None:
            # Digest near-miss: the site's previous body may differ by one
            # small edit; try patching its cached tree instead of a full
            # re-parse (still inside ParseStage, so the Table 16/17
            # ``parse_page`` column stays honest).
            candidate = self.trees.incremental_candidate(site)
            if candidate is not None:
                ctx.parser = self._incremental_parser(*candidate)
        if site is not None:
            self.rules.adopt_published(site)
        result = self.extractor.engine.extract(ctx)
        if tree is None:
            assert ctx.root is not None
            self.trees.put(digest, ctx.root, site=site, body=body)

        elapsed = self.clock.monotonic() - pending.enqueued
        return success_response(
            request,
            site=site,
            objects=[obj.text() for obj in result.objects],
            candidate_objects=result.candidate_objects,
            separator=result.separator,
            subtree_path=result.subtree_path,
            used_cached_rule=result.used_cached_rule,
            fetched_from_cache=fetched_from_cache,
            parsed_from_cache=parsed_from_cache,
            timings_ms=result.timings.as_milliseconds(),
            elapsed_ms=elapsed * 1e3,
        )

    def _incremental_parser(
        self, old_body: str, old_root: "TagNode"
    ) -> "Callable[[str], TagNode]":
        """A parse function that patches ``old_root`` when the edit is small.

        Falls back to the full fused parse whenever the conservative
        safety contract of :func:`repro.tree.incremental.
        try_incremental_parse` is not met; either way the counters say
        which path ran.
        """

        def parse(source: str) -> "TagNode":
            patched = try_incremental_parse(old_body, old_root, source)
            if patched is not None:
                self.metrics.counter("trees.incremental.hits").inc()
                return patched
            self.metrics.counter("trees.incremental.fallbacks").inc()
            return parse_document(source)

        return parse


class AdmissionRuntime:
    """The admission surface both serve runtimes share.

    Owns budget validation, the ticket, the accept-and-hand-off decision
    with its counters, :meth:`wait`/:meth:`handle`, and the skeleton of
    :meth:`drain`.  A subclass supplies how an admitted ticket reaches
    :meth:`ExtractionCore.process`:

    * :meth:`_hand_off` -- place ``pending`` with an executor; False when
      the executors are full or admission has closed.  It must re-check
      ``lifecycle.accepting`` atomically against :meth:`_stop_executors`,
      so no ticket lands where no executor will answer it;
    * :meth:`_stop_executors` -- let admitted work finish, then stop;
    * :meth:`_stranded` -- the tickets no executor will ever answer;
    * :meth:`_flush` -- persist learned rules.
    """

    def __init__(
        self, config: ServeConfig, clock: Clock, metrics: MetricsRegistry
    ) -> None:
        self.config = config
        self.clock = clock
        self.metrics = metrics
        self.lifecycle = Lifecycle(clock=clock)
        self._drain_lock = threading.Lock()
        # Drain closes admission under it; a subclass holds it to act
        # only while admission is open.
        self._admission_lock = threading.Lock()
        metrics.preregister(METRICS_SCHEMA)

    # -- the executor seam --------------------------------------------------

    def _hand_off(self, pending: PendingRequest) -> bool:
        raise NotImplementedError

    def _stop_executors(self, join_timeout: float | None) -> None:
        raise NotImplementedError

    def _stranded(self) -> Iterable[PendingRequest]:
        raise NotImplementedError

    def _flush(self) -> None:
        raise NotImplementedError

    # -- admission ----------------------------------------------------------

    def submit(self, request: ExtractRequest) -> PendingRequest | ServeResponse:
        """Admit ``request`` or answer immediately with backpressure.

        Returns a :class:`PendingRequest` ticket on admission; a ready
        :class:`ServeResponse` (400 bad deadline / 429 saturated / 503
        draining) otherwise.  A hand-off that fails once admission has
        closed answers 503, whichever executor refused it.
        """
        budget = request.deadline if request.deadline is not None else (
            self.config.deadline
        )
        if not math.isfinite(budget) or budget <= 0.0:
            # A NaN or non-positive budget would make every deadline
            # comparison nonsense (or a guaranteed 504); reject up front.
            self.metrics.counter("serve.rejected.invalid").inc()
            return malformed_response(
                "request deadline must be a positive, finite number of seconds"
            )
        now = self.clock.monotonic()
        pending = PendingRequest(
            request=request, enqueued=now, deadline=now + budget, budget=budget
        )
        if self._hand_off(pending):
            self.metrics.counter("serve.accepted").inc()
            return pending
        if self.lifecycle.accepting:
            self.metrics.counter("serve.rejected.saturated").inc()
            return saturated_response(self.config.retry_after)
        self.metrics.counter("serve.rejected.draining").inc()
        return draining_response()

    def wait(
        self, pending: PendingRequest, timeout: float | None = None
    ) -> ServeResponse:
        """Block until ``pending`` is answered (or ``timeout`` elapses)."""
        if not pending.event.wait(timeout=timeout):
            return internal_error_response("ResponseTimeout")
        assert pending.response is not None
        return pending.response

    def handle(self, request: ExtractRequest) -> ServeResponse:
        """Submit and wait: the synchronous one-call surface for HTTP."""
        admitted = self.submit(request)
        if isinstance(admitted, ServeResponse):
            return admitted
        return self.wait(admitted)

    # -- drain --------------------------------------------------------------

    def drain(self, join_timeout: float | None = None) -> None:
        """Stop accepting, finish in-flight work, flush, stop.

        Idempotent: a second drain (SIGTERM racing SIGINT) is a no-op.
        Admission closes under the admission lock before the executors
        are told to stop, and every hand-off checks ``accepting``
        atomically against that stop, so a concurrent submit either
        reaches an executor that will answer it or is refused 503.
        After the executors stop, every ticket still stranded is answered
        503 so no :meth:`wait` blocks forever; then the learned rules
        are flushed.
        """
        with self._drain_lock:
            if self.lifecycle.state in (DRAINING, STOPPED):
                return
            with self._admission_lock:
                self.lifecycle.advance(DRAINING)
        self._stop_executors(join_timeout)
        for pending in self._stranded():
            self._answer_draining(pending)
        self._flush()
        self.lifecycle.advance(STOPPED)

    def _answer_draining(self, pending: PendingRequest) -> None:
        """Answer an admitted ticket no executor will run: 503 draining."""
        if not pending.event.is_set():
            self.metrics.counter("serve.rejected.draining").inc()
            pending.response = draining_response()
            pending.event.set()


class ServeRuntime(AdmissionRuntime):
    """One shared core run by a fixed pool of threads behind a bounded queue."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        fetcher: Fetcher | None = None,
        clock: Clock | None = None,
        rule_store: RuleStore | None = None,
        rule_cache: SharedRuleCache | None = None,
        tree_cache: TreeCache | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        extractor_config: ExtractorConfig | None = None,
    ) -> None:
        config = config if config is not None else ServeConfig()
        self.core = ExtractionCore(
            config,
            clock=clock,
            fetcher=fetcher,
            rule_store=rule_store,
            rule_cache=rule_cache,
            tree_cache=tree_cache,
            metrics=metrics,
            tracer=tracer,
            extractor_config=extractor_config,
        )
        super().__init__(config, self.core.clock, self.core.metrics)
        # The core owns the machinery; re-expose what callers read.
        self.tracer = self.core.tracer
        self.rules = self.core.rules
        self._queue: "queue.Queue[PendingRequest | None]" = queue.Queue(
            maxsize=config.queue_limit
        )
        self._threads: list[threading.Thread] = []

    def start(self) -> "ServeRuntime":
        """Spawn the worker pool and open admission."""
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        self.lifecycle.advance(READY)
        return self

    # -- the executor seam --------------------------------------------------

    def _hand_off(self, pending: PendingRequest) -> bool:
        # Check-then-enqueue under the lock drain closes admission with,
        # so no ticket can land behind the stop sentinels.
        with self._admission_lock:
            if not self.lifecycle.accepting:
                return False
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                return False
        return True

    def _stop_executors(self, join_timeout: float | None) -> None:
        # Blocking sentinel puts are safe: admission is closed, so the
        # queue can only shrink.
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=join_timeout)

    def _stranded(self) -> Iterator[PendingRequest]:
        # Belt and braces around the admission lock: nothing should
        # normally remain queued once the workers have exited.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                return
            self._queue.task_done()
            if leftover is not None:
                yield leftover

    def _flush(self) -> None:
        self.rules.flush()

    # -- the worker side ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            pending = self._queue.get()
            try:
                if pending is None:
                    return
                try:
                    pending.response = self.core.process(pending)
                finally:
                    if pending.response is None:
                        pending.response = internal_error_response(
                            "WorkerInterrupted"
                        )
                    pending.event.set()
            finally:
                self._queue.task_done()
