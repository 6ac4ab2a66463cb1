"""The serving runtime: admission, workers, deadlines, shared caches, drain.

This is the core of ``repro.serve`` -- the HTTP layer in
:mod:`repro.serve.server` is a thin translation onto this class.  The
work is split in two:

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

* :class:`ServeRuntime` wraps a core with admission control and a
  worker pool:

  - a **bounded admission queue**: :meth:`submit` either enqueues a
    :class:`PendingRequest` or answers immediately with backpressure --
    429 + ``Retry-After`` when the queue is full, 503 while draining,
    400 for an unusable deadline budget;
  - a **fixed worker pool** (named threads) sharing the core;
  - **per-request deadlines**: each admitted request carries an absolute
    monotonic deadline; a request that expires in the queue is answered
    504 without doing work, and a fetch that consumes the budget is
    answered 504 without running the pipeline;
  - **graceful drain**: :meth:`drain` closes admission (atomically with
    respect to in-flight submits -- the admission lock makes
    check-then-enqueue and close-then-sentinel mutually exclusive),
    lets every already-admitted request finish, joins the workers,
    answers anything stranded behind the stop sentinels with 503,
    flushes the rule cache's write-behind state, and advances the
    lifecycle to STOPPED.

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
from typing import Callable

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
        self._preregister_metrics()

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

    # -- metrics ------------------------------------------------------------

    def _preregister_metrics(self) -> None:
        """Materialize the pinned schema so the first scrape is complete."""
        for name in METRICS_SCHEMA["counters"]:
            self.metrics.counter(name)
        for name in METRICS_SCHEMA["histograms"]:
            self.metrics.histogram(name)


class ServeRuntime:
    """Admission control + worker pool + shared caches + graceful drain."""

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
        self.config = config if config is not None else ServeConfig()
        self.core = ExtractionCore(
            self.config,
            clock=clock,
            fetcher=fetcher,
            rule_store=rule_store,
            rule_cache=rule_cache,
            tree_cache=tree_cache,
            metrics=metrics,
            tracer=tracer,
            extractor_config=extractor_config,
        )
        # The core owns the machinery; re-expose what callers read.
        self.clock = self.core.clock
        self.metrics = self.core.metrics
        self.tracer = self.core.tracer
        self.rules = self.core.rules
        self.lifecycle = Lifecycle(clock=self.clock)

        self._queue: "queue.Queue[PendingRequest | None]" = queue.Queue(
            maxsize=self.config.queue_limit
        )
        self._threads: list[threading.Thread] = []
        self._drain_lock = threading.Lock()
        # Serializes submit's check-then-enqueue against drain's
        # close-then-sentinel, so no request can land behind a stop
        # sentinel (where no worker would ever answer it).
        self._admission_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

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

    def drain(self, join_timeout: float | None = None) -> None:
        """Stop accepting, finish in-flight work, flush, stop.

        Idempotent: a second drain (SIGTERM racing SIGINT) is a no-op.
        Closing admission happens under the admission lock, so any
        concurrent :meth:`submit` either completed its enqueue before
        the close (a worker will answer it) or observes the DRAINING
        state (503).  Stop sentinels are enqueued with blocking puts --
        safe because admission is closed, so the queue can only shrink.
        After the workers exit, anything still queued (e.g. admitted by
        a submit that won the race but whose worker died) is answered
        503 so no ticket waits forever.
        """
        with self._drain_lock:
            if self.lifecycle.state in (DRAINING, STOPPED):
                return
            with self._admission_lock:
                self.lifecycle.advance(DRAINING)
            for _ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=join_timeout)
        self._sweep_stranded()
        self.rules.flush()
        self.lifecycle.advance(STOPPED)

    def _sweep_stranded(self) -> int:
        """Answer every request still queued after the workers exited.

        Returns the number of tickets answered.  Belt and braces around
        the admission lock: nothing should normally remain, but a ticket
        stuck behind the sentinels must get its 503 rather than leave
        :meth:`wait` blocked forever.
        """
        stranded = 0
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                return stranded
            try:
                if leftover is not None and not leftover.event.is_set():
                    self.metrics.counter("serve.rejected.draining").inc()
                    leftover.response = draining_response()
                    leftover.event.set()
                    stranded += 1
            finally:
                self._queue.task_done()

    # -- admission ----------------------------------------------------------

    def submit(self, request: ExtractRequest) -> PendingRequest | ServeResponse:
        """Admit ``request`` or answer immediately with backpressure.

        Returns a :class:`PendingRequest` ticket on admission; a ready
        :class:`ServeResponse` (400 bad deadline / 429 saturated / 503
        draining) otherwise.
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
        rejection: str | None = None
        with self._admission_lock:
            if not self.lifecycle.accepting:
                rejection = "draining"
            else:
                try:
                    self._queue.put_nowait(pending)
                except queue.Full:
                    rejection = "saturated"
        if rejection == "draining":
            self.metrics.counter("serve.rejected.draining").inc()
            return draining_response()
        if rejection == "saturated":
            self.metrics.counter("serve.rejected.saturated").inc()
            return saturated_response(self.config.retry_after)
        self.metrics.counter("serve.accepted").inc()
        return pending

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
