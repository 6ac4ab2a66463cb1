"""The traced run: replay a workload in process, one serving layer at a time.

Each level is a fresh instance, warmed with the workload's warm-up
requests, that replays the first requests of the workload's
one-connection order through the layer's public entry point:

==========  ==============================================================
level       entry point
==========  ==============================================================
core        ``ExtractionCore.process`` with ``ServeConfig(tracing=True)``;
            its stage spans give the ``stage.*`` metrics
runtime     the workload's runtime ``.handle`` with one worker:
            ``ServeRuntime``, or ``ProcessServeRuntime`` for the fleet
procpool    ``ProcessServeRuntime(workers=1).handle``
http        a keep-alive POST to an in-process ``ExtractionHTTPServer``
            wrapping the workload's runtime
fleet       ``FleetCoordinator.handle`` with an ``HttpNodeClient`` pointed
            at a fresh ``http`` level
==========  ==============================================================

A layer's self time is its level's mean minus the mean of the level it
wraps, over the requests both replayed.  ``fleet`` wraps the node's runtime, not
the keep-alive ``http`` level: the coordinator's transport opens a fresh
connection per request, so its hop (routing, a fresh-connection HTTP
round trip and the node's framing) is ``fleet`` minus ``runtime``.

The run also times the public calls each layer makes on the same
inputs: ``parse_document``, ``try_incremental_parse`` against the site's
previous body, ``parse_extract_request``, ``ServeResponse.body()`` and
``CorpusFetcher.fetch``.  Every timed call is a span keyed by request id
on the benchmark's own tracer; nothing inside ``src/`` is instrumented
beyond the spans the core already emits.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from loadgen import Connection, percentile, post_fresh, supported_quantile
from workloads import Item, Workload

from repro.core.rules import RuleStore
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.transport import HttpNodeClient
from repro.observe.span import Span, Tracer
from repro.serve.__main__ import CorpusFetcher
from repro.serve.procpool import ProcessServeRuntime
from repro.serve.protocol import ExtractRequest, ServeResponse, parse_extract_request
from repro.serve.runtime import ExtractionCore, PendingRequest, ServeConfig, ServeRuntime
from repro.serve.server import ExtractionHTTPServer, ServeRuntimeLike
from repro.tree.builder import parse_document
from repro.tree.incremental import try_incremental_parse

#: Requests replayed per level (fewer when a level's time budget ends).
REPLAY_REQUESTS = 400

#: Stages whose spans become ``stage.<name>.{p50,p95}_ms``.
STAGES = (
    "parse_page",
    "apply_rule",
    "construct_objects",
    "refine_objects",
    "choose_subtree",
    "object_separator",
    "combine_heuristics",
    "learn_rule",
)


@dataclass
class _Level:
    name: str
    send: Callable[[Item, ExtractRequest], ServeResponse]
    close: Callable[[], None]
    #: Warm-up path; defaults to ``send``.
    warm: Callable[[Item, ExtractRequest], bool] | None = None
    #: Called after each replayed request with its id and response.
    after: Callable[[int, ServeResponse], None] | None = None


@dataclass
class ReplayResult:
    """Per-layer metrics plus the correctness tally of every replayed call."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Level -> requests it replayed before its budget ran out.
    requests: dict[str, int] = field(default_factory=dict)


def _ok(response: ServeResponse, item: Item) -> bool:
    return response.status == 200 and item.expected.matches(response.payload)


def _sources(workload: Workload, workdir: Path, tag: str) -> dict[str, Any]:
    """The fetcher and rule store a level's runtime gets, as deployed."""
    sources: dict[str, Any] = {}
    if workload.corpus:
        sources["fetcher"] = CorpusFetcher(workdir / "corpus")
    if workload.topology == "rules":
        sources["rule_store"] = RuleStore(workdir / f"rules-{tag}.json")
    return sources


def _runtime(kind: str, workload: Workload, workdir: Path, tag: str) -> ServeRuntimeLike:
    config = ServeConfig(workers=1, tracing=True)
    sources = _sources(workload, workdir, tag)
    runtime: ServeRuntimeLike = (
        ProcessServeRuntime(config, **sources)
        if kind == "process"
        else ServeRuntime(config, **sources)
    )
    return runtime.start()


def _runtime_level(name: str, runtime: ServeRuntimeLike) -> _Level:
    return _Level(name, lambda item, request: runtime.handle(request), runtime.drain)


class _HttpStack:
    """An in-process ``ExtractionHTTPServer`` on a free loopback port."""

    def __init__(self, runtime: ServeRuntimeLike) -> None:
        self.runtime = runtime
        self.server = ExtractionHTTPServer(("127.0.0.1", 0), runtime)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="bench-replay-http", daemon=True
        )
        self.thread.start()

    def warm(self, item: Item, request: ExtractRequest) -> bool:
        return post_fresh(self.port, item)

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.runtime.drain()


def _http_level(stack: _HttpStack) -> _Level:
    conn = Connection(stack.port)

    def send(item: Item, request: ExtractRequest) -> ServeResponse:
        status, body = conn.exchange("POST", "/extract", item.payload)
        return ServeResponse(status=status, payload=json.loads(body))

    def close() -> None:
        conn.close()
        stack.close()

    return _Level("http", send, close, stack.warm)


def _fleet_level(stack: _HttpStack) -> _Level:
    coordinator = FleetCoordinator(failover_limit=1)
    coordinator.attach(
        "node-0", HttpNodeClient("node-0", f"http://127.0.0.1:{stack.port}")
    )
    coordinator.start()

    def close() -> None:
        coordinator.drain()
        stack.close()

    return _Level("fleet", lambda item, request: coordinator.handle(request), close)


def _timed(
    tracer: Tracer, name: str, request_id: int, call: Callable[..., Any], *args: Any
) -> Any:
    with tracer.span(name, request_id=request_id):
        return call(*args)


class Replay:
    """Replays one workload level by level on the benchmark's tracer."""

    def __init__(self, workload: Workload, workdir: Path, seconds: float) -> None:
        self.workload = workload
        self.workdir = workdir
        self.seconds = seconds
        self.tracer = Tracer(id_prefix="bench-")
        self.items = workload.replay_items(REPLAY_REQUESTS)
        self.requests = [parse_extract_request(item.payload) for item in self.items]
        self.result = ReplayResult()
        self.durations: dict[str, list[float]] = {}
        self.core_responses: list[ServeResponse] = []
        self.stage_spans: list[Span] = []

    def run(self) -> ReplayResult:
        kind = "process" if self.workload.topology == "fleet" else "thread"
        self._run_level(self._core_level(), budget=0.1)
        self._run_level(
            _runtime_level(
                "runtime", _runtime(kind, self.workload, self.workdir, "runtime")
            ),
            budget=0.1,
        )
        if kind == "process":
            self.durations["procpool"] = self.durations["runtime"]
        else:
            self._run_level(
                _runtime_level(
                    "procpool",
                    _runtime("process", self.workload, self.workdir, "procpool"),
                ),
                budget=0.1,
            )
        self._run_level(
            _http_level(_HttpStack(_runtime(kind, self.workload, self.workdir, "http"))),
            budget=0.2,
        )
        self._run_level(
            _fleet_level(_HttpStack(_runtime(kind, self.workload, self.workdir, "fleet"))),
            budget=0.1,
        )
        self._time_calls()
        self._summarize()
        return self.result

    def _core_level(self) -> _Level:
        config = ServeConfig(tracing=True)
        core = ExtractionCore(config, **_sources(self.workload, self.workdir, "core"))

        def send(item: Item, request: ExtractRequest) -> ServeResponse:
            now = core.clock.monotonic()
            return core.process(
                PendingRequest(
                    request=request,
                    enqueued=now,
                    deadline=now + config.deadline,
                    budget=config.deadline,
                )
            )

        def warm(item: Item, request: ExtractRequest) -> bool:
            ok = _ok(send(item, request), item)
            core.tracer.drain()
            return ok

        def after(request_id: int, response: ServeResponse) -> None:
            self.core_responses.append(response)
            spans = core.tracer.drain()
            for span in spans:
                span.attributes["request_id"] = request_id
                span.attributes["level"] = "core"
            self.stage_spans.extend(span for span in spans if span.name in STAGES)
            self.tracer.absorb(spans)

        return _Level("core", send, lambda: None, warm, after)

    def _run_level(self, level: _Level, *, budget: float) -> None:
        """Warm, then replay until ``REPLAY_REQUESTS`` or the time budget."""
        try:
            warm = level.warm or (lambda item, request: _ok(level.send(item, request), item))
            for item in self.workload.warmup:
                if not warm(item, parse_extract_request(item.payload)):
                    raise RuntimeError(
                        f"{level.name} level: warm-up answer for {item.site} "
                        "differs from the reference"
                    )
            deadline = time.perf_counter() + budget * self.seconds
            durations = self.durations.setdefault(level.name, [])
            for index, (item, request) in enumerate(
                zip(self.items, self.requests, strict=True)
            ):
                if time.perf_counter() > deadline:
                    break
                handle = self.tracer.start(f"level.{level.name}", request_id=index)
                response = level.send(item, request)
                span = self.tracer.end(handle)
                assert span is not None
                durations.append(span.duration)
                self.result.attempted += 1
                self.result.failed += not _ok(response, item)
                if level.after is not None:
                    level.after(index, response)
        finally:
            level.close()

    def _time_calls(self) -> None:
        """Time the layers' public calls on the replayed inputs."""
        items = self.items[: len(self.core_responses)]
        if self.workload.corpus:
            fetcher = CorpusFetcher(self.workdir / "corpus")
            urls = [item.url or "" for item in items]
        else:
            root = self.workdir / "replay"
            (root / "replay.bench").mkdir(parents=True, exist_ok=True)
            urls = []
            for index, item in enumerate(items):
                (root / "replay.bench" / f"{index:04d}.html").write_text(
                    item.html, encoding="utf-8", newline=""
                )
                urls.append(f"http://replay.bench/{index:04d}.html")
            fetcher = CorpusFetcher(root)
        previous = {item.site: item.html for item in self.workload.warmup}
        roots: dict[str, Any] = {}
        tracer = self.tracer
        for index, item in enumerate(items):
            _timed(tracer, "call.parse_extract_request", index, parse_extract_request, item.payload)
            root_node = _timed(tracer, "call.parse_document", index, parse_document, item.html)
            old = previous[item.site]
            old_root = roots.get(item.site) or parse_document(old)
            _timed(
                tracer, "call.try_incremental_parse", index,
                try_incremental_parse, old, old_root, item.html,
            )
            previous[item.site] = item.html
            roots[item.site] = root_node
            _timed(tracer, "call.response_body", index, self.core_responses[index].body)
            _timed(tracer, "call.corpus_fetch", index, fetcher.fetch, urls[index])

    def _summarize(self) -> None:
        spans = self.tracer.spans
        calls: dict[str, list[float]] = {}
        for span in spans:
            if span.name.startswith("call."):
                calls.setdefault(span.name, []).append(span.duration)
        def self_ms(level: str, below: str) -> float:
            """Mean of ``level`` minus mean of ``below``, over the
            requests both replayed."""
            upper, lower = self.durations[level], self.durations[below]
            common = min(len(upper), len(lower))
            return _mean_ms(upper[:common]) - _mean_ms(lower[:common])

        def tail_ms(values: list[float], q: float) -> float:
            if not values:
                return 0.0  # the stage never ran on this workload
            return percentile(values, supported_quantile(len(values), q)) * 1e3

        metrics = {
            "serve.server.self_ms": self_ms("http", "runtime"),
            "serve.runtime.self_ms": self_ms("runtime", "core"),
            "serve.procpool.handoff_ms": self_ms("procpool", "core"),
            "fleet.hop_ms": self_ms("fleet", "runtime"),
            "serve.protocol.decode_ms": _mean_ms(calls["call.parse_extract_request"]),
            "serve.protocol.encode_ms": _mean_ms(calls["call.response_body"]),
            "fetch.p50_ms": tail_ms(calls["call.corpus_fetch"], 0.50),
            "html.parse.p50_ms": tail_ms(calls["call.parse_document"], 0.50),
            "tree.incremental.attempt_p50_ms": tail_ms(
                calls["call.try_incremental_parse"], 0.50
            ),
            "serve.core.p50_ms": tail_ms(self.durations["core"], 0.50),
            "serve.core.p95_ms": tail_ms(self.durations["core"], 0.95),
        }
        by_stage: dict[str, list[float]] = {stage: [] for stage in STAGES}
        for span in self.stage_spans:
            by_stage[span.name].append(span.duration)
        for stage, values in by_stage.items():
            metrics[f"stage.{stage}.p50_ms"] = tail_ms(values, 0.50)
            metrics[f"stage.{stage}.p95_ms"] = tail_ms(values, 0.95)
        self.result.metrics = metrics
        self.result.requests = {
            level: len(durations) for level, durations in self.durations.items()
        }


def _mean_ms(values: list[float]) -> float:
    return sum(values) / len(values) * 1e3
