#!/usr/bin/env python3
"""One benchmark for the extraction service, over real HTTP.

Boots the service as subprocesses (``python -m repro.serve --no-tracing``,
plus ``python -m repro.fleet`` for ``fleet_recrawl``), drives a seeded
workload over loopback keep-alive connections from this one process,
checks every response against a reference answer, and prints each metric
by name and unit.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

Usage (from the repository root)::

    python bench/run.py                       # all four workloads
    python bench/run.py --trace               # the traced, per-layer run
    python bench/run.py --workload drift_relearn --seed 3 --seconds 25 --trace 0

Each run has three phases, sized from ``--seconds``:

* ``service``: one connection, closed loop (40% of the run);
* ``capacity``: ``nproc`` connections, closed loop (10%);
* ``loaded``: ``nproc`` connections, open loop at 30 requests/s for 50%
  of the run, latency timed from each request's due time.

Without ``--trace`` the metrics are the end-to-end ones and ``setup_s``
is the median of three boots.  With ``--trace`` the service phases are
shortened, ``/metrics`` is scraped around them for the per-layer counts,
the workload is replayed in process one layer at a time (see
``replay.py``), and every bench-side span is written to ``--trace-out``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
#: Boots per untraced run; ``setup_s`` is their median, and the last one
#: serves the run.
BOOTS = 3
#: Share of ``--seconds`` per phase: (service, capacity, loaded), keyed by
#: ``--trace``.  Untraced, ``service`` gets 10 s at 25 s, enough for 200+
#: samples at the 44-48 ms floor, so its p95 has ten samples beyond it;
#: the loaded phase gets the most, because its percentiles are the
#: noisiest.
#: The traced run reports no end-to-end latency: it shortens the closed
#: loops and keeps ~200 loaded arrivals for ``bench.late_p95_ms``.
PHASES = {False: (0.4, 0.1, 0.5), True: (0.1, 0.1, 0.27)}
EXPECTED = BENCH / "expected" / f"seed{DEFAULT_SEED}.json"

#: Name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "service_p50_ms": "ms",
    "service_p95_ms": "ms",
    "throughput_rps": "1/s",
    "loaded_p50_ms": "ms",
    "loaded_p90_ms": "ms",
    "server_rss_mb": "MiB",
}

#: Name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "serve.server.self_ms": "ms",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.encode_ms": "ms",
    "serve.runtime.self_ms": "ms",
    "serve.queue.wait_ms": "ms",
    "serve.rejected": "count",
    "serve.procpool.handoff_ms": "ms",
    "fleet.hop_ms": "ms",
    "fleet.failover": "count",
    "fetch.p50_ms": "ms",
    "trees.hit_ratio": "ratio",
    "trees.incremental.hit_ratio": "ratio",
    "tree.incremental.attempt_p50_ms": "ms",
    "html.parse.p50_ms": "ms",
    **{
        f"stage.{stage}.{facet}_ms": "ms"
        for stage in (
            "parse_page", "apply_rule", "construct_objects", "refine_objects",
            "choose_subtree", "object_separator", "combine_heuristics", "learn_rule",
        )
        for facet in ("p50", "p95")
    },
    "rules.hit_ratio": "ratio",
    "rules.relearned_per_request": "1/request",
    "rules.flushes": "count",
    "rules.evicted": "count",
    "serve.core.p50_ms": "ms",
    "serve.core.p95_ms": "ms",
    "bench.late_p95_ms": "ms",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append",
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): the traced run with per-layer metrics",
    )
    parser.add_argument(
        "--trace-out", type=Path, default=ROOT / ".bench_run" / "spans.json",
        help="where the traced run writes its spans (JSON)",
    )
    parser.add_argument(
        "--update-expected", action="store_true",
        help=f"recompute the seed-{DEFAULT_SEED} reference digests and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no source tree at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    args = _parse(argv)
    import workloads

    if args.update_expected:
        digests = {
            name: workloads.build(name, DEFAULT_SEED).reference_digest()
            for name in workloads.WORKLOADS
        }
        EXPECTED.parent.mkdir(exist_ok=True)
        EXPECTED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        sys.stderr.write(f"bench: wrote {EXPECTED}\n")
        return 0

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        sys.stderr.write(f"bench: unknown workload(s) {', '.join(unknown)}\n")
        return 2

    # A SIGTERM to this process must still stop the servers it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    outcomes = []
    spans: list[Any] = []
    for name in names:
        outcome = _run_workload(name, args.seed, args.seconds, bool(args.trace))
        outcomes.append(outcome)
        spans.extend(outcome.pop("spans", []))
    if args.trace:
        from repro.observe.span import write_trace

        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        write_trace(spans, args.trace_out)
        print(f"spans: {len(spans)} written to {args.trace_out}")

    correct = all(outcome["correct"] for outcome in outcomes)
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {
            f"{outcome['workload']}.{name}": value
            for outcome in outcomes
            for name, value in outcome["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome["attempted"] for outcome in outcomes),
        "failed": sum(outcome["failed"] for outcome in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    import workloads

    workload = workloads.build(name, seed)
    share = workload.with_property / workload.candidates
    scheduled = sum(len(sequence) for sequence in workload.sequences.values())
    print(
        f"{name} input: {workload.with_property}/{workload.candidates} candidates "
        f"({share:.1%}) have {workload.property_text}; all {scheduled} scheduled "
        f"requests over {len(workload.sites)} sites have it"
    )
    reference_ok = _check_reference(workload)
    workdir = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _write_corpus(workload, workdir)
        measured = _measure(workload, workdir, seconds, trace)
        if trace:
            from replay import Replay

            replay = Replay(workload, workdir, seconds)
            result = replay.run()
            measured["metrics"].update(result.metrics)
            measured["attempted"] += result.attempted
            measured["failed"] += result.failed
            levels = ", ".join(f"{level} {count}" for level, count in result.requests.items())
            print(
                f"{name} replay: requests per level: {levels}; "
                f"{result.failed} of {result.attempted} replayed calls wrong"
            )
            for span in replay.tracer.spans:
                span.attributes["workload"] = name
            measured["spans"] = replay.tracer.spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    metrics = {
        metric: {"value": measured["metrics"][metric], "unit": unit}
        for metric, unit in units.items()
    }
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    attempted, failed = measured["attempted"], measured["failed"]
    print(f"{name} error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    return {
        "workload": name,
        "correct": reference_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "spans": measured.get("spans", []),
    }


def _check_reference(workload: Any) -> bool:
    """At the default seed, the reference answers must hash as committed."""
    if workload.seed != DEFAULT_SEED:
        return True
    committed = json.loads(EXPECTED.read_text())[workload.name]
    actual = workload.reference_digest()
    if actual != committed:
        sys.stderr.write(
            f"bench: {workload.name} reference answers changed at seed "
            f"{DEFAULT_SEED} ({actual} != committed {committed}); the core's "
            "output differs from the committed baseline\n"
        )
        return False
    return True


def _write_corpus(workload: Any, workdir: Path) -> None:
    """Materialize ``fleet_recrawl``'s pages where the nodes serve them."""
    from repro.serve.__main__ import CorpusFetcher

    root = workdir / "corpus"
    for relative, html in workload.corpus.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(html, encoding="utf-8", newline="")
    fetcher = CorpusFetcher(root)
    for item in workload.warmup:
        if item.url is not None and fetcher.fetch(item.url).body != item.html:
            raise RuntimeError(f"corpus page {item.url} does not read back intact")


def _measure(workload: Any, workdir: Path, seconds: float, trace: bool) -> dict[str, Any]:
    """Boot, warm, run the three phases over HTTP, stop."""
    import deploy
    from loadgen import Connection, closed_loop, open_loop, post_fresh
    from workloads import LOADED_RATE

    nproc = max(1, min(2, len(os.sched_getaffinity(0))))
    boots = []
    for _ in range(0 if trace else BOOTS - 1):
        spare = deploy.launch(workload.topology, SRC, workdir, nproc)
        boots.append(spare.ready_seconds)
        deploy.stop(spare)
    deployment = deploy.launch(workload.topology, SRC, workdir, nproc)
    boots.append(deployment.ready_seconds)
    connections = [Connection(deployment.port) for _ in range(nproc)]
    try:
        for item in workload.warmup:
            if not post_fresh(deployment.port, item):
                raise RuntimeError(
                    f"warm-up answer for {item.site} differs from the reference"
                )
        cursor = workload.cursor()
        sites = workload.sites
        service_share, capacity_share, loaded_share = PHASES[trace]
        scrapes = [connections[0].metrics()]
        service = closed_loop(connections[:1], cursor, sites, service_share * seconds)
        scrapes.append(connections[0].metrics())
        capacity = closed_loop(connections, cursor, sites, capacity_share * seconds)
        scrapes.append(connections[0].metrics())
        arrivals = max(1, round(LOADED_RATE * loaded_share * seconds))
        loaded = open_loop(connections, cursor, sites, workload.arrivals(arrivals))
        scrapes.append(connections[0].metrics())
        rss = deploy.peak_rss_mib(deployment)
    finally:
        for connection in connections:
            connection.close()
        deploy.stop(deployment)

    phases = {"service": service, "capacity": capacity, "loaded": loaded}
    for phase, result in phases.items():
        print(
            f"{workload.name} phase {phase}: {result.attempted} requests, "
            f"{result.failed} wrong, {result.elapsed:.2f} s"
        )
        if not result.latencies:
            raise RuntimeError(f"{workload.name}: no correct response in phase {phase}")
    metrics = {
        "setup_s": statistics.median(boots),
        "service_p50_ms": _quantile_ms(service.latencies, 0.50),
        "service_p95_ms": _quantile_ms(service.latencies, 0.95, "service"),
        "throughput_rps": capacity.correct / capacity.elapsed,
        "loaded_p50_ms": _quantile_ms(loaded.latencies, 0.50),
        "loaded_p90_ms": _quantile_ms(loaded.latencies, 0.90, "loaded"),
        "server_rss_mb": rss,
        "bench.late_p95_ms": _quantile_ms(loaded.late, 0.95, "late"),
        **_layer_counts(scrapes[0], scrapes[-1]),
    }
    return {
        "metrics": metrics,
        "attempted": sum(result.attempted for result in phases.values()),
        "failed": sum(result.failed for result in phases.values()),
    }


def _quantile_ms(values: list[float], wanted: float, label: str = "") -> float:
    """A percentile in ms, falling back to the highest one the sample supports."""
    from loadgen import percentile, supported_quantile

    q = supported_quantile(len(values), wanted)
    if q < wanted and label:
        print(f"note: {label} has {len(values)} samples; its p{wanted * 100:g} is the p{q * 100:g}")
    return percentile(values, q) * 1e3


def _layer_counts(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Per-layer counts and ratios from two ``/metrics`` scrapes."""

    def counter(name: str) -> int:
        return int(after["counters"].get(name, 0) - before["counters"].get(name, 0))

    def histogram(name: str) -> tuple[int, float]:
        new = after["histograms"].get(name, {})
        old = before["histograms"].get(name, {})
        return new.get("count", 0) - old.get("count", 0), new.get("sum", 0.0) - old.get("sum", 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    completed = counter("serve.completed")
    queued, queue_seconds = histogram("serve.queue.seconds")
    incremental = counter("trees.incremental.hits")
    # A lease that hands out a rule which then proves stale is no hit.
    applied = (
        counter("rules.hits") + counter("rules.store_hits") + counter("rules.shared")
        - counter("rules.stale")
    )
    return {
        "serve.queue.wait_ms": ratio(queue_seconds, queued) * 1e3,
        "serve.rejected": sum(
            counter(f"serve.rejected.{kind}") for kind in ("draining", "invalid", "saturated")
        ),
        "fleet.failover": counter("fleet.failover"),
        "trees.hit_ratio": ratio(counter("trees.hits"), counter("trees.hits") + counter("trees.misses")),
        "trees.incremental.hit_ratio": ratio(
            incremental, incremental + counter("trees.incremental.fallbacks")
        ),
        "rules.hit_ratio": ratio(max(0, applied), completed),
        "rules.relearned_per_request": ratio(counter("rules.relearned"), completed),
        "rules.flushes": counter("rules.flushes"),
        "rules.evicted": counter("rules.evicted"),
    }


if __name__ == "__main__":
    raise SystemExit(main())
