"""Boot a fleet: ``python -m repro.fleet --nodes 3 --port 8090``.

Two ways to assemble the membership:

* ``--nodes N`` spawns N local ``python -m repro.serve`` subprocesses on
  free ports (the batteries-included single-box fleet);
* ``--member URL`` (repeatable) joins serve nodes already running
  elsewhere; the coordinator only routes, it does not own them.

Either way the coordinator serves ``/extract``, aggregated ``/metrics``
and ``/healthz`` on ``--port``, probes members every
``--heartbeat-interval`` seconds, and evicts members that miss
``--heartbeat-timeout`` of silence.  SIGTERM/SIGINT drains: the listener
stops, spawned nodes get their own SIGTERM (their drain contract), and
the process exits 0.

:func:`add_fleet_arguments` and :func:`run` are importable so the
``omini fleet`` CLI subcommand reuses exactly this surface.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import TYPE_CHECKING

from repro.fleet.coordinator import FleetCoordinator, NodeClient, NodeUnavailable
from repro.fleet.http import FleetHTTPServer
from repro.fleet.membership import Membership
from repro.fleet.ring import HashRing
from repro.fleet.transport import HttpNodeClient
from repro.observe.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.fleet.harness import SubprocessFleet

__all__ = ["add_fleet_arguments", "main", "run"]


def add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the fleet flags (shared by ``python -m repro.fleet`` and
    the ``omini fleet`` subcommand)."""
    parser.add_argument("--host", default="127.0.0.1", help="coordinator bind address")
    parser.add_argument("--port", type=int, default=8090, help="coordinator bind port")
    parser.add_argument(
        "--nodes", type=int, default=0,
        help="spawn this many local serve subprocesses as members",
    )
    parser.add_argument(
        "--member", action="append", default=[], metavar="URL",
        help="join an already-running serve node (repeatable)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker pool size per spawned node"
    )
    parser.add_argument(
        "--corpus", help="spawned nodes serve pages from this corpus directory"
    )
    parser.add_argument(
        "--rules-dir", help="per-node JSON rule store directory for spawned nodes"
    )
    parser.add_argument(
        "--failover", type=int, default=2,
        help="distinct ring replicas tried per request",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        help="seconds between member health probes",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=5.0,
        help="seconds of probe silence before a member is evicted",
    )
    parser.add_argument(
        "--metrics-out", help="write a final aggregated snapshot here on shutdown"
    )


def _probe_member(
    coordinator: FleetCoordinator, node_id: str, client: NodeClient
) -> None:
    """Probe one member, heartbeating it the instant it answers."""
    try:
        client.healthz()
    except NodeUnavailable:
        return
    coordinator.membership.heartbeat(node_id)


def _probe_round(coordinator: FleetCoordinator, budget: float) -> None:
    """One probe round: fan out to every member in parallel, wait at
    most ``budget`` seconds for the stragglers, then sweep the lapsed.

    Probes must not run serially: one black-holed member (packets
    dropped, not refused -- its transport burns the full timeout) would
    stall a serial loop long enough to age every *healthy* member's
    heartbeat past ``heartbeat_timeout``, and the sweep would then evict
    the whole fleet.  Concurrent probes heartbeat each healthy member as
    soon as it answers, and a straggler blocks only its own daemon
    thread (reaped when its transport times out), never the round.
    """
    probes = [
        threading.Thread(
            target=_probe_member,
            args=(coordinator, node_id, client),
            name=f"fleet-probe-{node_id}",
            daemon=True,
        )
        for node_id, client in coordinator.clients().items()
    ]
    for probe in probes:
        probe.start()
    clock = coordinator.clock
    deadline = clock.monotonic() + budget
    for probe in probes:
        probe.join(timeout=max(0.0, deadline - clock.monotonic()))
    coordinator.membership.sweep()


def _heartbeat_loop(
    coordinator: FleetCoordinator, interval: float, stop: threading.Event
) -> None:
    """Probe every attached member; heartbeat the reachable, sweep the rest."""
    while not stop.wait(timeout=interval):
        _probe_round(coordinator, interval)


def run(args: argparse.Namespace) -> int:
    """Boot, route until SIGTERM/SIGINT, drain, exit 0."""
    import signal

    if args.nodes <= 0 and not args.member:
        sys.stderr.write("repro.fleet: need --nodes N and/or --member URL\n")
        return 2

    spawned: SubprocessFleet | None = None
    if args.nodes > 0:
        # Only spawning needs the harness; it imports the in-process serve
        # runtime and with it the extraction stack, which routing never runs.
        from repro.fleet import harness

        spawned = harness.SubprocessFleet(
            args.nodes,
            host=args.host,
            workers=args.workers,
            corpus=args.corpus,
            rules_dir=args.rules_dir,
            failover_limit=args.failover,
            heartbeat_timeout=args.heartbeat_timeout,
        )
        spawned.start()
        coordinator = spawned.coordinator
    else:
        metrics = MetricsRegistry()
        ring = HashRing()
        membership = Membership(
            ring, metrics=metrics, heartbeat_timeout=args.heartbeat_timeout
        )
        coordinator = FleetCoordinator(
            ring=ring,
            membership=membership,
            metrics=metrics,
            failover_limit=args.failover,
        )
    for index, url in enumerate(args.member):
        node_id = f"member-{index}"
        coordinator.attach(node_id, HttpNodeClient(node_id, url))
    if spawned is None:
        coordinator.start()

    server = FleetHTTPServer((args.host, args.port), coordinator)
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    listener = threading.Thread(
        target=server.serve_forever, name="fleet-http", daemon=True
    )
    listener.start()
    prober = threading.Thread(
        target=_heartbeat_loop,
        args=(coordinator, args.heartbeat_interval, stop),
        name="fleet-heartbeat",
        daemon=True,
    )
    prober.start()
    host, port = server.server_address[:2]
    sys.stderr.write(
        f"repro.fleet routing {len(coordinator.clients())} member(s) "
        f"on http://{host}:{port}\n"
    )

    stop.wait()
    sys.stderr.write("repro.fleet draining...\n")
    server.shutdown()
    listener.join(timeout=10.0)
    prober.join(timeout=10.0)
    server.server_close()
    if args.metrics_out:
        merged = coordinator.fleet_metrics()
        text = (
            merged.to_json()
            if args.metrics_out.endswith(".json")
            else merged.to_text()
        )
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    if spawned is not None:
        spawned.drain()
    else:
        coordinator.drain()
    sys.stderr.write("repro.fleet stopped cleanly\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.fleet",
        description="consistent-hash multi-node extraction fleet (stdlib only)",
    )
    add_fleet_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
