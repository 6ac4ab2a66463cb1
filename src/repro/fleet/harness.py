"""Two ways to stand up a whole fleet: in-process and subprocess.

* :class:`InProcessFleet` -- N real :class:`~repro.serve.runtime.
  ServeRuntime` nodes in one process, sharing one Clock (a FakeClock in
  tests), wired to one ring/membership/registry and driven through the
  coordinator exactly as HTTP traffic would be.  Nothing sleeps and
  nothing touches a socket, so lease elections, failover, replication
  and invalidation replay deterministically with exact counter
  assertions.  "SIGKILL" is simulated honestly: :meth:`kill` makes the
  node unreachable *without* draining it or releasing its leases --
  precisely what a killed process leaves behind.

* :class:`SubprocessFleet` -- N real ``python -m repro.serve``
  processes on real ports behind an :class:`~repro.fleet.transport.
  HttpNodeClient`-backed coordinator.  Used by the CI smoke job, the
  subprocess chaos test, and ``benchmarks/run_fleet_loadtest.py``; here
  :meth:`kill` sends an actual signal.

Both expose the same surface (``start`` / ``handle`` / ``kill`` /
``drain``), so the chaos scenario reads identically at both layers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from typing import Any

from repro.fetch.base import Clock, Fetcher, SystemClock
from repro.fleet.coordinator import FleetCoordinator, NodeUnavailable
from repro.fleet.membership import Membership
from repro.fleet.registry import FleetRuleRegistry
from repro.fleet.ring import HashRing
from repro.fleet.transport import HttpNodeClient, free_port, probe_ready
from repro.observe.metrics import MetricsRegistry
from repro.serve.protocol import ExtractRequest, ServeResponse
from repro.serve.rulecache import SharedRuleCache
from repro.serve.runtime import ServeConfig, ServeRuntime

__all__ = ["InProcessFleet", "LocalNodeClient", "SubprocessFleet"]


class LocalNodeClient:
    """A NodeClient calling a same-process ServeRuntime directly."""

    def __init__(self, node_id: str, runtime: ServeRuntime) -> None:
        self.node_id = node_id
        self.runtime = runtime
        self.killed = False

    def handle(self, request: ExtractRequest) -> ServeResponse:
        if self.killed:
            raise NodeUnavailable(self.node_id, "connection refused (killed)")
        return self.runtime.handle(request)

    def healthz(self) -> dict[str, Any]:
        if self.killed:
            raise NodeUnavailable(self.node_id, "connection refused (killed)")
        return {"status": "alive", "state": self.runtime.lifecycle.state}

    def metrics_snapshot(self) -> dict[str, Any]:
        if self.killed:
            raise NodeUnavailable(self.node_id, "connection refused (killed)")
        snapshot: dict[str, Any] = self.runtime.metrics.snapshot()
        return snapshot


class InProcessFleet:
    """A deterministic fleet of thread-runtime nodes on one clock."""

    def __init__(
        self,
        nodes: int = 3,
        *,
        clock: Clock | None = None,
        config: ServeConfig | None = None,
        fetcher: Fetcher | None = None,
        replication: int = 2,
        failover_limit: int = 2,
        lease_ttl: float = 30.0,
        heartbeat_timeout: float = 5.0,
    ) -> None:
        if nodes < 1:
            raise ValueError("a fleet needs at least one node")
        self.clock = clock if clock is not None else SystemClock()
        self.config = config if config is not None else ServeConfig(workers=1)
        self.metrics = MetricsRegistry()
        self.ring = HashRing()
        self.membership = Membership(
            self.ring,
            clock=self.clock,
            metrics=self.metrics,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.registry = FleetRuleRegistry(
            self.ring,
            clock=self.clock,
            metrics=self.metrics,
            lease_ttl=lease_ttl,
            replication=replication,
        )
        self.coordinator = FleetCoordinator(
            ring=self.ring,
            membership=self.membership,
            registry=self.registry,
            clock=self.clock,
            metrics=self.metrics,
            failover_limit=failover_limit,
        )
        self.nodes: dict[str, ServeRuntime] = {}
        self._local_clients: dict[str, LocalNodeClient] = {}
        for index in range(nodes):
            node_id = f"node-{index}"
            metrics = MetricsRegistry()
            rules = SharedRuleCache(
                capacity=self.config.rule_capacity,
                flush_threshold=self.config.flush_threshold,
                metrics=metrics,
                node_id=node_id,
                registry=self.registry,
            )
            runtime = ServeRuntime(
                self.config,
                clock=self.clock,
                fetcher=fetcher,
                rule_cache=rules,
                metrics=metrics,
            )
            self.nodes[node_id] = runtime
            client = LocalNodeClient(node_id, runtime)
            self._local_clients[node_id] = client
            self.registry.register_installer(node_id, rules.adopt_rule)
            self.coordinator.attach(node_id, client)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "InProcessFleet":
        for runtime in self.nodes.values():
            runtime.start()
        self.coordinator.start()
        return self

    def handle(self, request: ExtractRequest) -> ServeResponse:
        return self.coordinator.handle(request)

    def kill(self, node_id: str) -> None:
        """Simulate SIGKILL: unreachable, not drained, leases left behind."""
        self._local_clients[node_id].killed = True
        self.registry.unregister_installer(node_id)

    def drain(self) -> None:
        self.coordinator.drain()
        for node_id, runtime in self.nodes.items():
            if not self._local_clients[node_id].killed:
                runtime.drain()

    # -- test conveniences ---------------------------------------------------

    def owner(self, site: str) -> str | None:
        """The node currently owning ``site`` on the ring."""
        return self.ring.owner(site)

    def counter(self, name: str) -> int:
        """A fleet-level counter's current value (exact under FakeClock)."""
        return self.metrics.counter(name).value


class SubprocessFleet:
    """Real serve processes on real ports behind a real coordinator."""

    def __init__(
        self,
        nodes: int = 3,
        *,
        host: str = "127.0.0.1",
        workers: int = 2,
        corpus: str | None = None,
        rules_dir: str | None = None,
        failover_limit: int = 2,
        heartbeat_timeout: float = 5.0,
        boot_timeout: float = 30.0,
    ) -> None:
        if nodes < 1:
            raise ValueError("a fleet needs at least one node")
        self.host = host
        self.workers = workers
        self.corpus = corpus
        self.rules_dir = rules_dir
        self.boot_timeout = boot_timeout
        self.node_count = nodes
        self.metrics = MetricsRegistry()
        self.ring = HashRing()
        self.membership = Membership(
            self.ring,
            metrics=self.metrics,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.coordinator = FleetCoordinator(
            ring=self.ring,
            membership=self.membership,
            metrics=self.metrics,
            failover_limit=failover_limit,
        )
        self.processes: dict[str, subprocess.Popen[bytes]] = {}
        self.ports: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SubprocessFleet":
        for index in range(self.node_count):
            node_id = f"node-{index}"
            port = free_port(self.host)
            command = [
                sys.executable,
                "-m",
                "repro.serve",
                "--host",
                self.host,
                "--port",
                str(port),
                "--workers",
                str(self.workers),
            ]
            if self.corpus is not None:
                command += ["--corpus", self.corpus]
            if self.rules_dir is not None:
                command += ["--rules", os.path.join(self.rules_dir, f"{node_id}.json")]
            environment = dict(os.environ)
            process = subprocess.Popen(
                command,
                env=environment,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            self.processes[node_id] = process
            self.ports[node_id] = port
        self._await_ready()
        for node_id, port in self.ports.items():
            client = HttpNodeClient(node_id, f"http://{self.host}:{port}")
            self.coordinator.attach(node_id, client)
        self.coordinator.start()
        return self

    def _await_ready(self) -> None:
        clock = SystemClock()
        deadline = clock.monotonic() + self.boot_timeout
        pending = dict(self.ports)
        while pending:
            for node_id, port in list(pending.items()):
                if probe_ready(f"http://{self.host}:{port}"):
                    del pending[node_id]
            if pending and clock.monotonic() > deadline:
                raise TimeoutError(
                    f"fleet nodes never became ready: {sorted(pending)}"
                )
            if pending:
                clock.sleep(0.05)

    def handle(self, request: ExtractRequest) -> ServeResponse:
        return self.coordinator.handle(request)

    def kill(self, node_id: str, *, sig: int = signal.SIGKILL) -> None:
        """Send a real signal to one member process."""
        process = self.processes[node_id]
        process.send_signal(sig)
        if sig == signal.SIGKILL:
            process.wait(timeout=10.0)

    def drain(self) -> None:
        """SIGTERM every live node (their drain contract), then stop."""
        self.coordinator.drain()
        for process in self.processes.values():
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes.values():
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    def __enter__(self) -> "SubprocessFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.drain()
