"""The fleet routing front: site-hash routing, bounded failover, aggregation.

:class:`FleetCoordinator` is transport-agnostic: it routes
:class:`~repro.serve.protocol.ExtractRequest` objects to
:class:`NodeClient` handles and returns
:class:`~repro.serve.protocol.ServeResponse` envelopes, so the
deterministic tests drive it with in-process clients and the HTTP front
(:mod:`repro.fleet.http`) is a thin translation, exactly like the
serve tier's runtime/server split.

Routing policy, per request:

1. Derive the routing key with the *same* function the procpool shards
   use (:func:`repro.serve.protocol.routing_key`), hash it onto the
   ring, and take the first ``failover_limit`` distinct replicas.
2. Try each replica in ring order.  A node answering anything but 429
   ends the walk (the node's envelope passes through unchanged -- the
   coordinator is transparent; its own facts travel in the
   ``X-Fleet-Node`` / ``X-Fleet-Attempts`` response headers).  A 429
   (node admission queue full) or an unreachable node
   (:class:`NodeUnavailable`, which also evicts the node through
   membership) moves to the next replica and counts
   ``fleet.failover``.
3. Every replica saturated -> the last 429 passes through, so the
   client sees the node's own ``Retry-After``.  No replica reachable ->
   a clean 503, never a hang.

Deadlines propagate untouched: the request's budget rides inside the
forwarded body and each node enforces it locally, so a failover chain
never grants a request more total time than the client asked for.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.fetch.base import Clock, SystemClock
from repro.fleet.membership import Membership
from repro.fleet.protocol import FLEET_METRICS_SCHEMA
from repro.fleet.registry import FleetRuleRegistry
from repro.fleet.ring import HashRing
from repro.observe.metrics import MetricsRegistry, merge_snapshots
from repro.serve.lifecycle import DRAINING, READY, STOPPED, Lifecycle
from repro.serve.protocol import (
    ExtractRequest,
    ServeResponse,
    draining_response,
    error_response,
    routing_key,
)

__all__ = ["FleetCoordinator", "NodeClient", "NodeUnavailable"]

#: Default number of distinct ring replicas tried before giving up.
DEFAULT_FAILOVER_LIMIT = 2


class NodeUnavailable(Exception):
    """A member node could not be reached (connection refused, timeout)."""

    def __init__(self, node_id: str, reason: str) -> None:
        super().__init__(f"{node_id}: {reason}")
        self.node_id = node_id
        self.reason = reason


class NodeClient(Protocol):
    """What the coordinator needs from one member node.

    The in-process harness wraps a :class:`~repro.serve.runtime.
    ServeRuntime` directly; :class:`~repro.fleet.transport.HttpNodeClient`
    speaks to a real serve process.  All methods either answer or raise
    :class:`NodeUnavailable` -- never hang past their transport timeout.
    """

    def handle(self, request: ExtractRequest) -> ServeResponse:
        """Forward one extraction request."""
        ...  # pragma: no cover - protocol

    def healthz(self) -> dict[str, Any]:
        """The node's liveness payload."""
        ...  # pragma: no cover - protocol

    def metrics_snapshot(self) -> dict[str, Any]:
        """The node's full metrics snapshot."""
        ...  # pragma: no cover - protocol


class FleetCoordinator:
    """Route requests across the fleet; aggregate its health and metrics."""

    def __init__(
        self,
        *,
        ring: HashRing | None = None,
        membership: Membership | None = None,
        registry: FleetRuleRegistry | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        failover_limit: int = DEFAULT_FAILOVER_LIMIT,
    ) -> None:
        if failover_limit < 1:
            raise ValueError("failover_limit must be >= 1")
        self.clock = clock if clock is not None else SystemClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring = ring if ring is not None else HashRing()
        self.membership = (
            membership
            if membership is not None
            else Membership(self.ring, clock=self.clock, metrics=self.metrics)
        )
        self.registry = registry
        self.failover_limit = failover_limit
        self.lifecycle = Lifecycle(clock=self.clock)
        self._clients: dict[str, NodeClient] = {}
        self.metrics.preregister(FLEET_METRICS_SCHEMA)

    # -- membership wiring ---------------------------------------------------

    def attach(self, node_id: str, client: NodeClient) -> None:
        """Join ``node_id`` to the fleet behind ``client``."""
        self._clients[node_id] = client
        self.membership.join(node_id)

    def detach(self, node_id: str) -> None:
        """Remove ``node_id`` entirely (administrative leave).

        Routes through :meth:`Membership.leave`, not
        :meth:`~Membership.report_failure`: a planned removal must not
        count ``fleet.node.evicted``.
        """
        self._clients.pop(node_id, None)
        self.membership.leave(node_id)

    def clients(self) -> dict[str, NodeClient]:
        return dict(self._clients)

    # -- lifecycle (ServeRuntimeLike shape) ----------------------------------

    def start(self) -> "FleetCoordinator":
        self.lifecycle.advance(READY)
        return self

    def drain(self, join_timeout: float | None = None) -> None:
        """Close admission.  Member nodes drain themselves (the harness
        or the operator owns their processes); idempotent."""
        if self.lifecycle.state in (DRAINING, STOPPED):
            return
        self.lifecycle.advance(DRAINING)
        self.lifecycle.advance(STOPPED)

    # -- the routing path ----------------------------------------------------

    def handle(self, request: ExtractRequest) -> ServeResponse:
        """Route one request to its owner node, failing over bounded."""
        start = self.clock.monotonic()
        try:
            return self._route(request)
        finally:
            self.metrics.histogram("fleet.request.seconds").observe(
                max(0.0, self.clock.monotonic() - start)
            )

    def _route(self, request: ExtractRequest) -> ServeResponse:
        if not self.lifecycle.accepting:
            return self._stamp(draining_response(), node="", attempts=0)
        key = routing_key(request)
        attempts = 0
        saturated: ServeResponse | None = None
        # Snapshot the chain up front: an eviction mid-walk must not
        # re-route the *current* request back to an already-tried node.
        chain = self.ring.replicas(key, self.failover_limit)
        for node_id in chain:
            client = self._clients.get(node_id)
            if client is None or not self.membership.alive(node_id):
                continue
            if attempts > 0:
                self.metrics.counter("fleet.failover").inc()
            attempts += 1
            try:
                response = client.handle(request)
            except NodeUnavailable:
                # Dead mid-request: evict now so the *next* request
                # routes around it without burning an attempt.
                self.membership.report_failure(node_id)
                continue
            if response.status == 429:
                saturated = response
                continue
            self.metrics.counter("fleet.routed").inc()
            return self._stamp(response, node=node_id, attempts=attempts)
        if saturated is not None:
            # Every reachable replica is saturated: pass the last 429
            # through so the client backs off by the node's own hint.
            return self._stamp(saturated, node="", attempts=attempts)
        return self._stamp(
            error_response(
                503,
                "no_members",
                "no reachable fleet member owns this request",
            ),
            node="",
            attempts=attempts,
        )

    @staticmethod
    def _stamp(
        response: ServeResponse, *, node: str, attempts: int
    ) -> ServeResponse:
        """Attach the coordinator's routing facts as response headers."""
        headers = dict(response.headers)
        if node:
            headers["X-Fleet-Node"] = node
        headers["X-Fleet-Attempts"] = str(attempts)
        return ServeResponse(
            status=response.status, payload=response.payload, headers=headers
        )

    # -- aggregation ---------------------------------------------------------

    def fleet_healthz(self) -> dict[str, Any]:
        """Fleet-wide liveness: coordinator state plus per-node health."""
        nodes: dict[str, Any] = {}
        for node_id, client in sorted(self._clients.items()):
            if not self.membership.alive(node_id):
                nodes[node_id] = {"status": "evicted"}
                continue
            try:
                nodes[node_id] = client.healthz()
            except NodeUnavailable as error:
                nodes[node_id] = {"status": "unreachable", "reason": error.reason}
        return {
            "status": "alive",
            "state": self.lifecycle.state,
            "members": self.membership.members(),
            "nodes": nodes,
        }

    def fleet_metrics(self) -> MetricsRegistry:
        """One registry merging the coordinator's counters and every
        reachable node's snapshot (schema pre-registered, so the merged
        snapshot validates against ``FLEET_METRICS_SCHEMA`` even before
        any traffic)."""
        snapshots: list[dict[str, Any]] = [self.metrics.snapshot()]
        for node_id, client in sorted(self._clients.items()):
            if not self.membership.alive(node_id):
                continue
            try:
                snapshots.append(client.metrics_snapshot())
            except NodeUnavailable:
                continue
        merged = MetricsRegistry()
        merged.preregister(FLEET_METRICS_SCHEMA)
        return merge_snapshots(snapshots, registry=merged)
