"""Deterministic tests for fleet routing, failover, and aggregation.

Everything here drives the real :class:`FleetCoordinator` over the real
in-process harness (N ServeRuntime nodes, one FakeClock) -- no sockets,
no sleeps, exact counter assertions.
"""

from __future__ import annotations

import pytest

from repro.fetch.base import FakeClock
from repro.fleet.harness import InProcessFleet
from repro.fleet.protocol import FLEET_METRICS_SCHEMA
from repro.serve.protocol import ExtractRequest, validate_metrics
from repro.serve.runtime import ServeConfig

TABLE_HTML = (
    "<html><body><table>"
    + "".join(
        f"<tr><td>row {index} name</td><td>row {index} price</td></tr>"
        for index in range(6)
    )
    + "</table></body></html>"
)


def table_request(site: str) -> ExtractRequest:
    return ExtractRequest(html=TABLE_HTML, site=site)


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def fleet(clock):
    built = InProcessFleet(3, clock=clock).start()
    yield built
    built.drain()


class TestRouting:
    def test_routes_to_the_ring_owner(self, fleet):
        site = "route.example"
        response = fleet.handle(table_request(site))
        assert response.status == 200
        assert response.headers["X-Fleet-Node"] == fleet.owner(site)
        assert response.headers["X-Fleet-Attempts"] == "1"
        assert fleet.counter("fleet.routed") == 1
        assert fleet.counter("fleet.failover") == 0

    def test_same_site_sticks_to_one_node(self, fleet):
        site = "sticky.example"
        nodes = {
            fleet.handle(table_request(site)).headers["X-Fleet-Node"]
            for _ in range(5)
        }
        assert nodes == {fleet.owner(site)}

    def test_rule_learned_once_and_reused(self, fleet):
        site = "learnonce.example"
        first = fleet.handle(table_request(site))
        second = fleet.handle(table_request(site))
        assert first.payload["used_cached_rule"] is False
        assert second.payload["used_cached_rule"] is True
        assert fleet.counter("fleet.lease.elections") == 1

    def test_node_envelope_passes_through_unchanged(self, fleet):
        response = fleet.handle(table_request("envelope.example"))
        assert response.payload["status"] == "ok"
        assert response.payload["record_count"] == 6
        assert response.payload["separator"] == "tr"

    def test_draining_coordinator_answers_503(self, clock):
        fleet = InProcessFleet(2, clock=clock).start()
        fleet.drain()
        response = fleet.handle(table_request("late.example"))
        assert response.status == 503
        assert response.payload["error"]["kind"] == "draining"
        assert response.headers["X-Fleet-Attempts"] == "0"


class TestFailover:
    def test_dead_owner_fails_over_and_evicts(self, fleet):
        site = "failover.example"
        fleet.handle(table_request(site))  # learn on the owner
        owner = fleet.owner(site)
        fleet.kill(owner)
        response = fleet.handle(table_request(site))
        assert response.status == 200
        assert response.headers["X-Fleet-Node"] != owner
        assert response.headers["X-Fleet-Attempts"] == "2"
        assert fleet.counter("fleet.failover") == 1
        assert fleet.counter("fleet.node.evicted") == 1
        # Eviction re-routes: the next request goes straight there.
        follow_up = fleet.handle(table_request(site))
        assert follow_up.headers["X-Fleet-Attempts"] == "1"
        assert fleet.counter("fleet.failover") == 1

    def test_replica_has_the_rule_already(self, fleet):
        site = "warm.example"
        fleet.handle(table_request(site))
        replicas = fleet.ring.replicas(site, 2)
        assert len(replicas) == 2
        fleet.kill(replicas[0])
        response = fleet.handle(table_request(site))
        # Replication pushed the learned rule to the failover target, so
        # the very first failed-over request applies it (no relearn).
        assert response.payload["used_cached_rule"] is True
        assert fleet.counter("fleet.lease.elections") == 1

    def test_whole_fleet_down_is_a_clean_503(self, fleet):
        for node_id in list(fleet.nodes):
            fleet.kill(node_id)
        response = fleet.handle(table_request("nobody.example"))
        assert response.status == 503
        assert response.payload["error"]["kind"] == "no_members"

    def test_all_replicas_saturated_passes_429_through(self, clock):
        fleet = InProcessFleet(
            3,
            clock=clock,
            # workers=1 + queue_limit=1: one stuck request and one
            # queued request saturate a node deterministically.
            config=ServeConfig(workers=1, queue_limit=1, retry_after=2.0),
        ).start()
        try:
            site = "saturate.example"
            chain = fleet.ring.replicas(site, 2)
            import threading

            gate = threading.Event()
            entered = threading.Semaphore(0)

            class GateFetcher:
                def fetch(self, url, *, site=None):
                    from repro.fetch.base import FetchResult

                    entered.release()
                    assert gate.wait(timeout=30)
                    return FetchResult.of(url, TABLE_HTML, site=site)

            tickets = []
            for node_id in chain:
                runtime = fleet.nodes[node_id]
                runtime.core.fetcher = GateFetcher()
                blocker = runtime.submit(
                    ExtractRequest(url=f"http://{site}/p.html", site=site)
                )
                tickets.append((runtime, blocker))
                assert entered.acquire(timeout=30)
                queued = runtime.submit(
                    ExtractRequest(url=f"http://{site}/p.html", site=site)
                )
                tickets.append((runtime, queued))
            response = fleet.handle(table_request(site))
            assert response.status == 429
            assert response.headers["Retry-After"] == "2"
            assert response.headers["X-Fleet-Attempts"] == "2"
            assert fleet.counter("fleet.failover") == 1
            assert fleet.counter("fleet.routed") == 0
            gate.set()
            for runtime, ticket in tickets:
                runtime.wait(ticket, timeout=30)
        finally:
            gate.set()
            fleet.drain()


class TestSingleLearnerFleetWide:
    def test_denied_lease_learns_privately_without_election(self, fleet):
        site = "contended.example"
        owner = fleet.owner(site)
        other = next(n for n in fleet.nodes if n != owner)
        # Another node holds the fleet lease (it is mid-learn).
        assert fleet.registry.acquire(site, "node-external")
        response = fleet.nodes[other].handle(table_request(site))
        assert response.status == 200
        # The denied node still answered (private discovery + local
        # publish) but did not win a fleet election or publish fleet-wide.
        assert fleet.counter("fleet.lease.elections") == 1  # the external one
        assert fleet.registry.lookup(site) is None

    def test_late_joiner_adopts_published_rule(self, fleet):
        site = "adopt.example"
        fleet.handle(table_request(site))
        published = fleet.registry.lookup(site)
        assert published is not None
        rule, version = published
        # A node outside the replica set serves the site after failovers:
        replicas = fleet.ring.replicas(site, 3)
        outsider = fleet.nodes[replicas[-1]]
        response = outsider.handle(table_request(site))
        # Pull-side adoption: it applies the fleet rule, no new election.
        assert response.payload["used_cached_rule"] is True
        assert fleet.counter("fleet.lease.elections") == 1

    def test_refused_install_leaves_version_unrecorded(self, fleet):
        site = "refused.example"
        fleet.handle(table_request(site))  # publish the site fleet-wide
        published = fleet.registry.lookup(site)
        assert published is not None
        rule, version = published
        outsider = fleet.nodes[fleet.ring.replicas(site, 3)[-1]].rules
        # A local learn is in flight on the outsider when the push
        # arrives: install is refused, and the version must NOT be
        # recorded -- recording it would make adopt_published treat the
        # fleet rule as already adopted and never install it.  Another
        # node holds the fleet lease, so the outsider learns privately.
        assert fleet.registry.acquire(site, "node-external")
        lease = outsider.lease(site)
        assert lease.learner
        assert outsider.adopt_rule(site, rule, version) is False
        assert site not in outsider._fleet_versions
        # Once the local learn completes, pull-side adoption converges.
        outsider.publish(site, None)  # local discovery abstained
        outsider.adopt_published(site)
        assert outsider._fleet_versions[site] == version
        assert outsider.lease(site).rule == rule


class TestAggregation:
    def test_fleet_healthz_reports_every_member(self, fleet):
        health = fleet.coordinator.fleet_healthz()
        assert health["members"] == ["node-0", "node-1", "node-2"]
        assert set(health["nodes"]) == {"node-0", "node-1", "node-2"}
        assert all(n["state"] == "ready" for n in health["nodes"].values())

    def test_killed_node_shows_evicted_after_detection(self, fleet):
        fleet.handle(table_request("a.example"))
        victim = fleet.owner("a.example")
        fleet.kill(victim)
        fleet.handle(table_request("a.example"))  # triggers detection
        health = fleet.coordinator.fleet_healthz()
        assert health["nodes"][victim] == {"status": "evicted"}
        assert victim not in health["members"]

    def test_merged_metrics_validate_and_sum(self, fleet):
        for index in range(4):
            fleet.handle(table_request(f"sum-{index}.example"))
        merged = fleet.coordinator.fleet_metrics().snapshot()
        assert validate_metrics(merged, FLEET_METRICS_SCHEMA) == []
        # Node counters sum across members: 4 requests were accepted
        # *somewhere*; the merged view sees all of them.
        assert merged["counters"]["serve.accepted"] == 4
        assert merged["counters"]["fleet.routed"] == 4

    def test_first_scrape_is_schema_complete(self, clock):
        fleet = InProcessFleet(2, clock=clock).start()
        try:
            merged = fleet.coordinator.fleet_metrics().snapshot()
            assert validate_metrics(merged, FLEET_METRICS_SCHEMA) == []
        finally:
            fleet.drain()


class TestAdministrativeLeave:
    def test_detach_leaves_without_counting_eviction(self, fleet):
        fleet.coordinator.detach("node-1")
        assert "node-1" not in fleet.membership.members()
        assert "node-1" not in fleet.ring.nodes()
        # A planned removal is not failure detection.
        assert fleet.counter("fleet.node.evicted") == 0
        response = fleet.handle(table_request("after-leave.example"))
        assert response.status == 200

    def test_leave_unknown_member_is_a_noop(self, fleet):
        assert fleet.membership.leave("node-9") is False
        assert fleet.counter("fleet.node.evicted") == 0


class TestHeartbeatProbing:
    """The prober must fan out: one black-holed member (packets dropped,
    its probe burning the whole transport timeout) must neither stall
    the round nor age healthy members' heartbeats into a mass eviction.

    Real threads and real time (small budgets), since the probe round is
    the one fleet path that exists only for the wall-clock world.
    """

    def test_blackholed_member_does_not_stall_the_round(self):
        import threading
        import time

        from repro.fleet.__main__ import _probe_round
        from repro.fleet.coordinator import FleetCoordinator, NodeUnavailable
        from repro.fleet.membership import Membership
        from repro.fleet.ring import HashRing
        from repro.observe.metrics import MetricsRegistry

        release = threading.Event()

        class Healthy:
            def healthz(self):
                return {"status": "alive"}

        class BlackHole:
            def healthz(self):
                release.wait(timeout=30.0)  # a hung transport
                raise NodeUnavailable("node-hole", "timed out")

        metrics = MetricsRegistry()
        ring = HashRing()
        membership = Membership(ring, metrics=metrics, heartbeat_timeout=5.0)
        coordinator = FleetCoordinator(
            ring=ring, membership=membership, metrics=metrics
        )
        coordinator.attach("node-ok", Healthy())
        coordinator.attach("node-hole", BlackHole())
        try:
            started = time.monotonic()
            _probe_round(coordinator, budget=0.2)
            elapsed = time.monotonic() - started
            # The round ended on its own budget, not the hung probe's
            # transport timeout...
            assert elapsed < 5.0
            # ...the healthy member was heartbeated by its own probe,
            # and nobody was swept.
            assert membership.alive("node-ok")
            assert membership.alive("node-hole")
            assert metrics.counter("fleet.node.evicted").value == 0
        finally:
            release.set()
