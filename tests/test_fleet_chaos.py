"""Chaos acceptance: SIGKILL a node mid-learn, the fleet stays correct.

The contract under test (ISSUE 10 tentpole):

* exactly one re-elected learner fleet-wide (lease steal, not a second
  concurrent discovery),
* zero lost rules (the stealing learner's publication is the fleet
  truth; the zombie's late publication is fenced off and discarded),
* zero dropped requests (the in-flight request still answers; every
  request after the kill fails over to a live replica).

``TestChaosInProcess`` replays the whole scenario deterministically on
a FakeClock with exact counter assertions -- the kill happens while the
owner is provably blocked inside discovery *holding the fleet lease*.
``TestChaosSubprocess`` (slow) sends a real ``SIGKILL`` to a real
``python -m repro.serve`` process behind the HTTP coordinator.
"""

from __future__ import annotations

import threading

import pytest

from repro.fetch.base import FakeClock
from repro.fleet.harness import InProcessFleet, SubprocessFleet
from repro.serve.protocol import ExtractRequest

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


class TestChaosInProcess:
    def test_sigkill_mid_learn_elects_exactly_one_relearner(self):
        clock = FakeClock()
        site = "chaos.example"
        fleet = InProcessFleet(3, clock=clock, lease_ttl=30.0).start()
        owner = fleet.owner(site)
        assert owner is not None
        owner_runtime = fleet.nodes[owner]

        # Gate the owner's discovery: its learn acquires the fleet lease,
        # then blocks -- the precise instant a SIGKILL is most damaging.
        gate = threading.Event()
        entered = threading.Event()
        real_run_plan = owner_runtime.core.extractor.engine.run_plan

        def gated_run_plan(plan, ctx):
            entered.set()
            assert gate.wait(timeout=30)
            return real_run_plan(plan, ctx)

        owner_runtime.core.extractor.engine.run_plan = gated_run_plan

        responses = {}

        def in_flight():
            responses["zombie"] = fleet.handle(table_request(site))

        try:
            learner_thread = threading.Thread(target=in_flight)
            learner_thread.start()
            assert entered.wait(timeout=30)
            # Mid-learn, the owner holds the fleet-wide lease.
            assert fleet.registry.current_learner(site) == owner
            assert fleet.counter("fleet.lease.elections") == 1

            fleet.kill(owner)  # unreachable; lease NOT released
            clock.advance(31.0)  # the orphaned lease expires

            # Next request: owner unreachable -> failover -> the replica
            # steals the expired lease and becomes the one relearner.
            response = fleet.handle(table_request(site))
            assert response.status == 200
            assert response.headers["X-Fleet-Node"] != owner
            assert response.headers["X-Fleet-Attempts"] == "2"
            assert response.payload["record_count"] == 6
            assert fleet.counter("fleet.failover") == 1
            assert fleet.counter("fleet.node.evicted") == 1
            assert fleet.counter("fleet.lease.stolen") == 1
            assert fleet.counter("fleet.lease.elections") == 2  # not three

            published = fleet.registry.lookup(site)
            assert published is not None
            stolen_rule, stolen_version = published

            # The zombie wakes up, finishes discovery, and tries to
            # publish -- fencing discards it; the stolen rule stands.
            gate.set()
            learner_thread.join(timeout=30)
            assert not learner_thread.is_alive()
            assert fleet.registry.lookup(site) == (stolen_rule, stolen_version)
            assert fleet.counter("fleet.lease.elections") == 2
            assert fleet.registry.current_learner(site) is None

            # Fenced-publish convergence: the discard returned None, so
            # the zombie recorded no version and re-adopted the fleet
            # truth.  (Were the steal's version returned instead, the
            # zombie would see it "already adopted" and serve its
            # discarded rule forever.)
            assert owner_runtime.rules._fleet_versions[site] == stolen_version

            # Zero dropped requests: the in-flight request was answered
            # too (the process "died" for the fleet, but an honest kill
            # leaves the already-accepted work to finish locally).
            zombie = responses["zombie"]
            assert zombie.status == 200
            assert zombie.payload["record_count"] == 6

            # Eviction reshaped the chain before the steal-publish, so
            # replication pushed to the surviving third node -- not to
            # the dead owner (its installer is gone).  No rule is lost
            # even if the *stealer* dies next.
            assert fleet.counter("fleet.replication.pushed") == 1
            survivor = fleet.ring.replicas(site, 2)[-1]
            warm = fleet.nodes[survivor].handle(table_request(site))
            assert warm.payload["used_cached_rule"] is True
        finally:
            gate.set()
            fleet.drain()
            owner_runtime.drain()  # killed nodes are skipped by fleet.drain

    def test_requests_never_hang_while_the_lease_is_orphaned(self):
        # Before the TTL expires, the orphaned lease denies the fleet
        # election -- but requests still answer via private discovery
        # (local publish), never blocking on the dead learner.
        clock = FakeClock()
        site = "orphan.example"
        fleet = InProcessFleet(3, clock=clock, lease_ttl=30.0).start()
        try:
            owner = fleet.owner(site)
            assert owner is not None
            assert fleet.registry.acquire(site, owner)  # owner "mid-learn"
            fleet.kill(owner)
            clock.advance(5.0)  # lease still live

            response = fleet.handle(table_request(site))
            assert response.status == 200
            assert response.payload["record_count"] == 6
            # No steal, no new election, nothing published fleet-wide.
            assert fleet.counter("fleet.lease.stolen") == 0
            assert fleet.counter("fleet.lease.elections") == 1
            assert fleet.registry.lookup(site) is None
            responder = response.headers["X-Fleet-Node"]

            clock.advance(26.0)  # now the TTL lapses
            # A node with no private rule learns next -> it steals the
            # orphaned lease and restores the fleet-wide publication.
            outsider = next(
                node for node in fleet.nodes if node not in (owner, responder)
            )
            relearned = fleet.nodes[outsider].handle(table_request(site))
            assert relearned.status == 200
            assert fleet.counter("fleet.lease.stolen") == 1
            assert fleet.registry.lookup(site) is not None
        finally:
            fleet.drain()


@pytest.mark.slow
class TestChaosSubprocess:
    def test_real_sigkill_fails_over_and_drains_cleanly(self):
        site = "chaos-subprocess.example"
        with SubprocessFleet(3, workers=2) as fleet:
            first = fleet.handle(table_request(site))
            assert first.status == 200
            owner = first.headers["X-Fleet-Node"]
            assert owner == fleet.ring.owner(site)
            record_count = first.payload["record_count"]
            assert record_count == 6

            fleet.kill(owner)  # a real SIGKILL to a real process

            answered_by = set()
            for _ in range(4):
                response = fleet.handle(table_request(site))
                # Zero dropped requests: every one answers, none hang.
                assert response.status == 200
                assert response.payload["record_count"] == record_count
                answered_by.add(response.headers["X-Fleet-Node"])
            assert owner not in answered_by
            assert fleet.metrics.counter("fleet.node.evicted").value == 1
            assert fleet.metrics.counter("fleet.failover").value >= 1
        # __exit__ drained: SIGTERM honoured, every process reaped.
        assert all(
            process.poll() is not None for process in fleet.processes.values()
        )
