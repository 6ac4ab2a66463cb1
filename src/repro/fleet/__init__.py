"""repro.fleet: a consistent-hash multi-node extraction fleet.

One `repro.serve` process serves one box; the paper's target ("heavy
traffic from millions of users", Section 7) needs horizontal sharding.
This package adds the fleet tier above the serve tier, in four layers:

* :mod:`repro.fleet.ring` -- a deterministic consistent-hash ring with
  virtual nodes.  Sites hash onto the ring with the same crc32 primitive
  the procpool shards use (:mod:`repro.core.shard`), so "which node owns
  this site" and "which worker process owns this site" agree by
  construction, and a node join/leave remaps only the keys on the moved
  arcs.

* :mod:`repro.fleet.coordinator` -- the routing front.  ``/extract``
  routes to the owner node of the request's site; a saturated (429) or
  dead node fails over to the next ring replica, bounded; deadlines
  propagate untouched; ``/metrics`` and ``/healthz`` aggregate across
  the fleet.

* :mod:`repro.fleet.registry` -- fleet-wide single-flight rule
  learning.  :class:`~repro.serve.rulecache.SharedRuleCache` already
  guarantees one learner per site per *process*; the registry
  generalizes the election across nodes with lease-based arbitration
  over the Clock seam (a crashed learner's lease expires and is
  stolen), replicates published rules to the site's ring replicas, and
  invalidates replicas by version on relearn.

* :mod:`repro.fleet.membership` -- heartbeats, failure detection, ring
  eviction and readmission.

Two harnesses (:mod:`repro.fleet.harness`): an in-process fleet of
:class:`~repro.serve.runtime.ServeRuntime` nodes on one FakeClock --
fully deterministic, used by the tests -- and a subprocess fleet of real
``python -m repro.serve`` processes behind a real HTTP coordinator, used
by the CI smoke job and ``benchmarks/run_fleet_loadtest.py``.

Everything is stdlib-only, and all socket/urllib use is confined to
:mod:`repro.fleet.transport` (lint rule REP010) so every other module
stays deterministic under test.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.fleet.coordinator": (
            "FleetCoordinator", "NodeClient", "NodeUnavailable",
        ),
        "repro.fleet.membership": ("Membership",),
        "repro.fleet.protocol": ("FLEET_METRICS_SCHEMA",),
        "repro.fleet.registry": ("FleetRuleRegistry",),
        "repro.fleet.ring": ("HashRing",),
    },
)

__all__ = [
    "FLEET_METRICS_SCHEMA",
    "FleetCoordinator",
    "FleetRuleRegistry",
    "HashRing",
    "Membership",
    "NodeClient",
    "NodeUnavailable",
]
