"""Fleet-wide single-flight rule learning: leases, versions, replication.

:class:`~repro.serve.rulecache.SharedRuleCache` already guarantees one
learner per site per *process*; this registry generalizes the election
across nodes.  The protocol, from a node's point of view (the
:class:`~repro.serve.rulecache.RuleRegistryClient` seam):

1. A node whose local cache elected it learner calls :meth:`acquire`.
   Exactly one node holds the lease for a site at a time; everyone else
   is denied and learns privately (local publish only, superseded later
   by the fleet publication).
2. The lease holder runs discovery and calls :meth:`publish` -- the
   rule gets a new monotone **version**, is recorded as the site's
   fleet truth, and is pushed to the site's ring replicas (their
   ``adopt_rule`` installers); the lease is released.
3. A learner that dies without publishing is handled by **TTL expiry**:
   its lease outlives it only until ``lease_ttl`` seconds (on the
   injected Clock) have passed, after which the next :meth:`acquire`
   *steals* the lease -- the chaos-test path: SIGKILL mid-learn, clock
   advances, exactly one new learner is elected fleet-wide.

Versions arbitrate replication races: :meth:`invalidate` drops a site's
fleet rule only if the caller names the *current* version (a node
stale-reporting an old replica cannot clobber a newer rule), and a
publish that supersedes an existing version counts
``fleet.replication.invalidated`` for every replica holding the old one.

All state is in one process (the coordinator's); nodes in subprocess
mode get single-learner behaviour structurally -- the ring routes each
site to one node -- while the in-process harness exercises this protocol
directly and deterministically on a FakeClock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.core.rules import ExtractionRule
from repro.fetch.base import Clock, SystemClock
from repro.fleet.ring import HashRing
from repro.observe.metrics import MetricsRegistry

__all__ = ["FleetRuleRegistry", "RuleInstaller"]

#: A node-side hook installing a replicated ``(site, rule, version)``;
#: :meth:`repro.serve.rulecache.SharedRuleCache.adopt_rule` satisfies it.
RuleInstaller = Callable[[str, ExtractionRule | None, int], bool]

#: Default seconds a learn lease survives its holder.  Generous against
#: a slow discovery, tiny against a human noticing a stuck site.
DEFAULT_LEASE_TTL = 30.0


@dataclass
class _Lease:
    node_id: str
    expires: float


@dataclass
class _Published:
    rule: ExtractionRule | None
    version: int


class FleetRuleRegistry:
    """Lease-based exactly-one-learner-per-site arbitration, fleet-wide."""

    def __init__(
        self,
        ring: HashRing,
        *,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        replication: int = 2,
    ) -> None:
        if lease_ttl <= 0.0:
            raise ValueError("lease_ttl must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.ring = ring
        self.clock = clock if clock is not None else SystemClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.lease_ttl = lease_ttl
        self.replication = replication
        self._lock = threading.Lock()
        self._leases: dict[str, _Lease] = {}
        self._published: dict[str, _Published] = {}
        self._versions = 0
        self._installers: dict[str, RuleInstaller] = {}

    # -- node wiring ---------------------------------------------------------

    def register_installer(self, node_id: str, installer: RuleInstaller) -> None:
        """Attach a node's replication hook (in-process harness wiring)."""
        with self._lock:
            self._installers[node_id] = installer

    def unregister_installer(self, node_id: str) -> None:
        with self._lock:
            self._installers.pop(node_id, None)

    # -- the lease protocol (RuleRegistryClient) -----------------------------

    def acquire(self, site: str, node_id: str) -> bool:
        """Try to take the fleet-wide learn lease for ``site``.

        Granted when the site is unleased, re-entered by its current
        holder, or held by an *expired* lease -- the last case is a
        steal (``fleet.lease.stolen``): the previous learner died or
        stalled past the TTL, and arbitration moves on.  Every grant
        counts ``fleet.lease.elections``.
        """
        now = self.clock.monotonic()
        with self._lock:
            lease = self._leases.get(site)
            if lease is not None and lease.node_id == node_id:
                lease.expires = now + self.lease_ttl
                return True
            if lease is not None and lease.expires > now:
                return False
            if lease is not None:
                self.metrics.counter("fleet.lease.stolen").inc()
            self._leases[site] = _Lease(node_id, now + self.lease_ttl)
            self.metrics.counter("fleet.lease.elections").inc()
            return True

    def release(self, site: str, node_id: str) -> None:
        """Give the lease back without publishing (the learn failed)."""
        with self._lock:
            lease = self._leases.get(site)
            if lease is not None and lease.node_id == node_id:
                del self._leases[site]

    def publish(
        self, site: str, rule: ExtractionRule | None, node_id: str
    ) -> int | None:
        """Record ``rule`` as the site's fleet truth and replicate it.

        Returns the new monotone version.  Publishing releases the
        caller's lease; the push fans out to the site's ring replicas
        *except the publisher itself* (its local cache already holds the
        rule).  A publish that supersedes an earlier version counts one
        ``fleet.replication.invalidated`` per replica whose copy it
        replaces.

        **Fencing**: only the site's lease holder may publish.  A
        learner that stalled past its TTL and was stolen from (the
        zombie-learner case: a SIGKILLed node's thread somehow limps on,
        or a livelocked learner wakes up late) finds its lease gone and
        its publication *discarded*, signalled by a ``None`` return --
        the stealing learner's fresher rule stands.  ``None`` is
        deliberately not a version: the caller must record nothing and
        re-adopt the fleet's current rule, otherwise a steal whose
        publish landed *first* would hand the zombie a version that
        matches a future :meth:`lookup` and freeze its stale rule in
        place.
        """
        with self._lock:
            lease = self._leases.get(site)
            if lease is None or lease.node_id != node_id:
                return None
            self._versions += 1
            version = self._versions
            superseded = site in self._published
            self._published[site] = _Published(rule, version)
            lease = self._leases.get(site)
            if lease is not None and lease.node_id == node_id:
                del self._leases[site]
            replicas = [
                replica
                for replica in self.ring.replicas(site, self.replication)
                if replica != node_id
            ]
            pushes = [
                (replica, installer)
                for replica in replicas
                if (installer := self._installers.get(replica)) is not None
            ]
        for _, installer in pushes:
            installer(site, rule, version)
            self.metrics.counter("fleet.replication.pushed").inc()
            if superseded:
                self.metrics.counter("fleet.replication.invalidated").inc()
        return version

    def lookup(self, site: str) -> tuple[ExtractionRule | None, int] | None:
        """The fleet's current ``(rule, version)`` for ``site``, if any."""
        with self._lock:
            published = self._published.get(site)
            if published is None:
                return None
            return (published.rule, published.version)

    # -- versioned invalidation ---------------------------------------------

    def invalidate(self, site: str, version: int) -> bool:
        """Drop the site's fleet rule *iff* ``version`` is still current.

        The compare-and-swap guard: a node that found its replica stale
        names the version it held, so if another node already published
        a newer rule the invalidation loses and the newer rule stands.
        """
        with self._lock:
            published = self._published.get(site)
            if published is None or published.version != version:
                return False
            del self._published[site]
            self.metrics.counter("fleet.replication.invalidated").inc()
            return True

    # -- inspection ----------------------------------------------------------

    def published_sites(self) -> list[str]:
        """Sites with a fleet-published rule (sorted)."""
        with self._lock:
            return sorted(self._published)

    def current_learner(self, site: str) -> str | None:
        """The node holding a *live* lease for ``site``, if any."""
        now = self.clock.monotonic()
        with self._lock:
            lease = self._leases.get(site)
            if lease is None or lease.expires <= now:
                return None
            return lease.node_id
