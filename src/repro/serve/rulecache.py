"""The process-wide rule-cache front: single-flight learning over a RuleStore.

Section 6.6's economics only pay off in a long-running process if rule
discovery is *shared*: when a site redesigns, N concurrent requests all
find the cached rule stale at once, and naively each would rerun the full
Phase 2 discovery -- an N-fold thundering herd on the most expensive code
path.  :class:`SharedRuleCache` makes rediscovery single-flight:

* :meth:`lease` hands out the cached rule (LRU, bounded), *or* elects the
  calling thread as the one **learner** for the site while every other
  caller blocks until the learner publishes;
* :meth:`report_stale` arbitrates redesign detection -- only the holder of
  the *current* rule generation wins the right to relearn (identity
  check), so N threads reporting the same stale rule produce exactly one
  learner and N-1 waiters;
* :meth:`publish` / :meth:`abort` complete or give up a learn, waking the
  waiters either way.

These are the :class:`~repro.core.rules.RuleSource` methods the stage
engine's self-healing loop drives; with a fleet :class:`RuleRegistryClient`
attached they also carry the fleet lease (see :class:`SharedRuleCache`).

Persistence is write-behind: a published rule lands in the backing
:class:`~repro.core.rules.RuleStore` map immediately (cheap, in-memory)
but the JSON file is only written by :meth:`flush` -- called on drain and
whenever enough dirty rules accumulate -- so the request path never pays
for disk I/O.  Sites whose discovery *abstains* are cached negatively
(``rule None``) so they do not serialize behind the learner lock on every
request; :meth:`offer` upgrades a negative entry when a later page of the
site does yield a rule.

Counters (``rules.hits/misses/store_hits/stale/relearned/shared/evicted/
flushes``) land in an injected
:class:`~repro.observe.metrics.MetricsRegistry` under the pinned
``/metrics`` schema.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Protocol

from repro.core.rules import ExtractionRule, RuleLease, RuleStore
from repro.observe.metrics import MetricsRegistry

__all__ = ["RuleLease", "RuleRegistryClient", "SharedRuleCache"]

#: Entry states: a READY entry holds a rule (or a cached abstention);
#: a LEARNING entry means one thread is rediscovering and others wait.
_READY = "ready"
_LEARNING = "learning"


class _Entry:
    __slots__ = ("state", "rule")

    def __init__(self, state: str, rule: ExtractionRule | None) -> None:
        self.state = state
        self.rule = rule


class RuleRegistryClient(Protocol):
    """What a rule cache needs from a fleet-wide rule registry.

    The seam :mod:`repro.fleet.registry` plugs into.  The serve tier
    defines the protocol (rather than importing the fleet tier) so a
    standalone runtime carries no fleet dependency: with no registry the
    single-flight election stays process-local.
    """

    def acquire(self, site: str, node_id: str) -> bool:
        """Try to take the fleet-wide learn lease for ``site``."""
        ...  # pragma: no cover - protocol

    def release(self, site: str, node_id: str) -> None:
        """Give the lease back without publishing (the learn failed)."""
        ...  # pragma: no cover - protocol

    def publish(
        self, site: str, rule: ExtractionRule | None, node_id: str
    ) -> int | None:
        """Publish a learned rule fleet-wide; returns its new version,
        or None when the publish was fenced off (lease lost/stolen)."""
        ...  # pragma: no cover - protocol

    def lookup(self, site: str) -> tuple[ExtractionRule | None, int] | None:
        """The fleet's current ``(rule, version)`` for ``site``, if any."""
        ...  # pragma: no cover - protocol


class SharedRuleCache:
    """Bounded, thread-safe, single-flight front over a :class:`RuleStore`.

    The serving tier's :class:`~repro.core.rules.RuleSource`.  With a
    fleet ``registry`` attached, a local election is only a *candidacy*:
    the elected learner also takes the fleet-wide lease, publishes
    through it, and converges on the fleet's rule by adoption.
    """

    def __init__(
        self,
        store: RuleStore | None = None,
        *,
        capacity: int = 256,
        flush_threshold: int = 32,
        metrics: MetricsRegistry | None = None,
        node_id: str = "node-0",
        registry: RuleRegistryClient | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.store = store if store is not None else RuleStore()
        self.capacity = capacity
        self.flush_threshold = flush_threshold
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.node_id = node_id
        self.registry = registry
        self._cond = threading.Condition()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._dirty: set[str] = set()
        #: Fleet rule version last adopted per site, so a replication
        #: push is applied exactly once and a node never "adopts" its
        #: own publication back.
        self._fleet_versions: dict[str, int] = {}
        #: Sites whose fleet-wide learn lease this node holds.
        self._fleet_leases: set[str] = set()

    # -- the lease protocol -------------------------------------------------

    def lease(self, site: str) -> RuleLease:
        """The cached rule for ``site``, or election as its learner.

        Blocks while another thread is learning the site; the wake-up
        returns whatever that thread published (counted as a *shared*
        rediscovery).
        """
        waited = False
        with self._cond:
            while True:
                entry = self._entries.get(site)
                if entry is None:
                    stored = self.store.get(site)
                    if stored is not None:
                        self._entries[site] = _Entry(_READY, stored)
                        self._entries.move_to_end(site)
                        self._evict_excess()
                        self.metrics.counter("rules.store_hits").inc()
                        return RuleLease(site, stored, learner=False)
                    self._entries[site] = _Entry(_LEARNING, None)
                    self.metrics.counter("rules.misses").inc()
                    break
                if entry.state == _READY:
                    self._entries.move_to_end(site)
                    name = "rules.shared" if waited else "rules.hits"
                    self.metrics.counter(name).inc()
                    return RuleLease(site, entry.rule, learner=False)
                self._cond.wait()
                waited = True
        self._stand_for_fleet(site)
        return RuleLease(site, None, learner=True)

    def report_stale(self, site: str, rule: ExtractionRule) -> bool:
        """A leased rule failed to apply; compete for the right to relearn.

        Returns True for exactly one of N concurrent reporters of the
        same rule generation: the winner transitions the entry to
        LEARNING (and must publish/abort); losers should re-:meth:`lease`
        and wait for the winner's publication.  A reporter whose rule is
        no longer the cached generation (someone already relearned)
        loses immediately.
        """
        with self._cond:
            self.metrics.counter("rules.stale").inc()
            entry = self._entries.get(site)
            if entry is None or entry.state != _READY or entry.rule is not rule:
                return False
            entry.state = _LEARNING
            entry.rule = None
            self.store.invalidate(site)
            self.metrics.counter("rules.relearned").inc()
        self._stand_for_fleet(site)
        return True

    def publish(self, site: str, rule: ExtractionRule | None) -> None:
        """Complete a learn: install ``rule`` (None = cached abstention)."""
        fenced = self._publish_fleet_wide(site, rule)
        flush_after = False
        with self._cond:
            self._entries[site] = _Entry(_READY, rule)
            self._entries.move_to_end(site)
            if rule is not None:
                self.store.put(rule)
                self._dirty.add(site)
                flush_after = len(self._dirty) >= self.flush_threshold
            self._evict_excess()
            self._cond.notify_all()
        if flush_after:
            self.flush()
        if fenced:
            self.adopt_published(site)

    def abort(self, site: str) -> None:
        """Give up a learn (the learner raised); waiters re-elect."""
        with self._cond:
            entry = self._entries.get(site)
            if entry is not None and entry.state == _LEARNING:
                del self._entries[site]
            self._cond.notify_all()
        if self._drop_fleet_lease(site):
            assert self.registry is not None
            self.registry.release(site, self.node_id)

    def offer(self, site: str, rule: ExtractionRule) -> bool:
        """Upgrade a cached abstention with a rule a later page yielded."""
        with self._cond:
            entry = self._entries.get(site)
            if entry is None or entry.state != _READY or entry.rule is not None:
                return False
            entry.rule = rule
            self.store.put(rule)
            self._dirty.add(site)
            self._entries.move_to_end(site)
            return True

    # -- fleet seam ----------------------------------------------------------

    def adopt_rule(
        self, site: str, rule: ExtractionRule | None, version: int
    ) -> bool:
        """Install a rule replicated from the fleet registry.

        The push side of replication, called on every ring replica of
        ``site`` after a publish.  A LEARNING entry is left alone (the
        local publication wins), and the site is *not* marked dirty --
        persistence belongs to the node that learned the rule.  The
        version is recorded only when the install lands, so after a
        refusal the next :meth:`adopt_published` sees the mismatch and
        retries.
        """
        with self._cond:
            entry = self._entries.get(site)
            if entry is not None and entry.state == _LEARNING:
                return False
            self._entries[site] = _Entry(_READY, rule)
            self._entries.move_to_end(site)
            if rule is not None:
                self.store.put(rule)
            else:
                self.store.invalidate(site)
            self._evict_excess()
            self._cond.notify_all()
            self._fleet_versions[site] = version
            return True

    def adopt_published(self, site: str) -> None:
        """Pull-side adoption: converge on the fleet's current rule.

        Called once per request, before the first :meth:`lease`: if the
        fleet holds a version this node has not seen (it joined after the
        push, or missed it), install it so the request applies the fleet
        rule instead of relearning or serving a stale local one.
        """
        if self.registry is None:
            return
        published = self.registry.lookup(site)
        if published is None:
            return
        rule, version = published
        if self._fleet_versions.get(site) != version:
            self.adopt_rule(site, rule, version)

    def _stand_for_fleet(self, site: str) -> None:
        """After a local election: take the fleet-wide learn lease too.

        A node denied the lease (another node is learning the site) still
        learns for its own page and publishes *locally* -- that wakes this
        process's waiters without fighting the fleet learner; the fleet's
        eventual publication supersedes the local rule by adoption.
        """
        if self.registry is not None and self.registry.acquire(site, self.node_id):
            with self._cond:
                self._fleet_leases.add(site)

    def _drop_fleet_lease(self, site: str) -> bool:
        """Forget the site's fleet lease; True when this node held it."""
        with self._cond:
            held = site in self._fleet_leases
            self._fleet_leases.discard(site)
            return held

    def _publish_fleet_wide(self, site: str, rule: ExtractionRule | None) -> bool:
        """Publish through the held fleet lease; True when fenced off."""
        if not self._drop_fleet_lease(site):
            return False
        assert self.registry is not None
        version = self.registry.publish(site, rule, self.node_id)
        if version is None:
            # Fenced: the lease was stolen mid-learn and the stealer's
            # publication stands.  Forget any recorded fleet version so
            # adoption force-installs the fleet truth instead of keeping
            # our discarded rule.
            self._fleet_versions.pop(site, None)
            return True
        self._fleet_versions[site] = version
        return False

    # -- persistence --------------------------------------------------------

    def flush(self) -> int:
        """Write-behind checkpoint: persist the backing store's JSON file.

        Returns the number of dirty sites flushed.  A store created
        without a path (pure in-memory serving) flushes trivially -- the
        rules already live in the store map.
        """
        with self._cond:
            dirty, self._dirty = self._dirty, set()
        if not dirty:
            return 0
        if self.store.path is not None:
            self.store.save()
        self.metrics.counter("rules.flushes").inc()
        return len(dirty)

    def drain_dirty(self) -> list[ExtractionRule]:
        """Atomically take the dirty set and return its current rules.

        The cross-process counterpart of :meth:`flush`: a procpool
        worker's store has no JSON path of its own (N workers writing
        one file would clobber each other), so instead of saving, the
        worker ships its freshly learned rules home and the *parent*
        folds them into the authoritative store and persists them.
        """
        with self._cond:
            dirty, self._dirty = self._dirty, set()
            return [
                rule
                for site in sorted(dirty)
                if (rule := self.store.get(site)) is not None
            ]

    @property
    def dirty_count(self) -> int:
        with self._cond:
            return len(self._dirty)

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        with self._cond:
            return len(self._entries)

    def cached_sites(self) -> list[str]:
        """Sites currently resident in the LRU (sorted)."""
        with self._cond:
            return sorted(self._entries)

    # -- internals ----------------------------------------------------------

    def _evict_excess(self) -> None:
        """Drop least-recent READY entries beyond capacity (lock held).

        LEARNING entries are never evicted -- their waiters hold
        references.  Evicting a rule loses nothing durable: publish
        already copied it into the backing store map, and ``_dirty``
        keeps it scheduled for the next flush.
        """
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        for site in list(self._entries):
            if excess <= 0:
                break
            if self._entries[site].state == _READY:
                del self._entries[site]
                self.metrics.counter("rules.evicted").inc()
                excess -= 1
