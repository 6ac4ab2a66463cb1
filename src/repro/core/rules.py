"""Cached extraction rules (Section 6.6 of the paper).

"Since the structure of websites does not change often, it may be worthwhile
to store rules that allow the subtree and object separator to be immediately
chosen, rather than discovering them every time."  An
:class:`ExtractionRule` records the discovered minimal-subtree path and
separator tag for a site; :class:`RuleStore` keys rules by site and persists
them as JSON.  Applying a rule skips both Phase 2 steps -- Table 17 of the
paper shows this makes choose+construct an order of magnitude faster, with
total time dominated by read+parse; our Table 17 bench confirms the same
shape.

A rule can go *stale* when the site redesigns: :meth:`ExtractionRule.apply`
raises :class:`StaleRuleError` when the stored path no longer resolves or
the separator tag no longer occurs, and the pipeline falls back to full
discovery (and re-learns the rule) -- the self-healing behaviour that makes
Omini robust where hand-written wrappers break.

The stage engine reaches rules through the :class:`RuleSource` protocol;
:class:`RuleStore` is its trivial implementation.

The store is thread-safe: one instance serves every worker thread of a
:class:`~repro.core.batch.BatchExtractor` or a ``repro.serve`` runtime.
:meth:`RuleStore.save` writes atomically (temp file in the target
directory, then ``os.replace``), so a reader never observes a
half-written JSON file and two concurrent saves cannot interleave into a
corrupt one -- the loser of the race is simply replaced by the winner's
complete snapshot.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Protocol

from repro.tree.node import TagNode
from repro.tree.paths import node_at_path


class StaleRuleError(LookupError):
    """A cached rule no longer matches the page's structure."""


@dataclass(frozen=True, slots=True)
class ExtractionRule:
    """The learned extraction rule for one site.

    ``subtree_path`` is a dot-notation path (``html[1].body[2].form[4]``);
    ``separator`` a tag name; ``construction_mode`` the Phase 3 mode
    ("container" or "boundary") fixed at learning time so rule application
    does not need to re-derive it.
    """

    site: str
    subtree_path: str
    separator: str
    construction_mode: str = "auto"

    def apply(self, root: TagNode) -> TagNode:
        """Resolve the rule's subtree against a freshly parsed page.

        Raises :class:`StaleRuleError` when the path does not resolve to a
        tag node or the separator no longer appears among its children.
        """
        try:
            node = node_at_path(root, self.subtree_path)
        except (LookupError, ValueError) as exc:
            raise StaleRuleError(str(exc)) from exc
        if not isinstance(node, TagNode):
            raise StaleRuleError(f"{self.subtree_path} resolves to a leaf")
        if not any(
            isinstance(c, TagNode) and c.name == self.separator
            for c in node.children
        ):
            raise StaleRuleError(
                f"separator <{self.separator}> absent under {self.subtree_path}"
            )
        return node


@dataclass(frozen=True)
class RuleLease:
    """The answer to one :meth:`RuleSource.lease` call.

    ``learner=True`` obliges the caller to run discovery and then call
    :meth:`~RuleSource.publish` (or :meth:`~RuleSource.abort` on
    failure).  Otherwise ``rule`` is the cached rule -- or ``None`` for a
    cached abstention, in which case the caller runs discovery for its
    own page with no publish obligation (see :meth:`~RuleSource.offer`).
    """

    site: str
    rule: ExtractionRule | None
    learner: bool


class RuleSource(Protocol):
    """Where the stage engine gets, heals and learns a site's rule."""

    def lease(self, site: str) -> RuleLease:
        """The cached rule for ``site``, or election as its learner."""
        ...  # pragma: no cover - protocol

    def report_stale(self, site: str, rule: ExtractionRule) -> bool:
        """``rule`` failed to apply; True elects the caller to relearn."""
        ...  # pragma: no cover - protocol

    def publish(self, site: str, rule: ExtractionRule | None) -> None:
        """Complete a learn (``None``: discovery abstained)."""
        ...  # pragma: no cover - protocol

    def abort(self, site: str) -> None:
        """Give up a learn (discovery raised)."""
        ...  # pragma: no cover - protocol

    def offer(self, site: str, rule: ExtractionRule) -> bool:
        """Upgrade a cached abstention with a rule a later page yielded."""
        ...  # pragma: no cover - protocol


class RuleStore:
    """Thread-safe in-memory site -> rule map with optional JSON persistence.

    Also the trivial :class:`RuleSource`: no single-flight election (every
    caller that finds no rule learns) and no cached abstentions.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._rules: dict[str, ExtractionRule] = {}
        # Reentrant so load() may run from the constructor path and so a
        # holder of the lock can call any other store method safely.
        self._lock = threading.RLock()
        if self._path is not None and self._path.exists():
            self.load()

    @property
    def path(self) -> Path | None:
        """The persistence path this store was created with (or None)."""
        return self._path

    def get(self, site: str) -> ExtractionRule | None:
        """The cached rule for ``site``, or None."""
        with self._lock:
            return self._rules.get(site)

    def put(self, rule: ExtractionRule) -> None:
        """Store (or replace) the rule for ``rule.site``."""
        with self._lock:
            self._rules[rule.site] = rule

    def invalidate(self, site: str) -> None:
        """Forget the rule for ``site`` (after a :class:`StaleRuleError`)."""
        with self._lock:
            self._rules.pop(site, None)

    # -- the RuleSource protocol --------------------------------------------

    def lease(self, site: str) -> RuleLease:
        """The stored rule, or election as learner when there is none."""
        rule = self.get(site)
        return RuleLease(site, rule, learner=rule is None)

    def report_stale(self, site: str, rule: ExtractionRule) -> bool:
        """Invalidate ``rule`` only if it is still the stored one, so a
        caller holding an old rule cannot delete a freshly learned one."""
        with self._lock:
            if self._rules.get(site) is not rule:
                return False
            del self._rules[site]
            return True

    def publish(self, site: str, rule: ExtractionRule | None) -> None:
        """Store a learned rule (an abstention stores nothing)."""
        if rule is not None:
            self.put(rule)

    def abort(self, site: str) -> None:
        """Nothing to undo: a failed learn stored nothing."""

    def offer(self, site: str, rule: ExtractionRule) -> bool:
        """Nothing to upgrade: a store never caches an abstention."""
        return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._rules)

    def __contains__(self, site: str) -> bool:
        with self._lock:
            return site in self._rules

    def sites(self) -> list[str]:
        """All sites with cached rules, sorted."""
        with self._lock:
            return sorted(self._rules)

    def snapshot(self) -> dict[str, ExtractionRule]:
        """A consistent point-in-time copy of the whole map."""
        with self._lock:
            return dict(self._rules)

    def save(self, path: str | Path | None = None) -> Path:
        """Persist all rules as JSON; returns the path written.

        The write is atomic: the payload lands in a temp file next to the
        target and is moved into place with ``os.replace``, so concurrent
        readers (and concurrent savers) always see a complete document.
        The rule map is snapshotted and serialized under the store lock,
        which also serializes the replace step -- two racing ``save()``
        calls each publish a complete snapshot, never an interleaving.
        """
        with self._lock:
            target = Path(path) if path is not None else self._path
            if target is None:
                raise ValueError("no path given and store created without one")
            payload = {site: asdict(rule) for site, rule in self._rules.items()}
            text = json.dumps(payload, indent=2, sort_keys=True)
            directory = target.parent if str(target.parent) else Path(".")
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{target.name}.", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp_name, target)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            return target

    def load(self, path: str | Path | None = None) -> int:
        """Load rules from JSON; returns the number loaded."""
        with self._lock:
            source = Path(path) if path is not None else self._path
            if source is None:
                raise ValueError("no path given and store created without one")
            payload = json.loads(source.read_text())
            count = 0
            for site, fields in payload.items():
                self._rules[site] = ExtractionRule(**fields)
                count += 1
            return count
