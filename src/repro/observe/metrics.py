"""Counters, fixed-bucket latency histograms, and the metrics registry.

The naming scheme is dotted lowercase paths, aggregating coarse-to-fine::

    extract.pages            counter   completed extractions
    extract.errors           counter   extractions that raised
    fallback.count           counter   stale-rule discovery reruns
    stage.<name>.seconds     histogram wall-clock per stage run
    page.seconds             histogram whole-page latency (batch engine)
    fetch.seconds            histogram whole-fetch latency (all layers)
    fetch.origin.seconds     histogram fetches answered by the origin
    fetch.cache.seconds      histogram fetches served from the disk cache
    fetch.attempts           histogram transport attempts per fetch (retry layer)
    fetch.requests/.retries/.success/.failures     counters
    breaker.<old>_to_<new>   counter   circuit transitions (breaker layer)
    cache.hits / cache.misses                      counters

Histograms are fixed-bucket: ``observe()`` is O(#buckets) with no
allocation, safe on the hot path, and snapshots are mergeable (bucket
counts add).  Quantiles are estimated by linear interpolation inside the
bucket that crosses the target rank -- the standard Prometheus-style
estimate; exact per-value percentiles come from span durations instead
(see ``benchmarks/run_perf_baseline.py``).

Two exporters:

* :meth:`MetricsRegistry.to_json` -- the full nested snapshot;
* :meth:`MetricsRegistry.to_text` -- flat ``key value`` lines (one metric
  facet per line, sorted), trivially greppable and diffable.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Any

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "snapshot_delta",
]

#: Upper bounds in seconds, 0.1 ms .. 10 s: wide enough for a parse-heavy
#: page at the top and a cached-rule stage at the bottom.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Fixed-bucket distribution of a latency-like value (seconds).

    ``bounds`` are inclusive upper edges; one implicit overflow bucket
    catches everything beyond the last bound.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, name: str, bounds: tuple = DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = float("inf")
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by in-bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            count = self._count
            counts = list(self._counts)
            lo, hi = self._min, self._max
        if count == 0:
            return 0.0
        target = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index] if index < len(self.bounds) else hi
                lower = max(lower, lo) if index == 0 else lower
                fraction = (target - cumulative) / bucket_count
                return min(lower + (upper - lower) * fraction, hi)
            cumulative += bucket_count
        return hi

    def percentiles(self) -> dict[str, float]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            counts = list(self._counts)
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **self.percentiles(),
            "buckets": {
                **{f"le_{bound:g}": counts[i] for i, bound in enumerate(self.bounds)},
                "overflow": counts[-1],
            },
        }

    def absorb(self, facets: "dict[str, Any]") -> None:
        """Merge a snapshot (or snapshot delta) produced elsewhere.

        The cross-process counterpart of :meth:`observe`: a procpool
        worker ships its histogram facets home by value and the parent
        folds them in -- bucket counts, count and sum add; min/max
        combine.  Requires matching bucket bounds (every worker builds
        its histograms from the same code, so labels line up).
        """
        buckets: dict[str, Any] = facets.get("buckets", {})
        count = int(facets.get("count", 0))
        if count <= 0:
            return
        with self._lock:
            for index, bound in enumerate(self.bounds):
                self._counts[index] += int(buckets.get(f"le_{bound:g}", 0))
            self._counts[-1] += int(buckets.get("overflow", 0))
            self._count += count
            self._sum += float(facets.get("sum", 0.0))
            self._min = min(self._min, float(facets.get("min", self._min)))
            self._max = max(self._max, float(facets.get("max", self._max)))


class MetricsRegistry:
    """Name-keyed, get-or-create home for every counter and histogram."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: tuple = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def preregister(self, schema: dict[str, tuple[str, ...]]) -> None:
        """Materialize a pinned schema so the first scrape is complete."""
        for name in schema["counters"]:
            self.counter(name)
        for name in schema["histograms"]:
            self.histogram(name)

    def snapshot(self) -> dict[str, object]:
        """The full current state: ``{"counters": ..., "histograms": ...}``."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "histograms": {
                name: h.as_dict() for name, h in sorted(histograms.items())
            },
        }

    # -- cross-process merge -----------------------------------------------

    def absorb(self, snapshot: dict[str, Any]) -> None:
        """Fold a snapshot (typically a :func:`snapshot_delta`) into this
        registry.

        The metrics counterpart of :meth:`~repro.observe.span.Tracer.
        absorb`: procpool workers ship counter deltas and histogram
        deltas home by value after every task, and the parent merges them
        here so ``/metrics`` in process mode exports the same names with
        the same totals a thread-mode runtime would.  Histograms created
        on demand take their bounds from the shipped bucket labels, so a
        custom-bucket histogram (``fetch.attempts``) merges exactly.
        """
        counters: dict[str, Any] = snapshot.get("counters", {})
        for name, value in counters.items():
            amount = int(value)
            if amount > 0:
                self.counter(name).inc(amount)
        histograms: dict[str, Any] = snapshot.get("histograms", {})
        for name, facets in histograms.items():
            with self._lock:
                existing = self._histograms.get(name)
            if existing is None:
                buckets: dict[str, Any] = facets.get("buckets", {})
                bounds = tuple(
                    sorted(
                        float(label[3:])
                        for label in buckets
                        if label.startswith("le_")
                    )
                )
                existing = self.histogram(
                    name, bounds=bounds if bounds else DEFAULT_LATENCY_BUCKETS
                )
            existing.absorb(facets)

    # -- exporters ---------------------------------------------------------

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_text(self) -> str:
        """Flat ``key value`` lines, one facet per line, sorted by key."""
        snapshot = self.snapshot()
        lines = [
            f"{name} {value}" for name, value in snapshot["counters"].items()
        ]
        for name, facets in snapshot["histograms"].items():
            for facet, value in facets.items():
                if facet == "buckets":
                    for bucket, count in value.items():
                        lines.append(f"{name}.bucket.{bucket} {count}")
                else:
                    lines.append(f"{name}.{facet} {value:.9g}")
        return "\n".join(sorted(lines)) + "\n"


def merge_snapshots(
    snapshots: "list[dict[str, Any]]",
    *,
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Fold several full registry snapshots into one registry.

    The fleet-level counterpart of per-task :func:`snapshot_delta`
    absorption: the coordinator scrapes each member node's *entire*
    snapshot and sums them, so the aggregated ``/metrics`` reads like
    one big node.  Counters add; histogram buckets, counts and sums
    add; min/min and max/max combine.

    Note :meth:`MetricsRegistry.absorb` skips zero-valued counters, so
    a caller that wants pinned schema names present in the merged
    output must pass a ``registry`` with those names pre-registered
    (see :meth:`repro.fleet.coordinator.FleetCoordinator.fleet_metrics`).
    """
    merged = registry if registry is not None else MetricsRegistry()
    for snapshot in snapshots:
        merged.absorb(snapshot)
    return merged


def snapshot_delta(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """What changed between two :meth:`MetricsRegistry.snapshot` calls.

    A procpool worker snapshots its registry before and after each task
    and ships only the difference home, so the parent can
    :meth:`~MetricsRegistry.absorb` per-task increments without ever
    re-counting earlier work.  Counters subtract; histogram bucket
    counts, ``count`` and ``sum`` subtract; ``min``/``max`` carry the
    worker's *lifetime* values, which merge correctly on the parent side
    because min/min and max/max are idempotent under repeated absorbs.
    Unchanged counters and zero-count histograms are omitted.
    """
    delta_counters: dict[str, int] = {}
    before_counters: dict[str, Any] = before.get("counters", {})  # type: ignore[assignment]
    after_counters: dict[str, Any] = after.get("counters", {})  # type: ignore[assignment]
    for name, value in after_counters.items():
        changed = int(value) - int(before_counters.get(name, 0))
        if changed:
            delta_counters[name] = changed

    delta_histograms: dict[str, Any] = {}
    before_histograms: dict[str, Any] = before.get("histograms", {})  # type: ignore[assignment]
    after_histograms: dict[str, Any] = after.get("histograms", {})  # type: ignore[assignment]
    for name, facets in after_histograms.items():
        prior: dict[str, Any] = before_histograms.get(name, {})
        count = int(facets.get("count", 0)) - int(prior.get("count", 0))
        if count <= 0:
            continue
        prior_buckets: dict[str, Any] = prior.get("buckets", {})
        buckets = {
            label: int(observed) - int(prior_buckets.get(label, 0))
            for label, observed in facets.get("buckets", {}).items()
        }
        delta_histograms[name] = {
            "count": count,
            "sum": float(facets.get("sum", 0.0)) - float(prior.get("sum", 0.0)),
            "min": facets.get("min", 0.0),
            "max": facets.get("max", 0.0),
            "buckets": buckets,
        }

    return {"counters": delta_counters, "histograms": delta_histograms}
