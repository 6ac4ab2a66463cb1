"""Resilience: bounded retries, deterministic backoff, circuit breaking.

:class:`ResilientFetcher` wraps any :class:`~repro.fetch.base.Fetcher` with
the recovery loop a production acquisition tier needs:

* bounded retries with exponential backoff and *deterministic* jitter
  (:class:`RetryPolicy` -- the jitter is a pure function of ``(seed, url,
  attempt)``, so two runs with the same seed sleep the same schedule, which
  keeps chaos runs bit-for-bit reproducible);
* integrity verification of every response
  (:meth:`~repro.fetch.base.FetchResult.verify`), so truncated or corrupted
  transfers are retried like any other transient failure;
* a per-site :class:`CircuitBreaker`: after ``failure_threshold``
  consecutive failed fetches the site's circuit opens and requests fail
  fast with :class:`~repro.fetch.base.CircuitOpenError`; after ``cooldown``
  seconds the circuit half-opens and admits a single probe, closing again
  on success and re-opening on failure::

        +--------+  N consecutive failures   +------+
        | CLOSED | ------------------------> | OPEN |
        +--------+                           +------+
             ^                                  |
             | probe succeeds        cooldown elapsed
             |                                  v
             |   probe fails   +-----------+
             +---------------- | HALF_OPEN |
                  (re-opens)   +-----------+

:class:`HttpFetcher` in :mod:`repro.fetch.http` is this loop over a urllib
transport; the chaos tests run it over the fault injector instead.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.core.stages.instrumentation import Instrumentation
from repro.fetch.base import (
    CircuitOpenError,
    Clock,
    FetchError,
    FetchHttpError,
    FetchResult,
    Fetcher,
    OversizedBodyError,
    SystemClock,
    site_key,
)

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "ResilientFetcher",
    "RetryPolicy",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait in between.

    ``retries`` counts *additional* attempts after the first, so a policy
    with ``retries=2`` makes at most three transport calls.  The delay
    before retry ``attempt`` (1-based) is::

        min(backoff_base * backoff_factor**(attempt-1), backoff_max)
          * (1 + jitter * u)         with u = Random(f"{seed}:{url}:{attempt}")

    -- exponential backoff with multiplicative jitter that is a pure
    function of the policy seed, the URL and the attempt number.
    """

    retries: int = 2
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 8.0
    jitter: float = 0.1
    seed: int = 0

    def delay(self, url: str, attempt: int) -> float:
        base = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        spread = random.Random(f"{self.seed}:{url}:{attempt}").random()
        return base * (1.0 + self.jitter * spread)


@dataclass
class _BreakerSlot:
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: float = 0.0


class CircuitBreaker:
    """Per-site three-state breaker (closed / open / half-open).

    One fetch (including all its retries) counts as one outcome.  State
    transitions are reported through the instrumentation's
    ``on_breaker_transition(site, old, new)`` hook and tallied per site.
    Thread-safe.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Clock | None = None,
        observer: Instrumentation | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock or SystemClock()
        self.observer = observer or Instrumentation()
        self._slots: dict[str, _BreakerSlot] = {}
        self._lock = threading.Lock()
        #: (site, old, new) tuples, in order -- the transition log.
        self.transitions: list[tuple[str, str, str]] = []

    def _slot(self, site: str) -> _BreakerSlot:
        return self._slots.setdefault(site, _BreakerSlot())

    def _transition(self, site: str, slot: _BreakerSlot, new: str) -> list:
        """Apply a state change under the lock; return hook calls to fire.

        The observer hook must run *after* the lock is released: an
        observer that calls back into the breaker (or takes its own lock
        while another thread holds it and waits on ours) would deadlock,
        and even a well-behaved observer would serialize every fetch
        thread behind its I/O.  Callers fire the returned ``(site, old,
        new)`` notifications once outside the ``with`` block.
        """
        old = slot.state
        if old == new:
            return []
        slot.state = new
        self.transitions.append((site, old, new))
        return [(site, old, new)]

    def _notify(self, pending: list) -> None:
        for site, old, new in pending:
            self.observer.on_breaker_transition(site, old, new)

    def state(self, site: str) -> str:
        with self._lock:
            return self._slot(site).state

    def allow(self, site: str) -> bool:
        """May a request for ``site`` proceed right now?

        An open circuit whose cooldown has elapsed half-opens and admits
        the caller as the probe; further callers are refused until the
        probe reports back.
        """
        pending: list = []
        try:
            with self._lock:
                slot = self._slot(site)
                if slot.state == CLOSED:
                    return True
                if slot.state == OPEN:
                    if self.clock.monotonic() - slot.opened_at >= self.cooldown:
                        pending = self._transition(site, slot, HALF_OPEN)
                        return True
                    return False
                # HALF_OPEN: exactly one probe is in flight; hold the rest.
                return False
        finally:
            self._notify(pending)

    def record_success(self, site: str) -> None:
        with self._lock:
            slot = self._slot(site)
            slot.consecutive_failures = 0
            pending = self._transition(site, slot, CLOSED)
        self._notify(pending)

    def record_failure(self, site: str) -> None:
        pending: list = []
        with self._lock:
            slot = self._slot(site)
            slot.consecutive_failures += 1
            if slot.state == HALF_OPEN or (
                slot.state == CLOSED
                and slot.consecutive_failures >= self.failure_threshold
            ):
                slot.opened_at = self.clock.monotonic()
                pending = self._transition(site, slot, OPEN)
        self._notify(pending)


@dataclass
class ResilientFetcher:
    """Retry + verify + circuit-break around any inner fetcher.

    The inner fetcher is the *transport*: it makes exactly one acquisition
    attempt per call.  This wrapper owns the recovery policy.  Pass
    ``breaker=None`` to disable circuit breaking (retries still apply).
    """

    inner: Fetcher
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: CircuitBreaker | None = None
    clock: Clock = field(default_factory=SystemClock)
    observer: Instrumentation = field(default_factory=Instrumentation)

    def fetch(self, url: str, *, site: str | None = None) -> FetchResult:
        key = site_key(url, site)
        self.observer.on_fetch_start(url)
        if self.breaker is not None and not self.breaker.allow(key):
            error = CircuitOpenError(f"circuit open for site {key!r}", url=url)
            self.observer.on_fetch_error(url, error)
            raise error

        start = self.clock.monotonic()
        failure: FetchError | None = None
        try:
            for attempt in range(1, self.policy.retries + 2):
                try:
                    result = self.inner.fetch(url, site=site).verify()
                except FetchError as error:
                    failure = error
                    if not self._retryable(error) or attempt > self.policy.retries:
                        break
                    self.observer.on_fetch_retry(url, attempt, error)
                    self.clock.sleep(self.policy.delay(url, attempt))
                    continue
                result.attempts = attempt
                result.elapsed = self.clock.monotonic() - start
                if self.breaker is not None:
                    self.breaker.record_success(key)
                self.observer.on_fetch_end(url, result)
                return result
        except BaseException:
            # A non-FetchError escaping here (a bug in an inner fetcher, an
            # OSError from a layered cache write) must still report an
            # outcome: a HALF_OPEN probe that vanished without one would
            # wedge the circuit, refusing the site forever.
            if self.breaker is not None:
                self.breaker.record_failure(key)
            raise

        assert failure is not None
        if self.breaker is not None:
            self.breaker.record_failure(key)
        self.observer.on_fetch_error(url, failure)
        raise failure

    @staticmethod
    def _retryable(error: FetchError) -> bool:
        if isinstance(error, FetchHttpError):
            return error.retryable
        # An over-cap body will not shrink on retry; re-reading it each
        # attempt is exactly the memory pressure the cap exists to avoid.
        return not isinstance(error, (CircuitOpenError, OversizedBodyError))
