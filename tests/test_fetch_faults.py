"""Chaos suite: the batch engine under a hostile, fully seeded network.

Every test drives :class:`BatchExtractor` (or the resilient fetcher
directly) over a :class:`FaultInjectingFetcher` whose decisions are a pure
function of ``(seed, url, call)``, on a :class:`FakeClock`.  That purity is
load-bearing: the acceptance test *replays* the fault schedule with an
independent ~60-line simulator and asserts the live run's counters --
requests, retries, failures by kind, breaker transitions, cache hits --
are **exactly** the simulated ones, not merely plausible.
"""

from __future__ import annotations

from urllib.parse import urlsplit

import pytest

from repro.core.batch import BatchExtractor, FailedExtraction
from repro.corpus import CorpusGenerator, TEST_SITES
from repro.fetch import (
    CachingFetcher,
    CircuitBreaker,
    FAULT_KINDS,
    FakeClock,
    FaultInjectingFetcher,
    ResilientFetcher,
    RetryPolicy,
    StaticFetcher,
)
from repro.fetch.retry import CLOSED, HALF_OPEN, OPEN
from repro.observe import TracingInstrumentation

#: fault kind -> the failure kind the taxonomy classifies it as.
KIND_OF_FAULT = {
    "latency": "timeout",
    "connection": "connection",
    "http_5xx": "http_status",
    "truncate": "truncated",
    "corrupt": "corrupted",
}


@pytest.fixture(scope="module")
def corpus_urls():
    """200 URLs across the 15 test sites, backed by real corpus pages."""
    pages = CorpusGenerator(max_pages_per_site=20).generate(TEST_SITES)
    assert len(pages) >= 200
    urls = {}
    for index, page in enumerate(pages[:200]):
        site = page.site.replace(" ", "_")
        urls[f"http://{site}/page{index}"] = page.html
    assert len(urls) == 200
    return urls


def chaos_stack(
    urls,
    *,
    rate,
    seed,
    kinds=FAULT_KINDS,
    retries=2,
    threshold=4,
    cooldown=60.0,
    cache_dir=None,
):
    """CachingFetcher? -> ResilientFetcher -> FaultInjector -> StaticFetcher."""
    clock = FakeClock()
    adapter = TracingInstrumentation(clock=clock)
    injector = FaultInjectingFetcher(
        StaticFetcher(urls), rate=rate, seed=seed, kinds=kinds, timeout=5.0, clock=clock
    )
    breaker = CircuitBreaker(
        failure_threshold=threshold, cooldown=cooldown, clock=clock, observer=adapter
    )
    policy = RetryPolicy(retries=retries, seed=seed)
    fetcher = ResilientFetcher(injector, policy, breaker, clock, adapter)
    if cache_dir is not None:
        fetcher = CachingFetcher(
            fetcher, cache_dir, ttl=None, clock=clock, observer=adapter
        )
    return fetcher, injector, breaker, policy, clock, adapter


def breaker_ledger(adapter):
    """``{(old, new): count}`` rebuilt from the ``breaker.<old>_to_<new>``
    counters the adapter keeps."""
    counters = adapter.metrics.snapshot()["counters"]
    return {
        tuple(name[len("breaker.") :].split("_to_")): count
        for name, count in counters.items()
        if name.startswith("breaker.")
    }


# -- per-kind classification --------------------------------------------------


@pytest.mark.parametrize("fault", FAULT_KINDS)
def test_every_fault_kind_completes_and_is_classified(corpus_urls, tmp_path, fault):
    urls = dict(list(corpus_urls.items())[:40])
    fetcher, injector, *_ = chaos_stack(
        urls, rate=1.0, seed=5, kinds=(fault,), retries=0, threshold=10_000
    )
    batch = BatchExtractor(fetcher=fetcher)
    outcome = batch.extract_urls(urls)

    assert len(outcome) == len(urls)  # the batch always completes
    assert outcome.failures, f"rate=1.0 {fault} injected no failures"
    for failure in outcome.failures:
        assert failure.kind == KIND_OF_FAULT[fault]
    # Non-fatal latency faults may still succeed (stall under the deadline);
    # every other kind at rate=1.0 fails every page.
    if fault != "latency":
        assert len(outcome.failures) == len(urls)
    assert sum(injector.injected.values()) == len(urls)


def test_failure_kind_counts_surface_in_batch_stats(corpus_urls):
    urls = dict(list(corpus_urls.items())[:30])
    fetcher, *_ = chaos_stack(
        urls, rate=1.0, seed=2, kinds=("connection",), retries=0, threshold=10_000
    )
    outcome = BatchExtractor(fetcher=fetcher).extract_urls(urls)
    assert outcome.stats.failure_kinds == {"connection": len(urls)}
    assert outcome.stats.as_dict()["failure_kinds"] == {"connection": len(urls)}


# -- breaker schedule under the fake clock ------------------------------------


def test_breaker_opens_and_half_opens_on_schedule(corpus_urls):
    url, body = next(iter(corpus_urls.items()))
    site = urlsplit(url).netloc
    clock = FakeClock()
    always_down = FaultInjectingFetcher(
        StaticFetcher({url: body}), rate=1.0, seed=1, kinds=("connection",), clock=clock
    )
    breaker = CircuitBreaker(failure_threshold=3, cooldown=30.0, clock=clock)
    fetcher = ResilientFetcher(
        always_down, RetryPolicy(retries=0), breaker, clock
    )
    batch = BatchExtractor(fetcher=fetcher)

    # Three consecutive failures open the site's circuit...
    outcome = batch.extract_urls([url] * 3)
    assert [f.kind for f in outcome.failures] == ["connection"] * 3
    assert breaker.state(site) == OPEN

    # ...inside the cooldown everything fails fast without touching the wire;
    calls_before = always_down.calls_for(url)
    outcome = batch.extract_urls([url] * 2)
    assert [f.kind for f in outcome.failures] == ["circuit_open"] * 2
    assert always_down.calls_for(url) == calls_before

    # ...after the cooldown one probe goes through (and re-opens on failure);
    clock.advance(30.0)
    outcome = batch.extract_urls([url])
    assert [f.kind for f in outcome.failures] == ["connection"]
    assert always_down.calls_for(url) == calls_before + 1
    assert breaker.state(site) == OPEN

    # ...and a healthy probe after another cooldown closes the circuit.
    clock.advance(30.0)
    healthy = ResilientFetcher(
        StaticFetcher({url: body}), RetryPolicy(retries=0), breaker, clock
    )
    assert BatchExtractor(fetcher=healthy).extract_urls([url]).stats.failed == 0
    assert breaker.state(site) == CLOSED
    assert breaker.transitions == [
        (site, CLOSED, OPEN),
        (site, OPEN, HALF_OPEN),
        (site, HALF_OPEN, OPEN),
        (site, OPEN, HALF_OPEN),
        (site, HALF_OPEN, CLOSED),
    ]


# -- the acceptance run -------------------------------------------------------


def simulate_chaos_run(urls, injector, breaker_params, policy, sites):
    """Independent replay of the fault schedule: predict every counter.

    Mirrors ResilientFetcher + CircuitBreaker semantics over the injector's
    pure ``plan()`` function, sequentially (workers=1), on simulated time.
    Returns (per-url outcome dict, predicted counters dict).
    """
    threshold, cooldown = breaker_params
    now = 0.0
    calls: dict[str, int] = {}
    slots: dict[str, dict] = {}
    transitions: dict[tuple[str, str], int] = {}
    outcomes: dict[str, str | None] = {}  # url -> None (success) | failure kind
    counts = {"requests": 0, "retries": 0, "successes": 0, "failures": 0}

    def transition(slot, site, new):
        key = (slot["state"], new)
        transitions[key] = transitions.get(key, 0) + 1
        slot["state"] = new

    for url in urls:
        site = sites(url)
        slot = slots.setdefault(site, {"state": CLOSED, "consec": 0, "opened_at": 0.0})
        counts["requests"] += 1
        if slot["state"] == OPEN:
            if now - slot["opened_at"] >= cooldown:
                transition(slot, site, HALF_OPEN)
            else:
                counts["failures"] += 1
                outcomes[url] = "circuit_open"
                continue

        final_kind = None
        for attempt in range(1, policy.retries + 2):
            call = calls.get(url, 0)
            calls[url] = call + 1
            fault = injector.plan(url, call)
            kind = None
            if fault is not None:
                if fault.kind == "latency":
                    now += min(fault.delay, injector.timeout) if fault.fatal else fault.delay
                    kind = "timeout" if fault.fatal else None
                else:
                    kind = KIND_OF_FAULT[fault.kind]
            if kind is None:
                counts["successes"] += 1
                slot["consec"] = 0
                if slot["state"] != CLOSED:
                    transition(slot, site, CLOSED)
                outcomes[url] = None
                break
            final_kind = kind
            if attempt <= policy.retries:
                counts["retries"] += 1
                now += policy.delay(url, attempt)
        else:
            counts["failures"] += 1
            outcomes[url] = final_kind
            slot["consec"] += 1
            if slot["state"] == HALF_OPEN or (
                slot["state"] == CLOSED and slot["consec"] >= threshold
            ):
                slot["opened_at"] = now
                transition(slot, site, OPEN)

    return outcomes, {**counts, "transitions": transitions}


def test_seeded_chaos_acceptance_run(corpus_urls, tmp_path):
    """The ISSUE acceptance criterion, end to end.

    A seeded chaos run (fault rate 0.35 across all five kinds, 200 pages)
    must complete with zero unhandled exceptions, classify every failure by
    kind, produce byte-identical results to a fault-free run for the pages
    that succeed, and report fetch counters that match an independent
    replay of the fault schedule exactly.
    """
    RATE, SEED, RETRIES, THRESHOLD, COOLDOWN = 0.35, 2001, 2, 4, 60.0

    fetcher, injector, breaker, policy, clock, adapter = chaos_stack(
        corpus_urls,
        rate=RATE,
        seed=SEED,
        retries=RETRIES,
        threshold=THRESHOLD,
        cooldown=COOLDOWN,
        cache_dir=tmp_path / "fetch-cache",
    )
    chaos = BatchExtractor(fetcher=fetcher).extract_urls(corpus_urls)

    clean = BatchExtractor(
        fetcher=StaticFetcher(corpus_urls)
    ).extract_urls(corpus_urls)
    assert clean.stats.failed == 0

    # Zero unhandled exceptions: every page came back with a result slot.
    assert len(chaos) == len(clean) == 200

    # The schedule replay predicts the run exactly.
    expected, predicted = simulate_chaos_run(
        list(corpus_urls),
        injector,
        (THRESHOLD, COOLDOWN),
        policy,
        lambda url: urlsplit(url).netloc,
    )
    metrics = adapter.metrics
    assert metrics.counter("fetch.requests").value == predicted["requests"]
    assert metrics.counter("fetch.retries").value == predicted["retries"]
    assert metrics.counter("fetch.success").value == predicted["successes"]
    assert metrics.counter("fetch.failures").value == predicted["failures"]
    assert breaker_ledger(adapter) == predicted["transitions"]
    assert metrics.counter("cache.hits").value == 0  # first pass: nothing cached yet
    assert metrics.counter("cache.misses").value == 200

    # Every failure is classified, and classified *correctly* per the plan;
    # every success is byte-identical to the fault-free run.
    kinds_seen = set()
    for url, result, reference in zip(corpus_urls, chaos.results, clean.results, strict=True):
        if isinstance(result, FailedExtraction):
            assert result.kind == expected[url], url
            kinds_seen.add(result.kind)
        else:
            assert expected[url] is None, url
            assert result.separator == reference.separator
            assert result.subtree_path == reference.subtree_path
            assert [o.text() for o in result.objects] == [
                o.text() for o in reference.objects
            ]
    assert chaos.stats.failed == predicted["failures"]
    assert kinds_seen, "a 0.35 fault rate over 200 pages must lose some pages"
    # The criterion's "across all five fault kinds": each kind was injected.
    assert all(injector.injected[kind] > 0 for kind in FAULT_KINDS), injector.injected
    assert kinds_seen <= {KIND_OF_FAULT[k] for k in FAULT_KINDS} | {"circuit_open"}
    # The run must actually exercise the taxonomy, not one lucky kind.
    assert len(kinds_seen) >= 3, kinds_seen

    # Second pass: every previously successful page is now a cache hit and
    # still byte-identical (served from disk, integrity facts intact).
    succeeded_first = 200 - predicted["failures"]
    rerun = BatchExtractor(fetcher=fetcher).extract_urls(corpus_urls)
    assert metrics.counter("cache.hits").value == succeeded_first
    for url, result, reference in zip(corpus_urls, rerun.results, clean.results, strict=True):
        if expected[url] is None:
            assert [o.text() for o in result.objects] == [
                o.text() for o in reference.objects
            ]
