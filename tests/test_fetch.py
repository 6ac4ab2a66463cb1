"""Unit tests for the document-acquisition subsystem (repro.fetch)."""

from __future__ import annotations

import urllib.error

import pytest

from repro.aggregate import HttpProvider
from repro.fetch import (
    CachingFetcher,
    CircuitBreaker,
    CircuitOpenError,
    CorruptBodyError,
    FakeClock,
    FaultInjectingFetcher,
    FetchConnectionError,
    FetchHttpError,
    FetchResult,
    FetchTimeoutError,
    HttpFetcher,
    OversizedBodyError,
    ResilientFetcher,
    RetryPolicy,
    StaticFetcher,
    TruncatedBodyError,
    classify_failure,
    corrupt_html,
    site_key,
)
from repro.fetch.retry import CLOSED, HALF_OPEN, OPEN
from repro.observe import TracingInstrumentation

HTML = "<ul>" + "".join(f"<li>item {i} details</li>" for i in range(4)) + "</ul>"


class TestFetchResult:
    def test_verify_accepts_honest_body(self):
        assert FetchResult.of("http://a/x", HTML).verify().body == HTML

    def test_verify_classifies_truncation(self):
        result = FetchResult.of("http://a/x", HTML)
        result.body = HTML[: len(HTML) // 2]
        with pytest.raises(TruncatedBodyError) as info:
            result.verify()
        assert classify_failure(info.value) == "truncated"

    def test_verify_classifies_corruption(self):
        result = FetchResult.of("http://a/x", HTML)
        result.body = HTML[:-1] + "\x00"  # same length, different bytes
        with pytest.raises(CorruptBodyError) as info:
            result.verify()
        assert classify_failure(info.value) == "corrupted"

    def test_classify_maps_plain_exceptions_to_extraction(self):
        assert classify_failure(ValueError("boom")) == "extraction"


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_url_and_attempt(self):
        policy = RetryPolicy(seed=3)
        assert policy.delay("http://a/x", 1) == policy.delay("http://a/x", 1)
        assert policy.delay("http://a/x", 1) != policy.delay("http://a/y", 1)

    def test_backoff_grows_exponentially_to_the_cap(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0, jitter=0.0)
        assert policy.delay("u", 1) == 1.0
        assert policy.delay("u", 2) == 2.0
        assert policy.delay("u", 3) == 3.0  # capped


class _FailNTimes:
    """Transport that raises ``error`` for the first ``n`` calls."""

    def __init__(self, n: int, error: Exception, body: str = HTML) -> None:
        self.n = n
        self.error = error
        self.body = body
        self.calls = 0

    def fetch(self, url, *, site=None):
        self.calls += 1
        if self.calls <= self.n:
            raise self.error
        return FetchResult.of(url, self.body, site=site)


class TestResilientFetcher:
    def test_recovers_within_retry_budget(self):
        clock = FakeClock()
        inner = _FailNTimes(2, FetchConnectionError("down"))
        fetcher = ResilientFetcher(inner, RetryPolicy(retries=2), None, clock)
        result = fetcher.fetch("http://a/x")
        assert result.attempts == 3 and result.body == HTML
        assert len(clock.sleeps) == 2  # one backoff per retry

    def test_exhausted_retries_raise_the_last_error(self):
        fetcher = ResilientFetcher(
            _FailNTimes(9, FetchTimeoutError("slow")), RetryPolicy(retries=1), None, FakeClock()
        )
        with pytest.raises(FetchTimeoutError):
            fetcher.fetch("http://a/x")

    def test_4xx_is_not_retried(self):
        inner = _FailNTimes(9, FetchHttpError("gone", status=404))
        fetcher = ResilientFetcher(inner, RetryPolicy(retries=3), None, FakeClock())
        with pytest.raises(FetchHttpError):
            fetcher.fetch("http://a/x")
        assert inner.calls == 1

    def test_counters_see_retries_and_outcomes(self):
        adapter = TracingInstrumentation()
        fetcher = ResilientFetcher(
            _FailNTimes(1, FetchConnectionError("down")),
            RetryPolicy(retries=2),
            None,
            FakeClock(),
            adapter,
        )
        fetcher.fetch("http://a/x")
        requests = adapter.metrics.counter("fetch.requests").value
        retries = adapter.metrics.counter("fetch.retries").value
        assert requests == 1
        assert retries == 1
        assert adapter.metrics.counter("fetch.success").value == 1
        assert requests + retries == 2  # attempts: every first try + retry


class TestCircuitBreaker:
    def make(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown", 30.0)
        return CircuitBreaker(clock=clock, **kw)

    def test_opens_after_n_consecutive_failures(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            breaker.record_failure("s")
            assert breaker.state("s") == CLOSED
        breaker.record_failure("s")
        assert breaker.state("s") == OPEN
        assert not breaker.allow("s")

    def test_success_resets_the_consecutive_count(self):
        breaker = self.make(FakeClock())
        breaker.record_failure("s")
        breaker.record_failure("s")
        breaker.record_success("s")
        breaker.record_failure("s")
        breaker.record_failure("s")
        assert breaker.state("s") == CLOSED

    def test_half_opens_after_cooldown_and_admits_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure("s")
        clock.advance(30.0)
        assert breaker.allow("s")  # the probe
        assert breaker.state("s") == HALF_OPEN
        assert not breaker.allow("s")  # held while the probe is in flight
        breaker.record_success("s")
        assert breaker.state("s") == CLOSED

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure("s")
        clock.advance(30.0)
        assert breaker.allow("s")
        breaker.record_failure("s")
        assert breaker.state("s") == OPEN
        assert breaker.transitions == [
            ("s", CLOSED, OPEN),
            ("s", OPEN, HALF_OPEN),
            ("s", HALF_OPEN, OPEN),
        ]

    def test_sites_are_independent(self):
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.record_failure("bad")
        assert breaker.state("bad") == OPEN
        assert breaker.allow("good")

    def test_open_circuit_fails_fast_through_the_fetcher(self):
        clock = FakeClock()
        breaker = self.make(clock, failure_threshold=1)
        fetcher = ResilientFetcher(
            _FailNTimes(9, FetchConnectionError("down")),
            RetryPolicy(retries=0),
            breaker,
            clock,
        )
        with pytest.raises(FetchConnectionError):
            fetcher.fetch("http://a/x", site="s")
        with pytest.raises(CircuitOpenError) as info:
            fetcher.fetch("http://a/x", site="s")
        assert classify_failure(info.value) == "circuit_open"

    def test_crashed_probe_reopens_instead_of_wedging(self):
        # A HALF_OPEN probe that dies with a non-FetchError (a bug in an
        # inner fetcher, an OSError from a cache layer) must still count as
        # a breaker outcome, or the circuit refuses the site forever.
        class _Scripted:
            def __init__(self, answers):
                self.answers = list(answers)

            def fetch(self, url, *, site=None):
                answer = self.answers.pop(0)
                if isinstance(answer, Exception):
                    raise answer
                return FetchResult.of(url, answer, site=site)

        clock = FakeClock()
        breaker = self.make(clock, failure_threshold=1)
        inner = _Scripted([FetchConnectionError("down"), RuntimeError("bug"), HTML])
        fetcher = ResilientFetcher(inner, RetryPolicy(retries=0), breaker, clock)

        with pytest.raises(FetchConnectionError):
            fetcher.fetch("http://a/x", site="s")
        assert breaker.state("s") == OPEN

        clock.advance(30.0)
        with pytest.raises(RuntimeError):  # the probe crashes mid-flight
            fetcher.fetch("http://a/x", site="s")
        assert breaker.state("s") == OPEN  # re-opened, not stuck HALF_OPEN

        clock.advance(30.0)
        assert fetcher.fetch("http://a/x", site="s").body == HTML
        assert breaker.state("s") == CLOSED


class TestSiteKey:
    def test_explicit_site_wins(self):
        assert site_key("http://h.test/p", "mysite") == "mysite"

    def test_defaults_to_host(self):
        assert site_key("http://h.test/p", None) == "h.test"


class TestHttpFetcher:
    def canned(self, responses):
        calls = []

        def open_url(url, timeout):
            calls.append((url, timeout))
            answer = responses[min(len(calls), len(responses)) - 1]
            if isinstance(answer, Exception):
                raise answer
            return answer

        return open_url, calls

    def test_success_decodes_and_verifies(self):
        open_url, calls = self.canned([(200, {"Content-Length": str(len(HTML))}, HTML.encode())])
        fetcher = HttpFetcher(timeout=4.0, retries=0, open_url=open_url, clock=FakeClock())
        result = fetcher.fetch("http://h.test/p")
        assert result.body == HTML and result.status == 200
        assert calls[0] == ("http://h.test/p", 4.0)
        result.verify()

    def test_short_body_is_truncation(self):
        open_url, _ = self.canned([(200, {"Content-Length": "9999"}, b"<html>")])
        fetcher = HttpFetcher(retries=0, open_url=open_url, clock=FakeClock())
        with pytest.raises(TruncatedBodyError):
            fetcher.fetch("http://h.test/p")

    def test_urlerror_becomes_connection_kind(self):
        open_url, _ = self.canned([urllib.error.URLError(OSError("unreachable"))])
        fetcher = HttpFetcher(retries=0, open_url=open_url, clock=FakeClock())
        with pytest.raises(FetchConnectionError):
            fetcher.fetch("http://h.test/p")

    def test_socket_timeout_becomes_timeout_kind(self):
        open_url, _ = self.canned([TimeoutError("timed out")])
        fetcher = HttpFetcher(retries=0, open_url=open_url, clock=FakeClock())
        with pytest.raises(FetchTimeoutError):
            fetcher.fetch("http://h.test/p")

    def test_5xx_retries_then_succeeds(self):
        open_url, calls = self.canned(
            [(503, {}, b""), (200, {}, HTML.encode())]
        )
        fetcher = HttpFetcher(retries=2, open_url=open_url, clock=FakeClock())
        result = fetcher.fetch("http://h.test/p")
        assert result.attempts == 2 and len(calls) == 2

    def test_oversized_body_is_classified_and_not_retried(self):
        open_url, calls = self.canned([(200, {}, b"x" * 100)])
        fetcher = HttpFetcher(
            retries=3, max_bytes=10, open_url=open_url, clock=FakeClock()
        )
        with pytest.raises(OversizedBodyError) as info:
            fetcher.fetch("http://h.test/p")
        assert classify_failure(info.value) == "oversized"
        assert len(calls) == 1  # re-reading a huge body per attempt is the bug

    def test_body_exactly_at_the_cap_is_accepted(self):
        open_url, _ = self.canned([(200, {}, HTML.encode())])
        fetcher = HttpFetcher(
            retries=0, max_bytes=len(HTML.encode()), open_url=open_url, clock=FakeClock()
        )
        assert fetcher.fetch("http://h.test/p").verify().body == HTML


class TestCachingFetcher:
    def test_second_fetch_is_served_from_disk(self, tmp_path):
        origin = StaticFetcher({"http://s.test/p": HTML})
        cache = CachingFetcher(origin, tmp_path / "cache", ttl=100.0, clock=FakeClock())
        first = cache.fetch("http://s.test/p")
        second = cache.fetch("http://s.test/p")
        assert not first.from_cache and second.from_cache
        assert second.verify().body == HTML
        assert (cache.hits, cache.misses) == (1, 1)
        assert origin.calls == 1

    def test_ttl_expiry_refetches(self, tmp_path):
        clock = FakeClock()
        origin = StaticFetcher({"http://s.test/p": HTML})
        cache = CachingFetcher(origin, tmp_path / "cache", ttl=10.0, clock=clock)
        cache.fetch("http://s.test/p")
        clock.advance(11.0)
        result = cache.fetch("http://s.test/p")
        assert not result.from_cache
        assert origin.calls == 2

    def test_future_timestamps_count_as_stale(self, tmp_path):
        clock = FakeClock(start=100.0)
        origin = StaticFetcher({"http://s.test/p": HTML})
        cache = CachingFetcher(origin, tmp_path / "cache", ttl=50.0, clock=clock)
        cache.fetch("http://s.test/p")
        stale = CachingFetcher(
            origin, tmp_path / "cache", ttl=50.0, clock=FakeClock(start=0.0)
        )
        assert not stale.fetch("http://s.test/p").from_cache

    def test_crlf_body_survives_the_disk_round_trip(self, tmp_path):
        # Universal-newline reads would collapse \r\n to \n, shrinking the
        # body below its declared length and failing verify() on every hit.
        crlf_html = "<ul>\r\n<li>item a</li>\r<li>item b</li>\r\n</ul>\n"
        origin = StaticFetcher({"http://s.test/p": crlf_html})
        CachingFetcher(origin, tmp_path / "cache", clock=FakeClock()).fetch(
            "http://s.test/p"
        )
        reader = CachingFetcher(origin, tmp_path / "cache", clock=FakeClock())
        result = reader.fetch("http://s.test/p")
        assert result.from_cache
        assert result.verify().body == crlf_html
        assert origin.calls == 1

    def test_fetched_at_is_wall_clock_scale(self, tmp_path):
        # The entry outlives the process: a monotonic (per-boot) timestamp
        # would date it decades in the past on the next machine or boot.
        import json

        cache = CachingFetcher(StaticFetcher({"http://s.test/p": HTML}), tmp_path / "c")
        cache.fetch("http://s.test/p")
        (meta_path,) = (tmp_path / "c").rglob("*.json")
        fetched_at = json.loads(meta_path.read_text())["fetched_at"]
        assert fetched_at > 1e9  # epoch seconds, not seconds-since-boot

    def test_observer_sees_hits_and_misses(self, tmp_path):
        adapter = TracingInstrumentation()
        cache = CachingFetcher(
            StaticFetcher({"http://s.test/p": HTML}),
            tmp_path / "cache",
            clock=FakeClock(),
            observer=adapter,
        )
        cache.fetch("http://s.test/p")
        cache.fetch("http://s.test/p")
        hits = adapter.metrics.counter("cache.hits").value
        misses = adapter.metrics.counter("cache.misses").value
        assert (hits, misses) == (1, 1)
        assert hits / (hits + misses) == 0.5


class TestFaultInjector:
    def test_plan_is_pure_and_seeded(self):
        fetcher = FaultInjectingFetcher(StaticFetcher({}), rate=1.0, seed=11)
        assert fetcher.plan("http://a/x", 0) == fetcher.plan("http://a/x", 0)
        other = FaultInjectingFetcher(StaticFetcher({}), rate=1.0, seed=12)
        plans = [fetcher.plan(f"http://a/{i}", 0) for i in range(20)]
        others = [other.plan(f"http://a/{i}", 0) for i in range(20)]
        assert plans != others  # the seed matters

    def test_rate_zero_injects_nothing(self):
        origin = StaticFetcher({"http://a/x": HTML})
        fetcher = FaultInjectingFetcher(origin, rate=0.0, seed=1)
        for _ in range(10):
            assert fetcher.fetch("http://a/x").verify().body == HTML

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingFetcher(StaticFetcher({}), kinds=("gamma_rays",))

    def test_corrupt_html_is_deterministic_and_damaging(self):
        import random

        before = HTML * 20
        after = corrupt_html(before, random.Random(5), rate=0.05)
        again = corrupt_html(before, random.Random(5), rate=0.05)
        assert after == again
        assert after != before


class TestHttpProvider:
    def test_search_fetches_the_templated_url(self):
        seen = {}

        def pages(url):
            seen["url"] = url
            return HTML

        provider = HttpProvider(
            name="books.test",
            search_url="http://books.test/search?q={query}",
            fetcher=StaticFetcher(pages),
        )
        assert provider.search("rare books") == HTML
        assert seen["url"] == "http://books.test/search?q=rare+books"

    def test_sample_pages_yields_distinct_queries(self):
        urls = []
        provider = HttpProvider(
            name="books.test",
            search_url="http://books.test/search?q={query}",
            fetcher=StaticFetcher(lambda url: urls.append(url) or HTML),
        )
        samples = provider.sample_pages(4)
        assert len(samples) == 4
        assert len(set(urls)) == 4
