"""Chaos test: a drifting adversarial site served through the runtime.

Drives one ``drift``-category site's generation sequence through
:class:`~repro.serve.runtime.ServeRuntime` and asserts the self-healing
machinery fires exactly as designed: every layout generation invalidates
the cached rule (``rules.stale``), exactly one relearn happens per stale
generation (``rules.relearned``), and the tree cache's incremental
re-parse path *bails out* on structural drift
(``trees.incremental.fallbacks``) instead of patching across a layout
change.

The spec under test is chosen deterministically: the fixture pre-verifies,
against :meth:`~repro.core.rules.ExtractionRule.apply` directly, that every
generation transition of the chosen site really does raise
:class:`~repro.core.rules.StaleRuleError` -- most drift sites qualify, but
the occasional transition leaves the old path resolvable, and this test
must not depend on which one the corpus happens to emit first.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.pipeline import OminiExtractor
from repro.core.rules import ExtractionRule, RuleStore, StaleRuleError
from repro.core.stages.config import ExtractorConfig
from repro.corpus import (
    TEST_SITES,
    AdversarialCorpusGenerator,
    CorpusGenerator,
    synthesize_sites,
)
from repro.fetch.base import FakeClock
from repro.serve.protocol import ExtractRequest
from repro.serve.rulecache import SharedRuleCache
from repro.serve.runtime import PendingRequest, ServeConfig, ServeRuntime
from repro.tree.builder import parse_document


def _counters(runtime: ServeRuntime) -> dict[str, int]:
    return {k: v for k, v in runtime.metrics.snapshot()["counters"].items() if v}


def _drift_pages(spec):
    generator = AdversarialCorpusGenerator(master_seed=7)
    return [
        generator.generation_page(spec, generation)
        for generation in range(spec.drift_generations)
    ]


@pytest.fixture(scope="module")
def stale_drift_site():
    """(spec, pages) for a drift site whose every transition goes stale."""
    extractor = OminiExtractor()
    for spec in (s for s in synthesize_sites(50) if s.category == "drift"):
        pages = _drift_pages(spec)
        results = [extractor.extract(p.html, site=p.site) for p in pages]
        assert all(r.separator for r in results), (
            "discovery must commit to a separator on every generation"
        )
        rules = [
            ExtractionRule(
                site=page.site,
                subtree_path=result.subtree_path,
                separator=result.separator,
            )
            for page, result in zip(pages, results, strict=True)
        ]
        fully_stale = True
        for rule, successor in zip(rules, pages[1:], strict=False):
            try:
                rule.apply(parse_document(successor.html))
            except StaleRuleError:
                continue
            fully_stale = False
            break
        if fully_stale:
            return spec, pages
    pytest.fail("no fully-stale drift spec among the 50-site sample")


def test_each_drift_generation_relearns_exactly_once(stale_drift_site):
    spec, pages = stale_drift_site
    runtime = ServeRuntime(ServeConfig(workers=1), clock=FakeClock()).start()

    for index, page in enumerate(pages):
        response = runtime.handle(ExtractRequest(html=page.html, site=page.site))
        assert response.status == 200
        assert response.payload["record_count"] >= 1
        # Every generation after the first is served by relearning, not by
        # the (stale) cached rule.
        assert not response.payload["used_cached_rule"]
        counters = _counters(runtime)
        assert counters.get("rules.stale", 0) == index
        assert counters.get("rules.relearned", 0) == index

    transitions = len(pages) - 1
    counters = _counters(runtime)
    assert counters["rules.stale"] == transitions
    assert counters["rules.relearned"] == transitions
    # The incremental re-parser was offered every generation's new body
    # (same site, different digest) and correctly bailed out on each
    # structural drift; it must never "succeed" across a layout change.
    assert counters["trees.incremental.fallbacks"] == transitions
    assert "trees.incremental.hits" not in counters

    # Replaying the final generation applies the last relearned rule from
    # cache: no new staleness, no new relearn.
    replay = runtime.handle(ExtractRequest(html=pages[-1].html, site=pages[-1].site))
    assert replay.status == 200
    assert replay.payload["used_cached_rule"]
    after = _counters(runtime)
    assert after["rules.stale"] == transitions
    assert after["rules.relearned"] == transitions
    runtime.drain()


class _BarrierRuleCache(SharedRuleCache):
    """Rendezvous both stale reporters before the relearn election."""

    def __init__(self, parties: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.stale_barrier = threading.Barrier(parties)

    def report_stale(self, site, rule):
        self.stale_barrier.wait(timeout=30)
        return super().report_stale(site, rule)


def test_concurrent_requests_on_a_drifted_page_elect_one_relearner(stale_drift_site):
    spec, pages = stale_drift_site
    cache = _BarrierRuleCache(parties=2, metrics=None)
    runtime = ServeRuntime(
        ServeConfig(workers=2), rule_cache=cache, clock=FakeClock()
    )
    cache.metrics = runtime.metrics
    runtime.start()

    warm = runtime.handle(ExtractRequest(html=pages[0].html, site=pages[0].site))
    assert warm.status == 200

    # Two workers race on the next generation's page: both lease the now
    # stale generation-0 rule, fail, and meet at the barrier; exactly one
    # wins the relearn election.
    pendings = [
        runtime.submit(ExtractRequest(html=pages[1].html, site=pages[1].site))
        for _ in range(2)
    ]
    assert all(isinstance(p, PendingRequest) for p in pendings)
    responses = [runtime.wait(p, timeout=30) for p in pendings]
    assert [r.status for r in responses] == [200, 200]

    counters = _counters(runtime)
    assert counters["rules.stale"] == 2
    assert counters["rules.relearned"] == 1
    assert counters.get("rules.shared", 0) + counters.get("rules.hits", 0) >= 1
    runtime.drain()


@pytest.mark.parametrize(
    "config",
    [
        ExtractorConfig(),
        # The BYU baseline lane's config (repro.eval.harness2.byu_lane).
        ExtractorConfig(
            subtree_dimensions=("fanout",), heuristics=("HC", "IT", "RP", "SD")
        ),
    ],
    ids=["default", "byu"],
)
def test_serve_and_library_give_the_same_answers(stale_drift_site, config):
    """Differential check of the one Section 6.6 loop on both paths.

    The served answer (shared rule cache, tree cache, incremental
    re-parse) and the library answer (a plain RuleStore) must agree on
    every request of the same sequence: learn, cached apply, and every
    drift generation's stale-rule relearn -- for the default config and
    for a non-default one, since both paths build the extractor from it.
    """
    _, drift = stale_drift_site
    pages = CorpusGenerator(max_pages_per_site=3).generate(TEST_SITES) + drift
    pages.append(drift[-1])  # replay: the last relearned rule applies
    runtime = ServeRuntime(
        ServeConfig(workers=1), clock=FakeClock(), extractor_config=config
    ).start()
    library = OminiExtractor.from_config(config, rule_store=RuleStore())
    relearns: Counter[str] = Counter()
    try:
        for page in pages:
            served = runtime.handle(ExtractRequest(html=page.html, site=page.site))
            assert served.status == 200, served.payload
            expected = library.extract(page.html, site=page.site)
            assert served.payload["records"] == [o.text() for o in expected.objects]
            assert served.payload["separator"] == expected.separator
            assert served.payload["subtree"] == expected.subtree_path
            assert served.payload["used_cached_rule"] == expected.used_cached_rule
            relearns[page.site] += expected.fallbacks
    finally:
        runtime.drain()
    counters = _counters(runtime)
    # Each drift generation relearns once; the BYU config also heals a
    # corpus site, so the served total is pinned to the library's.
    assert relearns[drift[0].site] == len(drift) - 1
    assert counters["rules.relearned"] == sum(relearns.values())
    assert counters.get("rules.hits", 0) >= 1
