"""Seeded inputs, reference answers and input-property checks.

Each workload is built from ``--seed`` alone: the same seed gives
byte-identical requests, reference answers and schedule.  Every request
carries the answer the library path gives for it -- ``StageEngine`` over
a ``RuleStore`` warmed the same way the server is warmed -- so the load
generator can check every response.  Discovery alone is not a valid
oracle for a page served by a cached rule (the two differ on some
pages), which is why the reference replays the rule state, not just the
page.

Each workload is built so the expected answer does not depend on how
requests interleave:

* in ``table17_known_site``, ``refetch_small_edit`` and ``fleet_recrawl``
  only pages on which the warmed rule applies are scheduled, so rules
  stay fixed after warm-up;
* in ``drift_relearn`` only sites whose every layout step is stale are
  scheduled, so every request relearns from its own page;
* the load generator pins each site to one connection, so a site's
  requests reach the server in schedule order.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from typing import Any

from repro.core.rules import RuleStore
from repro.core.stages.config import ExtractorConfig
from repro.core.stages.context import ExtractionContext
from repro.core.stages.engine import StageEngine
from repro.corpus import TEST_SITES, CorpusGenerator
from repro.corpus.adversarial import AdversarialCorpusGenerator, synthesize_sites
from repro.corpus.dictionary import WORDS, random_words
from repro.tree.incremental import common_affix

WORKLOADS = (
    "table17_known_site",
    "drift_relearn",
    "refetch_small_edit",
    "fleet_recrawl",
)

#: Open-loop arrival rate of the ``loaded`` phase, requests per second.
#: Chosen for today's keep-alive floor: a request sent less than 40 ms
#: after the previous answer on its connection stalls ~44 ms, one sent
#: later is answered in ~2 ms.  At 30/s about two thirds stall, so the
#: median sits inside the stall mode; at 20-25/s it sits on the edge
#: between the two modes and jumps by 10-30% from run to run.
LOADED_RATE = 30.0

#: Pages per site in the ``table17_known_site`` pool.  15 sites x 100
#: pages = 1500 distinct bodies, far beyond the tree cache's 128 entries,
#: so a body is always evicted before it comes round again.
TABLE17_PAGES = 100
#: Drifting sites scheduled; more than the rule cache's 256 entries, so
#: LRU eviction and RuleStore read-through run too.
DRIFT_SITES = 300
#: Layout generations a drifting site cycles through.
DRIFT_CYCLE = 6
#: Adversarial (non-drift) sites joining the 15 TEST_SITES in
#: ``refetch_small_edit``.
REFETCH_ADVERSARIAL = 45
#: Edited variants per refetched page; at 60 sites a variant's previous
#: copy is 8 x 60 requests old, long evicted from the tree cache.
REFETCH_VARIANTS = 8
#: Corpus pages per site in ``fleet_recrawl`` (15 x 8 = 120 URLs).
FLEET_PAGES = 8

#: The record number inside a record title, e.g. "Blue Fox Tales (query #3)".
_TITLE_NUMBER = re.compile(r" #(\d)\)")


@dataclass(frozen=True)
class Answer:
    """What a correct ``/extract`` response says about the records."""

    records: tuple[str, ...]
    separator: str | None
    subtree: str
    used_cached_rule: bool

    def matches(self, payload: Any) -> bool:
        """True when a decoded 200 response body carries this answer."""
        return (
            isinstance(payload, dict)
            and payload.get("status") == "ok"
            and tuple(payload.get("records") or ()) == self.records
            and payload.get("separator") == self.separator
            and payload.get("subtree") == self.subtree
            and payload.get("used_cached_rule") is self.used_cached_rule
        )

    def as_json(self) -> list[Any]:
        return [list(self.records), self.separator, self.subtree, self.used_cached_rule]


@dataclass(frozen=True)
class Item:
    """One request the generator can send, with its expected answer."""

    site: str
    html: str
    expected: Answer
    payload: bytes
    url: str | None = None


def inline_item(site: str, html: str, expected: Answer) -> Item:
    payload = json.dumps({"html": html, "site": site}).encode("utf-8")
    return Item(site=site, html=html, expected=expected, payload=payload)


def url_item(site: str, url: str, html: str, expected: Answer) -> Item:
    payload = json.dumps({"url": url}).encode("utf-8")
    return Item(site=site, html=html, expected=expected, payload=payload, url=url)


class Reference:
    """The library path: ``StageEngine`` over one ``RuleStore``."""

    def __init__(self) -> None:
        config = ExtractorConfig()
        self.engine = StageEngine()
        self.store = RuleStore()
        self._components = {
            "subtree_finder": config.build_subtree_finder(),
            "separator_finder": config.build_separator_finder(),
            "refinement": config.build_refinement(),
        }

    def extract(self, html: str, site: str) -> Answer:
        ctx = ExtractionContext(
            source=html, site=site, rule_store=self.store, **self._components
        )
        result = self.engine.extract(ctx)
        return Answer(
            records=tuple(obj.text() for obj in result.objects),
            separator=result.separator,
            subtree=result.subtree_path,
            used_cached_rule=result.used_cached_rule,
        )


class Cursor:
    """Each site's position in its cyclic request sequence.

    Shared by every phase of a run, so a site's layout generation or edit
    chain continues where the previous phase left it.  A site is pinned to
    one connection, so only one thread advances a given site.
    """

    def __init__(self, sequences: dict[str, list[Item]]) -> None:
        self._sequences = sequences
        self._positions = dict.fromkeys(sequences, 0)

    def next(self, site: str) -> Item:
        sequence = self._sequences[site]
        position = self._positions[site]
        self._positions[site] = position + 1
        return sequence[position % len(sequence)]


@dataclass
class Workload:
    """A workload's seeded inputs: warm-up, per-site sequences, topology."""

    name: str
    seed: int
    #: ``thread``: one thread-mode node; ``rules``: the same with a rules
    #: file; ``fleet``: coordinator + two process-mode nodes.
    topology: str
    warmup: list[Item]
    #: Site -> the cyclic sequence of its requests (dict order is the
    #: round-robin order of the sites).
    sequences: dict[str, list[Item]]
    #: What every scheduled request has, in words.
    property_text: str
    #: Candidates generated, and how many of them had the property.
    candidates: int
    with_property: int
    #: Relative corpus path -> page body (``fleet_recrawl`` only).
    corpus: dict[str, str] = field(default_factory=dict)

    @property
    def sites(self) -> list[str]:
        return list(self.sequences)

    def cursor(self) -> Cursor:
        return Cursor(self.sequences)

    def arrivals(self, count: int) -> list[tuple[float, str]]:
        """The ``loaded`` phase: ``(due seconds, site)`` in due order.

        The due times are one fixed Poisson realization per workload, so
        every seed meets the same bursts and the spread of the loaded
        percentiles across seeds reflects the server, not the schedule;
        ``--seed`` varies the pages.  Sites take turns round-robin.
        """
        rng = random.Random(f"arrivals:{self.name}")
        sites = self.sites
        due = 0.0
        schedule = []
        for index in range(count):
            due += rng.expovariate(LOADED_RATE)
            schedule.append((due, sites[index % len(sites)]))
        return schedule

    def replay_items(self, count: int) -> list[Item]:
        """The first ``count`` requests of the one-connection order."""
        sites = self.sites
        items = []
        for index in range(count):
            sequence = self.sequences[sites[index % len(sites)]]
            items.append(sequence[(index // len(sites)) % len(sequence)])
        return items

    def reference_digest(self) -> str:
        """sha256 of every reference answer, in schedule order."""
        document = {
            "warmup": [[item.site, item.expected.as_json()] for item in self.warmup],
            "sequences": {
                site: [item.expected.as_json() for item in sequence]
                for site, sequence in self.sequences.items()
            },
        }
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def schedule_digest(self, arrivals: int) -> str:
        """sha256 over everything the server would read, in send order:
        each request body and the page it extracts from (for URL
        requests, the corpus page behind the URL)."""
        digest = hashlib.sha256()
        for item in self.warmup:
            digest.update(item.payload + item.html.encode("utf-8"))
        for site, sequence in self.sequences.items():
            digest.update(site.encode("utf-8"))
            for item in sequence:
                digest.update(item.payload + item.html.encode("utf-8"))
        for due, site in self.arrivals(arrivals):
            digest.update(f"{due!r}:{site}".encode("utf-8"))
        return digest.hexdigest()


# -- the four workloads ------------------------------------------------------


def build(name: str, seed: int) -> Workload:
    """Generate, reference-check and property-check one workload."""
    builders = {
        "table17_known_site": _table17_known_site,
        "drift_relearn": _drift_relearn,
        "refetch_small_edit": _refetch_small_edit,
        "fleet_recrawl": _fleet_recrawl,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return builders[name](seed)


def _known_site_pages(
    generator: CorpusGenerator,
    spec: Any,
    site: str,
    words: list[str],
    reference: Reference,
    count: int,
) -> tuple[str, Answer, list[tuple[str, Answer]], int]:
    """A learner page plus ``count`` fresh pages the learned rule applies to.

    Returns ``(learner html, its discovery answer, [(html, cached answer)],
    candidates tried)``.  The learner is the first page whose discovery
    yields a rule; a later page the rule does not apply to is skipped
    (serving it would relearn and change the site's rule).
    """
    remaining = iter(words)
    for word in remaining:
        learner = generator.page_for_query(spec, word).html
        learned = reference.extract(learner, site)
        rule = reference.store.get(site)
        if rule is not None:
            break
    else:
        raise RuntimeError(f"no page of {site} yields a rule")
    pages: list[tuple[str, Answer]] = []
    candidates = 0
    for word in remaining:
        if len(pages) == count:
            break
        html = generator.page_for_query(spec, word).html
        candidates += 1
        answer = reference.extract(html, site)
        if answer.used_cached_rule:
            pages.append((html, answer))
        else:
            reference.store.put(rule)  # undo the relearn
    return learner, learned, pages, candidates


def _table17_known_site(seed: int) -> Workload:
    generator = CorpusGenerator(master_seed=seed)
    rng = random.Random(f"table17_known_site:{seed}")
    reference = Reference()
    warmup: list[Item] = []
    sequences: dict[str, list[Item]] = {}
    candidates = 0
    for spec in TEST_SITES:
        learner, learned, pages, tried = _known_site_pages(
            generator, spec, spec.name, random_words(rng, len(WORDS)),
            reference, TABLE17_PAGES,
        )
        candidates += tried
        warmup.append(inline_item(spec.name, learner, learned))
        sequences[spec.name] = [
            inline_item(spec.name, html, answer) for html, answer in pages
        ]
    bodies = [item.html for item in warmup] + [
        item.html for sequence in sequences.values() for item in sequence
    ]
    if len(set(bodies)) != len(bodies):
        raise RuntimeError("table17_known_site: a body repeats")
    scheduled = sum(len(sequence) for sequence in sequences.values())
    return Workload(
        name="table17_known_site",
        seed=seed,
        topology="thread",
        warmup=warmup,
        sequences=sequences,
        property_text="a body never sent before and a site rule that applies",
        candidates=candidates,
        with_property=scheduled,
    )


def _drift_relearn(seed: int) -> Workload:
    generator = AdversarialCorpusGenerator(master_seed=seed)
    reference = Reference()
    order = list(range(1, DRIFT_CYCLE)) + [0]
    warmup: list[Item] = []
    sequences: dict[str, list[Item]] = {}
    steps = stale_steps = 0
    for spec in synthesize_sites(10 * DRIFT_SITES, master_seed=seed):
        if len(sequences) == DRIFT_SITES:
            break
        if spec.category != "drift":
            continue
        site = spec.name
        pages = [
            generator.generation_page(spec, generation).html
            for generation in range(DRIFT_CYCLE)
        ]
        first = reference.extract(pages[0], site)
        cycle: list[Item] = []
        all_stale = True
        for generation in order:
            # Stale: the rule learned from the previous step fails to apply.
            had_rule = reference.store.get(site) is not None
            answer = reference.extract(pages[generation], site)
            stale = had_rule and not answer.used_cached_rule
            steps += 1
            stale_steps += stale
            all_stale = all_stale and stale
            cycle.append(inline_item(site, pages[generation], answer))
        if all_stale:
            warmup.append(inline_item(site, pages[0], first))
            sequences[site] = cycle
    if len(sequences) < DRIFT_SITES:
        raise RuntimeError(f"drift_relearn: only {len(sequences)} fully stale sites")
    return Workload(
        name="drift_relearn",
        seed=seed,
        topology="rules",
        warmup=warmup,
        sequences=sequences,
        property_text="a stale rule (the previous generation's rule fails)",
        candidates=steps,
        with_property=stale_steps,
    )


def _edit_variants(html: str, rng: random.Random) -> list[str] | None:
    """``REFETCH_VARIANTS`` bodies differing only in one record title's
    number -- a one-character text edit inside a record, like a price
    change.  Every template renders titles; not every one renders prices."""
    numbers = list(_TITLE_NUMBER.finditer(html))
    if not numbers:
        return None
    match = rng.choice(numbers)
    start = match.start(1)
    digit = int(match.group(1))
    return [
        f"{html[:start]}{(digit + step) % 10}{html[start + 1:]}"
        for step in range(REFETCH_VARIANTS)
    ]


def _one_span_apart(old: str, new: str) -> bool:
    prefix, suffix = common_affix(old, new)
    return old != new and len(old) == len(new) and len(old) - prefix - suffix <= 2


def _refetch_small_edit(seed: int) -> Workload:
    rng = random.Random(f"refetch_small_edit:{seed}")
    generator = CorpusGenerator(master_seed=seed)
    adversarial = AdversarialCorpusGenerator(master_seed=seed)
    words = iter(random_words(rng, len(WORDS)))
    reference = Reference()
    warmup: list[Item] = []
    sequences: dict[str, list[Item]] = {}
    for spec in TEST_SITES:
        # A page without a usable edit retries the site with the next word.
        for word in words:
            html = generator.page_for_query(spec, word).html
            if _refetch_site(spec.name, html, rng, reference, warmup, sequences):
                break
        else:
            raise RuntimeError(f"refetch_small_edit: no usable page of {spec.name}")
    adversarial_sites = 0
    for spec in synthesize_sites(10 * REFETCH_ADVERSARIAL, master_seed=seed):
        if adversarial_sites == REFETCH_ADVERSARIAL:
            break
        if spec.category != "drift":
            html = adversarial.generation_page(spec, 0).html
            adversarial_sites += _refetch_site(
                spec.name, html, rng, reference, warmup, sequences
            )
    steps = one_span = 0
    for first, sequence in zip(warmup, sequences.values(), strict=True):
        cycle = [first.html] + [item.html for item in sequence]
        for old, new in zip(cycle, cycle[1:], strict=False):
            steps += 1
            one_span += _one_span_apart(old, new)
    if steps != one_span:
        raise RuntimeError("refetch_small_edit: an edit is not one same-length span")
    return Workload(
        name="refetch_small_edit",
        seed=seed,
        topology="thread",
        warmup=warmup,
        sequences=sequences,
        property_text="one same-length edit to one short span of the previous body",
        candidates=steps,
        with_property=one_span,
    )


def _refetch_site(
    site: str,
    html: str,
    rng: random.Random,
    reference: Reference,
    warmup: list[Item],
    sequences: dict[str, list[Item]],
) -> bool:
    """Schedule one refetched site; False when its page does not qualify."""
    variants = _edit_variants(html, rng)
    if variants is None:
        return False
    learned = reference.extract(variants[0], site)
    if reference.store.get(site) is None:
        return False
    cycle = []
    for variant in variants[1:] + variants[:1]:
        answer = reference.extract(variant, site)
        if not answer.used_cached_rule:
            reference.store.invalidate(site)
            return False
        cycle.append(inline_item(site, variant, answer))
    warmup.append(inline_item(site, variants[0], learned))
    sequences[site] = cycle
    return True


def _fleet_recrawl(seed: int) -> Workload:
    generator = CorpusGenerator(master_seed=seed)
    rng = random.Random(f"fleet_recrawl:{seed}")
    reference = Reference()
    warmup: list[Item] = []
    sequences: dict[str, list[Item]] = {}
    corpus: dict[str, str] = {}
    candidates = 0
    for spec in TEST_SITES:
        host = spec.name.replace("/", ".")
        learner, learned, pages, tried = _known_site_pages(
            generator, spec, host, random_words(rng, len(WORDS)),
            reference, FLEET_PAGES - 1,
        )
        relearned = reference.extract(learner, host)
        if not relearned.used_cached_rule:
            raise RuntimeError(f"fleet_recrawl: {host}'s rule misses its own page")
        candidates += tried + 1
        site_items = []
        for index, (html, answer) in enumerate([(learner, relearned)] + pages):
            path = f"{host}/page_{index:04d}.html"
            corpus[path] = html
            site_items.append(url_item(host, f"http://{path}", html, answer))
        # The learner page is answered by discovery the first time only.
        warmup.append(url_item(host, f"http://{host}/page_0000.html", learner, learned))
        warmup.extend(site_items[1:])
        sequences[host] = site_items
    scheduled = sum(len(sequence) for sequence in sequences.values())
    return Workload(
        name="fleet_recrawl",
        seed=seed,
        topology="fleet",
        warmup=warmup,
        sequences=sequences,
        property_text="a URL warmed before measurement, with a rule that applies",
        candidates=candidates,
        with_property=scheduled,
        corpus=corpus,
    )
