"""Seeded property tests over random and fault-corrupted HTML (stdlib only).

The hypothesis suite (tests/test_properties.py) explores the input space
adaptively; this layer complements it with plain ``random.Random`` so the
invariants also hold (a) under *fault-corrupted* documents produced by the
chaos harness's :func:`repro.fetch.faults.corrupt_html` -- the exact damage
the acquisition tier can let through when integrity facts are absent --
and (b) in environments without hypothesis.  Every case derives from an
explicit seed, so a failure report ("seed 17, corrupted") reproduces
bit-for-bit with no framework in the loop.

Invariants (ISSUE 2 satellite):

* normalizer idempotence: ``normalize(normalize(x)) == normalize(x)``
  (token-for-token, via the serializer);
* serializer -> tokenizer round-trip: re-tokenizing a serialized normalized
  stream yields the same tag structure;
* tag-tree invariants of Definitions 1-4: single root, parent/child
  consistency (Definition 1 via ``validate_tree``), and
  ``fanout == len(children)`` for every tag node (Definition 3).
"""

from __future__ import annotations

import random

import pytest

from repro.fetch.faults import corrupt_html
from repro.html.normalizer import normalize
from repro.html.serializer import serialize_tokens
from repro.html.tokenizer import EndTagToken, StartTagToken, TextToken, iter_tokens
from repro.tree.builder import parse_document
from repro.tree.metrics import fanout
from repro.tree.node import TagNode
from repro.tree.traversal import tag_nodes
from repro.tree.validate import validate_tree

_TAGS = ("p", "b", "i", "table", "tr", "td", "ul", "li", "div", "font", "a", "hr", "br")
_WORDS = ("alpha", "beta", "gamma", "delta", "record", "price", "&amp;", "10.99", "<", ">")

SEEDS = range(25)


def random_soup(rng: random.Random, *, pieces: int = 40) -> str:
    """Arbitrary interleavings of tags, text and garbage -- mostly broken."""
    out = []
    for _ in range(rng.randrange(pieces)):
        roll = rng.random()
        tag = rng.choice(_TAGS)
        if roll < 0.35:
            out.append(" ".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 6))))
        elif roll < 0.60:
            out.append(f"<{tag}>")
        elif roll < 0.80:
            out.append(f"</{tag}>")
        elif roll < 0.90:
            out.append(rng.choice(("<!-- c -->", "<!DOCTYPE html>", "<", ">", "</", "<x")))
        else:
            out.append(f'<{tag} class="c{rng.randrange(9)}" href="/r/{rng.randrange(99)}">')
    return "".join(out)


def random_documents(seed: int) -> list[str]:
    """One seed -> a raw soup, a corrupted soup, and a corrupted valid page."""
    rng = random.Random(seed)
    soup = random_soup(rng)
    records = "".join(
        f"<tr><td><b>rec {i}</b> {' '.join(rng.choice(_WORDS) for _ in range(6))}</td></tr>"
        for i in range(rng.randrange(3, 10))
    )
    page = f"<html><body><table>{records}</table></body></html>"
    return [
        soup,
        corrupt_html(soup, rng, rate=0.05),
        corrupt_html(page, rng, rate=0.03),
    ]


def _structure(tokens):
    """The (kind, name) skeleton a serialized stream must preserve."""
    out = []
    for token in tokens:
        if isinstance(token, StartTagToken):
            out.append(("start", token.name))
        elif isinstance(token, EndTagToken):
            out.append(("end", token.name))
    return out


def _canonical(tokens):
    """Token stream with adjacent text coalesced (granularity-insensitive).

    ``TextToken('a'), TextToken('<')`` and ``TextToken('a<')`` are the same
    document; only the split point differs, and the split point is not an
    invariant the pipeline depends on.
    """
    out: list[tuple] = []
    for token in tokens:
        if isinstance(token, TextToken):
            if out and out[-1][0] == "text":
                out[-1] = ("text", out[-1][1] + token.text)
            else:
                out.append(("text", token.text))
        elif isinstance(token, StartTagToken):
            out.append(("start", token.name, tuple(token.attrs)))
        elif isinstance(token, EndTagToken):
            out.append(("end", token.name))
        else:
            out.append((type(token).__name__, getattr(token, "text", "")))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_normalize_is_idempotent(seed):
    for document in random_documents(seed):
        once = normalize(document)
        twice = normalize(serialize_tokens(once))
        assert _canonical(twice) == _canonical(once), f"seed {seed}"
        # And at the string level: a second full pass is a fixed point.
        assert serialize_tokens(twice) == serialize_tokens(once), f"seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_serializer_tokenizer_round_trip(seed):
    for document in random_documents(seed):
        tokens = normalize(document)
        reparsed = list(iter_tokens(serialize_tokens(tokens)))
        assert _structure(reparsed) == _structure(tokens), f"seed {seed}"


@pytest.mark.parametrize("seed", SEEDS)
def test_tag_tree_invariants(seed):
    for document in random_documents(seed):
        root = parse_document(document)
        # Definition 1 + single root: no violations anywhere in the tree.
        assert root.parent is None
        assert validate_tree(root) == [], f"seed {seed}"
        # Canonical document shape: one root tag, <html>.
        assert isinstance(root, TagNode) and root.name == "html"
        # Definition 3: a tag node's fanout is exactly its child count.
        for node in tag_nodes(root):
            assert fanout(node) == len(node.children)
            for child in node.children:
                assert child.parent is node


@pytest.mark.parametrize("seed", SEEDS)
def test_corruption_never_crashes_the_front_end(seed):
    """Damaged bytes may change the tree, never take down Phase 1."""
    rng = random.Random(seed * 31 + 7)
    page = random_soup(rng, pieces=60)
    for _ in range(3):
        page = corrupt_html(page, rng, rate=0.1)
        root = parse_document(page)
        assert validate_tree(root) == []
