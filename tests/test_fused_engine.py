"""Fused-engine equivalence: one scan must equal the legacy three stages.

The fused engine (:func:`repro.html.engine.parse_html`) replaces
``iter_tokens -> Normalizer -> build_tag_tree`` with a single pass; its
*only* license to exist is bit-identical output.  These seeded property
tests (ISSUE 6 satellite, in the style of tests/test_random_properties.py)
pin that equivalence across every parse-option combination over random
soup, fault-corrupted pages, and corpus documents: identical trees
(structure, attributes, text, serializer round-trip), identical metrics
(fanout/nodeSize/tagCount per node), identical repair reports, and
identical failure messages when both paths must raise.
"""

from __future__ import annotations

import pytest

from repro.html.engine import parse_html
from repro.html.normalizer import NormalizationReport, Normalizer
from repro.html.serializer import serialize_tokens
from repro.tree.builder import build_tag_tree, tree_to_tokens
from repro.tree.metrics import fanout, node_size, tag_count
from repro.tree.node import ContentNode, TagNode
from tests.test_random_properties import random_documents

#: Every combination the pipeline exposes, including the all-off corner.
OPTION_SETS = (
    {},
    {"drop_scripts": False},
    {"drop_comments": False},
    {"synthesize_structure": False},
    {"collapse_whitespace": False},
    {
        "drop_scripts": False,
        "drop_comments": False,
        "synthesize_structure": False,
        "collapse_whitespace": False,
    },
)

SEEDS = range(15)


def tree_facts(root: TagNode) -> list[tuple]:
    """Pre-order (name, attrs, fanout, nodeSize, tagCount | text) facts."""
    out: list[tuple] = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ContentNode):
            out.append(("#text", node.content, node_size(node)))
        else:
            out.append(
                (node.name, node.attrs, fanout(node), node_size(node), tag_count(node))
            )
            stack.extend(reversed(node.children))
    return out


def legacy_parse(source: str, **options):
    """The pre-fusion pipeline: materialized tokens through three stages."""
    normalizer = Normalizer(**options)
    root = build_tag_tree(normalizer.normalize(source))
    return root, normalizer.report


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_parse_is_bit_identical_to_legacy(seed):
    for document in random_documents(seed):
        for options in OPTION_SETS:
            try:
                expected, expected_report = legacy_parse(document, **options)
                legacy_error = None
            except ValueError as error:
                expected, expected_report, legacy_error = None, None, str(error)
            fused_report = NormalizationReport()
            try:
                actual = parse_html(document, report=fused_report, **options)
                fused_error = None
            except ValueError as error:
                actual, fused_error = None, str(error)
            assert fused_error == legacy_error, f"options={options}"
            if expected is None:
                continue
            assert tree_facts(actual) == tree_facts(expected), f"options={options}"
            assert fused_report == expected_report, f"options={options}"
            # Serializer round-trip: the linearized streams agree byte-wise.
            assert serialize_tokens(tree_to_tokens(actual)) == serialize_tokens(
                tree_to_tokens(expected)
            )


def test_fused_parse_matches_legacy_on_corpus_pages():
    from repro.corpus import TEST_SITES, CorpusGenerator

    generator = CorpusGenerator(max_pages_per_site=1)
    pages = [page.html for site in TEST_SITES for page in generator.pages_for_site(site)]
    assert pages
    for html in pages:
        expected, expected_report = legacy_parse(html)
        report = NormalizationReport()
        actual = parse_html(html, report=report)
        assert tree_facts(actual) == tree_facts(expected)
        assert report == expected_report


def test_empty_document_synthesizes_the_skeleton():
    fused = parse_html("")
    legacy, _ = legacy_parse("")
    assert tree_facts(fused) == tree_facts(legacy)
    assert [c.name for c in fused.children] == ["body"]


def test_empty_document_without_synthesis_raises_identically():
    with pytest.raises(ValueError) as fused_error:
        parse_html("", synthesize_structure=False)
    with pytest.raises(ValueError) as legacy_error:
        legacy_parse("", synthesize_structure=False)
    assert str(fused_error.value) == str(legacy_error.value)
