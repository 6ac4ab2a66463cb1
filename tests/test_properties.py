"""Property-based tests (hypothesis) for the core invariants.

Strategy: generate arbitrary text, arbitrary tag soup, and random *valid*
record pages, then assert the invariants the rest of the system depends on:

* the tokenizer never raises and never loses characters;
* normalization always yields a balanced stream, and is idempotent;
* tree metrics are internally consistent (sizes sum, counts add up);
* dot-notation paths round-trip for every node;
* era-typical malformation never changes object-level ground truth;
* object construction partitions (never duplicates) the region's content.
"""

import random as stdlib_random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objects import construct_objects
from repro.corpus.noise import malform
from repro.html.entities import decode_entities, encode_entities
from repro.html.normalizer import normalize
from repro.html.serializer import serialize_tokens
from repro.html.tokenizer import EndTagToken, StartTagToken, TextToken, iter_tokens
from repro.tree.builder import build_tag_tree, parse_document
from repro.tree.metrics import fanout, node_size, tag_count
from repro.tree.node import ContentNode, TagNode
from repro.tree.paths import node_at_path, path_of
from repro.tree.traversal import iter_nodes, tag_nodes

# -- strategies ----------------------------------------------------------

plain_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=200,
)

tag_names = st.sampled_from(
    ["p", "b", "i", "table", "tr", "td", "ul", "li", "div", "font", "a", "hr", "br"]
)


@st.composite
def tag_soup(draw):
    """Random interleavings of tags and text -- mostly broken HTML."""
    pieces = draw(
        st.lists(
            st.one_of(
                plain_text,
                tag_names.map(lambda t: f"<{t}>"),
                tag_names.map(lambda t: f"</{t}>"),
                st.just("<!-- c -->"),
                st.just("<"),
                st.just(">"),
            ),
            max_size=30,
        )
    )
    return "".join(pieces)


@st.composite
def record_page(draw):
    """A well-formed result page with a known record count."""
    n = draw(st.integers(min_value=3, max_value=12))
    layout = draw(st.sampled_from(["tr", "li", "p"]))
    words = draw(st.integers(min_value=2, max_value=12))
    body = []
    for i in range(n):
        content = f"<b>record {i}</b> " + ("word " * words)
        if layout == "tr":
            body.append(f"<tr><td>{content}</td></tr>")
        elif layout == "li":
            body.append(f"<li>{content}</li>")
        else:
            body.append(f"<p>{content}</p>")
    inner = "".join(body)
    container = {"tr": "table", "li": "ul", "p": "blockquote"}[layout]
    page = f"<html><body><{container}>{inner}</{container}></body></html>"
    return page, container, layout, n


# -- entity codec ----------------------------------------------------------


@given(plain_text)
def test_encode_decode_round_trip(text):
    assert decode_entities(encode_entities(text)) == text


@given(plain_text)
def test_attribute_encode_decode_round_trip(text):
    assert decode_entities(encode_entities(text, attribute=True)) == text


# -- tokenizer ---------------------------------------------------------------


@given(tag_soup())
@settings(max_examples=200)
def test_tokenizer_never_raises(soup):
    list(iter_tokens(soup))


@given(plain_text)
def test_tokenizer_preserves_plain_text(text):
    if "<" in text:
        return  # '<' may legitimately start a tag
    tokens = list(iter_tokens(text))
    assert "".join(t.text for t in tokens if isinstance(t, TextToken)) == decode_entities(text)


# -- normalizer --------------------------------------------------------------


def _is_balanced(tokens):
    stack = []
    for token in tokens:
        if isinstance(token, StartTagToken):
            stack.append(token.name)
        elif isinstance(token, EndTagToken):
            if not stack or stack[-1] != token.name:
                return False
            stack.pop()
    return not stack


@given(tag_soup())
@settings(max_examples=200)
def test_normalize_always_balanced(soup):
    assert _is_balanced(normalize(soup))


@given(tag_soup())
@settings(max_examples=100)
def test_normalize_is_idempotent(soup):
    once = serialize_tokens(normalize(soup))
    twice = serialize_tokens(normalize(once))
    assert once == twice


@given(tag_soup())
@settings(max_examples=100)
def test_normalized_soup_builds_a_tree(soup):
    tokens = normalize(soup)
    if tokens:
        root = build_tag_tree(tokens)
        assert root.name == "html"


# -- tree metrics -------------------------------------------------------------


@given(tag_soup())
@settings(max_examples=100)
def test_node_size_equals_sum_of_leaves(soup):
    root = parse_document(soup)
    expected = sum(
        len(n.content.encode("utf-8"))
        for n in iter_nodes(root)
        if isinstance(n, ContentNode)
    )
    assert node_size(root) == expected


@given(tag_soup())
@settings(max_examples=100)
def test_tag_count_equals_node_count(soup):
    root = parse_document(soup)
    assert tag_count(root) == sum(1 for _ in iter_nodes(root))


@given(tag_soup())
@settings(max_examples=100)
def test_parent_size_bounds_child_size(soup):
    root = parse_document(soup)
    for node in tag_nodes(root):
        for child in node.children:
            assert node_size(child) <= node_size(node)
            assert fanout(node) == len(node.children)


# -- paths ---------------------------------------------------------------------


@given(tag_soup())
@settings(max_examples=100)
def test_paths_round_trip_for_every_node(soup):
    root = parse_document(soup)
    for node in tag_nodes(root):
        assert node_at_path(root, path_of(node)) is node


# -- malformation invariance -----------------------------------------------


@given(record_page(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60)
def test_malform_preserves_record_count(page_data, seed):
    page, container, separator, n = page_data
    soup = malform(page, stdlib_random.Random(seed), intensity=0.8)
    root = parse_document(soup)
    region = next(n2 for n2 in tag_nodes(root) if n2.name == container)
    separators = [
        c for c in region.children
        if isinstance(c, TagNode) and c.name == separator
    ]
    assert len(separators) == n


# -- object construction -------------------------------------------------------


@given(record_page())
@settings(max_examples=60)
def test_construction_partitions_content(page_data):
    page, container, separator, n = page_data
    root = parse_document(page)
    region = next(n2 for n2 in tag_nodes(root) if n2.name == container)
    objects = construct_objects(region, separator)
    assert len(objects) == n
    # No byte of content is duplicated or lost across objects.
    assert sum(o.size for o in objects) == node_size(region)


@given(record_page())
@settings(max_examples=30)
def test_every_construction_mode_is_exhaustive_or_empty(page_data):
    page, container, separator, n = page_data
    root = parse_document(page)
    region = next(n2 for n2 in tag_nodes(root) if n2.name == container)
    for mode in ("container", "leading", "boundary"):
        objects = construct_objects(region, separator, mode=mode)
        total = sum(o.size for o in objects)
        assert total <= node_size(region)
        if mode in ("container", "leading"):
            assert total == node_size(region)
