"""Unit tests for the serializer (repro.html.serializer)."""

from repro.html.normalizer import normalize
from repro.html.serializer import serialize_start_tag, serialize_tokens
from repro.html.tokenizer import StartTagToken
from repro.tree.builder import build_tag_tree, parse_document, tree_to_tokens


class TestStartTag:
    def test_plain_tag(self):
        assert serialize_start_tag(StartTagToken("br")) == "<br>"

    def test_attributes_double_quoted(self):
        tag = StartTagToken("a", (("href", "http://x/"),))
        assert serialize_start_tag(tag) == '<a href="http://x/">'

    def test_attribute_value_escaped(self):
        tag = StartTagToken("a", (("title", 'say "hi" & more'),))
        assert 'title="say &quot;hi&quot; &amp; more"' in serialize_start_tag(tag)


class TestWellFormedOutput:
    def test_round_trip_produces_well_formed_text(self):
        soup = '<ul><li>a & b<li>c>d</ul><p>unclosed <img src=x>'
        text = serialize_tokens(normalize(soup))
        # Condition 1: no bare < or > in text (re-tokenizing finds no
        # degenerate text tokens containing markup).
        reparsed = normalize(text)
        assert serialize_tokens(reparsed) == text  # normalize is idempotent

    def test_void_elements_paired_in_output(self):
        text = serialize_tokens(normalize("<body>a<br>b</body>"))
        assert "<br></br>" in text

    def test_entities_escaped_in_text(self):
        text = serialize_tokens(normalize("<p>1 < 2 & 3</p>"))
        assert "&lt;" in text and "&amp;" in text

    def test_unquoted_attributes_requoted(self):
        text = serialize_tokens(normalize("<td width=100>x</td>"))
        assert 'width="100"' in text


class TestIndentedOutput:
    def test_indentation_reflects_nesting(self):
        text = serialize_tokens(
            normalize("<html><body><p>x</p></body></html>"), indent=2
        )
        lines = text.splitlines()
        assert lines[0] == "<html>"
        assert any(line.startswith("  <body>") for line in lines)
        assert any(line.startswith("    <p>") for line in lines)

    def test_indented_round_trip_same_tree(self):
        soup = "<table><tr><td>a</td><td>b</td></tr></table>"
        pretty = serialize_tokens(normalize(soup), indent=2)
        tree_a = parse_document(soup)
        tree_b = parse_document(pretty)
        assert serialize_tokens(tree_to_tokens(tree_a)) == serialize_tokens(
            tree_to_tokens(tree_b)
        )


class TestTreeRoundTrip:
    def test_tree_to_tokens_to_tree_is_stable(self):
        soup = "<body><ul><li>one<li>two</ul><hr><p>done</body>"
        tree = parse_document(soup)
        rebuilt = build_tag_tree(tree_to_tokens(tree))
        assert serialize_tokens(tree_to_tokens(rebuilt)) == serialize_tokens(
            tree_to_tokens(tree)
        )
