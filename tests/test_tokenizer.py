"""Unit tests for the lenient HTML tokenizer (repro.html.tokenizer)."""

from repro.html.tokenizer import (
    CommentToken,
    DoctypeToken,
    EndTagToken,
    StartTagToken,
    TextToken,
    iter_tokens,
)


def names(tokens):
    return [type(t).__name__ for t in tokens]


class TestBasicTokens:
    def test_simple_element(self):
        tokens = list(iter_tokens("<b>hi</b>"))
        assert isinstance(tokens[0], StartTagToken) and tokens[0].name == "b"
        assert isinstance(tokens[1], TextToken) and tokens[1].text == "hi"
        assert isinstance(tokens[2], EndTagToken) and tokens[2].name == "b"

    def test_tag_names_lowercased(self):
        tokens = list(iter_tokens("<TABLE><TR></TR></TABLE>"))
        assert [t.name for t in tokens] == ["table", "tr", "tr", "table"]

    def test_text_between_tags_is_entity_decoded(self):
        tokens = list(iter_tokens("<p>a &amp; b</p>"))
        assert tokens[1].text == "a & b"

    def test_leading_and_trailing_text(self):
        tokens = list(iter_tokens("before<br>after"))
        assert tokens[0].text == "before"
        assert tokens[-1].text == "after"

    def test_empty_input(self):
        assert list(iter_tokens("")) == []

    def test_text_only_input(self):
        tokens = list(iter_tokens("just text"))
        assert len(tokens) == 1 and tokens[0].text == "just text"


class TestAttributes:
    def test_double_quoted_attribute(self):
        (tag,) = list(iter_tokens('<a href="http://x/">'))[:1]
        assert tag.get("href") == "http://x/"

    def test_single_quoted_attribute(self):
        (tag,) = list(iter_tokens("<a href='http://x/'>"))[:1]
        assert tag.get("href") == "http://x/"

    def test_unquoted_attribute(self):
        (tag,) = list(iter_tokens("<td width=100>"))[:1]
        assert tag.get("width") == "100"

    def test_valueless_attribute(self):
        (tag,) = list(iter_tokens("<input disabled>"))[:1]
        assert tag.get("disabled") == ""

    def test_attribute_names_lowercased(self):
        (tag,) = list(iter_tokens('<a HREF="x">'))[:1]
        assert tag.get("href") == "x"

    def test_attribute_values_entity_decoded(self):
        (tag,) = list(iter_tokens('<a href="a&amp;b">'))[:1]
        assert tag.get("href") == "a&b"

    def test_multiple_attributes_preserve_order(self):
        (tag,) = list(iter_tokens('<img src="s" width="1" height="2">'))[:1]
        assert [k for k, _ in tag.attrs] == ["src", "width", "height"]

    def test_get_returns_default_for_missing(self):
        (tag,) = list(iter_tokens("<br>"))[:1]
        assert tag.get("nope", "dflt") == "dflt"

    def test_self_closing_tag(self):
        (tag,) = list(iter_tokens("<br/>"))[:1]
        assert tag.self_closing

    def test_self_closing_with_attributes(self):
        (tag,) = list(iter_tokens('<img src="x"/>'))[:1]
        assert tag.self_closing and tag.get("src") == "x"

    def test_unterminated_quote_consumes_rest(self):
        (tag,) = list(iter_tokens('<a href="unterminated>'))[:1]
        assert tag.name == "a"


class TestMalformedInput:
    def test_bare_less_than_in_text(self):
        tokens = list(iter_tokens("1 < 2 and 3 > 2"))
        assert all(isinstance(t, TextToken) for t in tokens)
        assert "".join(t.text for t in tokens) == "1 < 2 and 3 > 2"

    def test_less_than_followed_by_digit_is_text(self):
        tokens = list(iter_tokens("<3 hearts"))
        assert isinstance(tokens[0], TextToken)

    def test_unclosed_tag_at_eof(self):
        tokens = list(iter_tokens("<table"))
        assert isinstance(tokens[0], StartTagToken)
        assert tokens[0].name == "table"

    def test_stray_end_tag(self):
        tokens = list(iter_tokens("</b>"))
        assert isinstance(tokens[0], EndTagToken)

    def test_end_tag_attributes_ignored(self):
        tokens = list(iter_tokens('</a junk="1">'))
        assert isinstance(tokens[0], EndTagToken) and tokens[0].name == "a"

    def test_never_raises_on_garbage(self):
        # A zoo of broken constructs; the contract is "no exception".
        for soup in ("<", "<<>>", "<a <b>", "< p>", "<!>", "<!--", "<?php"):
            list(iter_tokens(soup))


class TestCommentsAndDeclarations:
    def test_comment(self):
        (tok,) = list(iter_tokens("<!-- hello -->"))
        assert isinstance(tok, CommentToken) and tok.text == " hello "

    def test_unterminated_comment_runs_to_eof(self):
        (tok,) = list(iter_tokens("<!-- oops"))
        assert isinstance(tok, CommentToken) and tok.text == " oops"

    def test_doctype(self):
        (tok,) = list(iter_tokens("<!DOCTYPE html>"))
        assert isinstance(tok, DoctypeToken)
        assert tok.text.lower().startswith("doctype")

    def test_processing_instruction(self):
        (tok,) = list(iter_tokens("<?xml version='1.0'?>"))
        assert isinstance(tok, DoctypeToken)

    def test_comment_with_angle_brackets_inside(self):
        tokens = list(iter_tokens("<!-- <b>not a tag</b> -->x"))
        assert isinstance(tokens[0], CommentToken)
        assert tokens[1].text == "x"


class TestRawTextElements:
    def test_script_content_not_parsed(self):
        tokens = list(iter_tokens('<script>if (a<b) {x="<tr>"}</script>'))
        assert tokens[0].name == "script"
        assert isinstance(tokens[1], TextToken)
        assert "<tr>" in tokens[1].text
        assert isinstance(tokens[2], EndTagToken)

    def test_style_content_not_parsed(self):
        tokens = list(iter_tokens("<style>p > b {}</style>"))
        assert isinstance(tokens[1], TextToken)

    def test_unterminated_script_consumes_rest(self):
        tokens = list(iter_tokens("<script>var x = 1;"))
        assert tokens[0].name == "script"
        assert isinstance(tokens[-1], EndTagToken)

    def test_script_end_tag_case_insensitive(self):
        tokens = list(iter_tokens("<script>x</SCRIPT>after"))
        assert tokens[-1].text == "after"


class TestPositions:
    def test_token_positions_are_monotonic(self):
        tokens = list(iter_tokens("<a>one</a><b>two</b>"))
        positions = [t.position for t in tokens]
        assert positions == sorted(positions)
