"""A lenient HTML tokenizer.

Splits raw HTML source into a flat stream of tokens: start tags (with parsed
attributes), end tags, text runs, comments, and doctype/processing
declarations.  The tokenizer is deliberately forgiving -- the paper's corpus
is 1999-2000 commercial HTML, which is full of unquoted attributes, stray
``<`` characters in text, uppercase tag names, and unterminated comments.
Anything that cannot be parsed as a tag is downgraded to text, never raised
as an error: Phase 1 of Omini must accept arbitrary pages.

The token stream preserves the source order exactly; normalization (implied
end tags, tag-soup repair) is a separate streaming pass in
:mod:`repro.html.normalizer`, and the fused single-pass parse engine lives
in :mod:`repro.html.engine`.

Two surfaces exist over one scanning core:

* :func:`scan` -- the hot path.  Yields plain tuples (``(kind, ...)`` with
  integer kinds) so the fused engine pays no per-token object construction;
  tag names come back already lower-cased and interned via
  :func:`repro.html.tags.intern_tag`.
* :func:`iter_tokens` -- the original dataclass-token API, now a thin
  streaming wrapper that materializes :data:`Token` objects from the
  tuple stream (``list(iter_tokens(source))`` when a list is wanted).
  Code that wants a parse goes through
  :func:`repro.tree.builder.parse_document` instead.

The scanner uses compiled regular expressions for the overwhelmingly common
shapes (end tags, attribute-free start tags, single attributes) so the per
character work happens in C; only genuinely odd soup falls back to the
character-level loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from repro.html.entities import decode_entities
from repro.html.tags import RAW_TEXT_TAGS, intern_tag

_WHITESPACE = " \t\n\r\f"
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

#: Event kinds yielded by :func:`scan`.  Tuple shapes:
#: ``(TEXT, text, pos)`` (entity-decoded), ``(START, name, attrs,
#: self_closing, pos)``, ``(END, name, pos, endpos)`` (``endpos`` is the
#: offset just past the end tag's ``>``), ``(COMMENT, text, pos)``,
#: ``(DECL, text, pos)``.
TEXT, START, END, COMMENT, DECL = 0, 1, 2, 3, 4

#: A start tag with no attributes -- ``<td>``, ``</tr>``-mate ``<tr>``,
#: ``<br/>`` -- by far the most common tag shape in the corpus.
_SIMPLE_START_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9\-_:.]*)[ \t\n\r\f]*(/?)>")

#: An end tag's name; trailing junk up to ``>`` is skipped separately.
_END_NAME_RE = re.compile(r"</([a-zA-Z][a-zA-Z0-9\-_:.]*)")

#: A start tag's name (the attribute loop continues from the match end).
_START_NAME_RE = re.compile(r"<([a-zA-Z][a-zA-Z0-9\-_:.]*)")

#: One attribute: optional leading whitespace, a name (any run of characters
#: that cannot end the name), then optionally ``= value`` where the value is
#: double-quoted, single-quoted or unquoted.  Mirrors the hand parser the
#: corpus was validated against, including unterminated-quote handling.
_ATTR_RE = re.compile(
    r"[ \t\n\r\f]*([^=>/ \t\n\r\f]+)"
    r"(?:[ \t\n\r\f]*=[ \t\n\r\f]*(\"[^\"]*\"?|'[^']*'?|[^> \t\n\r\f]*))?"
)


@dataclass(frozen=True, slots=True)
class StartTagToken:
    """A start tag such as ``<a href="x">``.

    ``name`` is lower-cased.  ``attrs`` preserves source order; attribute
    names are lower-cased and values are entity-decoded.  ``self_closing``
    records an XML-style ``/>`` ending.
    """

    name: str
    attrs: tuple[tuple[str, str], ...] = ()
    self_closing: bool = False
    position: int = 0

    def get(self, attr: str, default: str | None = None) -> str | None:
        """Return the first value of attribute ``attr`` (lower-case name)."""
        for key, value in self.attrs:
            if key == attr:
                return value
        return default


@dataclass(frozen=True, slots=True)
class EndTagToken:
    """An end tag such as ``</a>``; ``name`` is lower-cased."""

    name: str
    position: int = 0


@dataclass(frozen=True, slots=True)
class TextToken:
    """A run of character data between tags; entity-decoded."""

    text: str
    position: int = 0


@dataclass(frozen=True, slots=True)
class CommentToken:
    """An HTML comment ``<!-- ... -->`` (content without delimiters)."""

    text: str
    position: int = 0


@dataclass(frozen=True, slots=True)
class DoctypeToken:
    """A ``<!DOCTYPE ...>`` or other ``<!...>`` declaration, or ``<?...>``."""

    text: str
    position: int = 0


Token = Union[StartTagToken, EndTagToken, TextToken, CommentToken, DoctypeToken]


def _parse_attrs(source: str, pos: int, length: int) -> tuple[tuple, bool, int]:
    """Parse the attribute region of a start tag beginning at ``pos``.

    Returns ``(attrs, self_closing, new_pos)`` with ``new_pos`` just past
    the closing ``>`` (or at end of input for an unterminated tag).
    """
    attrs: list[tuple[str, str]] = []
    self_closing = False
    attr_match = _ATTR_RE.match
    while True:
        # Skip whitespace between attributes.
        while pos < length and source[pos] in _WHITESPACE:
            pos += 1
        if pos >= length:
            break
        ch = source[pos]
        if ch == ">":
            pos += 1
            break
        if ch == "/":
            if source.startswith("/>", pos):
                self_closing = True
                pos += 2
                break
            pos += 1
            continue
        m = attr_match(source, pos)
        if m is None:
            # Stray character (e.g. a lone '='); skip it to make progress.
            pos += 1
            continue
        pos = m.end()
        name = m.group(1).lower()
        value = m.group(2)
        if value:
            quote = value[0]
            if quote == '"' or quote == "'":
                if len(value) > 1 and value[-1] == quote:
                    value = value[1:-1]
                else:
                    value = value[1:]
            attrs.append((name, decode_entities(value)))
        else:
            attrs.append((name, ""))
    return tuple(attrs), self_closing, pos


def scan(source: str) -> Iterator[tuple]:
    """Tokenize ``source`` into a stream of plain event tuples.

    The hot-path core shared by :func:`iter_tokens` and the fused engine in
    :mod:`repro.html.engine`.  Never raises on malformed input: unparseable
    markup degrades to text.  The concatenation of all token source spans
    covers the document, so the stream is a faithful linearization.  Tag
    names are lower-cased and interned (:func:`~repro.html.tags.intern_tag`).
    """
    length = len(source)
    find = source.find
    simple_match = _SIMPLE_START_RE.match
    end_match = _END_NAME_RE.match
    name_match = _START_NAME_RE.match
    lowered: str | None = None  # lazily computed for raw-text scanning

    pos = 0
    text_start = 0
    while pos < length:
        lt = find("<", pos)
        if lt == -1:
            break
        # Pending character data is flushed before the tag parse is even
        # attempted; if the tag turns out to be bogus, the literal '<' run
        # becomes its own later text token (matching the original parser).
        if lt > text_start:
            yield (TEXT, decode_entities(source[text_start:lt]), text_start)
        text_start = lt
        nxt = lt + 1
        if nxt >= length:
            # Trailing '<' at end of input: literal text.
            pos = length
            break
        ch = source[nxt]
        if ch == "!":
            if source.startswith("!--", nxt):
                end = find("-->", lt + 4)
                if end == -1:
                    yield (COMMENT, source[lt + 4 :], lt)
                    pos = length
                else:
                    yield (COMMENT, source[lt + 4 : end], lt)
                    pos = end + 3
            else:
                end = find(">", nxt)
                if end == -1:
                    yield (DECL, source[lt + 2 :], lt)
                    pos = length
                else:
                    yield (DECL, source[lt + 2 : end], lt)
                    pos = end + 1
            text_start = pos
            continue
        if ch == "?":
            end = find(">", nxt)
            if end == -1:
                yield (DECL, source[lt + 2 :], lt)
                pos = length
            else:
                yield (DECL, source[lt + 2 : end], lt)
                pos = end + 1
            text_start = pos
            continue
        if ch == "/":
            m = end_match(source, lt)
            if m is None:
                # "</3", "</ a", "</" + EOF: not a tag; the '<' is text
                # (text_start stays at lt) and scanning resumes past "</".
                pos = min(lt + 2, length)
                continue
            name = intern_tag(m.group(1))
            end = find(">", m.end())
            pos = length if end == -1 else end + 1
            yield (END, name, lt, pos)
            text_start = pos
            continue
        if ch not in _NAME_START:
            # "<3", "< a" etc.: not a tag, the '<' is literal text.
            pos = lt + 1
            continue
        # -- a start tag ----------------------------------------------------
        m = simple_match(source, lt)
        if m is not None:
            name = intern_tag(m.group(1))
            self_closing = m.group(2) == "/"
            pos = m.end()
            yield (START, name, (), self_closing, lt)
        else:
            nm = name_match(source, lt)  # always matches: ch is a letter
            name = intern_tag(nm.group(1))  # type: ignore[union-attr]
            attrs, self_closing, pos = _parse_attrs(source, nm.end(), length)  # type: ignore[union-attr]
            yield (START, name, attrs, self_closing, lt)
        text_start = pos
        if self_closing or name not in RAW_TEXT_TAGS:
            continue
        # -- raw text content (<script>/<style>): no markup inside ----------
        if lowered is None:
            lowered = source.lower()
        idx = lowered.find("</" + name, pos)
        if idx == -1:
            if pos < length:
                yield (TEXT, source[pos:], pos)
            pos = length
            yield (END, name, length, length)
        else:
            if idx > pos:
                yield (TEXT, source[pos:idx], pos)
            end = find(">", idx)
            pos = length if end == -1 else end + 1
            yield (END, name, pos, pos)
        text_start = pos
    if text_start < length:
        yield (TEXT, decode_entities(source[text_start:]), text_start)


def iter_tokens(source: str) -> Iterator[Token]:
    """Lazily tokenize ``source`` into a stream of :data:`Token` values.

    Compatibility wrapper over :func:`scan` that materializes the dataclass
    tokens; see :func:`scan` for the guarantees.
    """
    for event in scan(source):
        kind = event[0]
        if kind == TEXT:
            yield TextToken(event[1], position=event[2])
        elif kind == START:
            yield StartTagToken(event[1], event[2], event[3], position=event[4])
        elif kind == END:
            yield EndTagToken(event[1], position=event[2])
        elif kind == COMMENT:
            yield CommentToken(event[1], position=event[2])
        else:
            yield DoctypeToken(event[1], position=event[2])

