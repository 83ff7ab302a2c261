"""The CML reader against a literal copy of its per-line, per-token predecessor.

The reader cuts the text at its comments, pads the punctuation of each
piece of code with spaces and splits it at whitespace, keeps comments out of
the token stream and works out a line and column only for an error, by a
regex scan that also names a stray character. The copies below are the
tokenizer as it was before that, which scanned each `str.splitlines` line
with a regex and built a `_Token` with a position per token, and the parser
as it was before its block bodies shared one `members()` loop. On seeded
token soup, on mutated well-formed documents, on documents laid out with
every kind of line break and on tokens run together with no space between
them, both must give the same tree, or the same error type, message, line
and column.
"""

from __future__ import annotations

import pathlib
import random
import re
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono2ddd import cml
from mono2ddd.cml import (
    KEYWORDS,
    CmlAggregate,
    CmlAttribute,
    CmlBoundedContext,
    CmlContextMap,
    CmlCoordination,
    CmlDocument,
    CmlEntity,
    CmlOperation,
    CmlReference,
    CmlRelationship,
    CmlService,
    CmlStep,
    parse_document,
)
from mono2ddd.errors import CmlParseError

GOLDEN = pathlib.Path(__file__).parent / "golden"


_TOKEN = re.compile(
    r"(?P<comment>//[^\n]*)"
    r"|(?P<rel>\[U\]-\[D\])"
    r"|(?P<coloncolon>::)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}();,\-])"
    r"|(?P<bad>\S)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            value = m.group(0)
            col = m.start() + 1
            if kind == "bad":
                raise CmlParseError(f"unexpected character {value!r}", lineno, col)
            if kind == "comment":
                tokens.append(_Token("comment", value[2:].strip(), lineno, col))
            elif kind == "id":
                tokens.append(_Token("id", value, lineno, col))
            else:
                tokens.append(_Token(value, value, lineno, col))
    return tokens


class _OldParser:
    """Literal copy of the parser with one hand-written loop per block, over `_Token`s."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.pending_comments: list[str] = []

    def _skip_comments(self) -> None:
        while self.pos < len(self.tokens) and self.tokens[self.pos].kind == "comment":
            self.pending_comments.append(self.tokens[self.pos].text)
            self.pos += 1

    def peek(self) -> _Token | None:
        self._skip_comments()
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None, what: str = "") -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            raise CmlParseError(
                f"unexpected end of input (expected {expected or what or 'more input'})",
                last.line,
                last.column,
            )
        if expected is not None and tok.text != expected:
            raise CmlParseError(
                f"expected {expected!r}, got {tok.text!r}", tok.line, tok.column
            )
        self.pos += 1
        return tok

    def take_id(self, what: str) -> _Token:
        tok = self.take(None, what)
        if tok.kind != "id":
            raise CmlParseError(f"expected {what}, got {tok.text!r}", tok.line, tok.column)
        return tok

    def grab_comments(self) -> tuple[str, ...]:
        self._skip_comments()
        comments = tuple(self.pending_comments)
        self.pending_comments = []
        return comments

    def parse(self) -> CmlDocument:
        context_map = None
        contexts: list[CmlBoundedContext] = []
        while True:
            tok = self.peek()
            if tok is None:
                break
            comments = self.grab_comments()
            tok = self.tokens[self.pos]
            if tok.text == "ContextMap":
                if context_map is not None:
                    raise CmlParseError("duplicate ContextMap block", tok.line, tok.column)
                context_map = self._context_map(comments)
            elif tok.text == "BoundedContext":
                contexts.append(self._bounded_context(comments))
            else:
                raise CmlParseError(
                    f"{tok.text!r} is outside supported subset "
                    "(expected 'ContextMap' or 'BoundedContext')",
                    tok.line,
                    tok.column,
                )
        trailing = tuple(self.pending_comments)
        self.pending_comments = []
        return CmlDocument(context_map, tuple(contexts), trailing)

    def _context_map(self, comments: tuple[str, ...]) -> CmlContextMap:
        self.take("ContextMap")
        name = self.take_id("map name").text
        self.take("{")
        contains: list[str] = []
        relationships: list[CmlRelationship] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.take("}")
            if tok.text == "}":
                self.take("}")
                break
            node_comments = self.grab_comments()
            tok = self.tokens[self.pos]
            if tok.text == "contains":
                self.take("contains")
                contains.append(self.take_id("context name").text)
                while self.peek() is not None and self.peek().text == ",":
                    self.take(",")
                    contains.append(self.take_id("context name").text)
            elif tok.kind == "id" and tok.text not in KEYWORDS:
                upstream = self.take_id("context name").text
                self.take("[U]-[D]", what="'[U]-[D]'")
                downstream = self.take_id("context name").text
                relationships.append(
                    CmlRelationship(upstream, downstream, node_comments)
                )
            else:
                raise CmlParseError(
                    f"{tok.text!r} is outside supported subset "
                    "(expected 'contains', a relationship, or '}')",
                    tok.line,
                    tok.column,
                )
        return CmlContextMap(name, tuple(contains), tuple(relationships), comments)

    def _bounded_context(self, comments: tuple[str, ...]) -> CmlBoundedContext:
        self.take("BoundedContext")
        name = self.take_id("context name").text
        self.take("{")
        services: list[CmlService] = []
        coordinations: list[CmlCoordination] = []
        aggregates: list[CmlAggregate] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.take("}")
            if tok.text == "}":
                self.take("}")
                break
            node_comments = self.grab_comments()
            tok = self.tokens[self.pos]
            if tok.text == "Application":
                self.take("Application")
                self.take("{")
                while True:
                    inner = self.peek()
                    if inner is None:
                        self.take("}")
                    if inner.text == "}":
                        self.take("}")
                        break
                    inner_comments = self.grab_comments()
                    inner = self.tokens[self.pos]
                    if inner.text == "Service":
                        services.append(self._service(inner_comments))
                    elif inner.text == "Coordination":
                        coordinations.append(self._coordination(inner_comments))
                    else:
                        raise CmlParseError(
                            f"{inner.text!r} is outside supported subset "
                            "(expected 'Service' or 'Coordination')",
                            inner.line,
                            inner.column,
                        )
            elif tok.text == "Aggregate":
                aggregates.append(self._aggregate(node_comments))
            else:
                raise CmlParseError(
                    f"{tok.text!r} is outside supported subset "
                    "(expected 'Application' or 'Aggregate')",
                    tok.line,
                    tok.column,
                )
        return CmlBoundedContext(
            name, tuple(services), tuple(coordinations), tuple(aggregates), comments
        )

    def _service(self, comments: tuple[str, ...]) -> CmlService:
        self.take("Service")
        name = self.take_id("service name").text
        self.take("{")
        operations: list[CmlOperation] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.take("}")
            if tok.text == "}":
                self.take("}")
                break
            op_comments = self.grab_comments()
            self.take("void", what="'void'")
            op_name = self.take_id("operation name").text
            self.take("(")
            self.take(")")
            self.take(";")
            operations.append(CmlOperation(op_name, op_comments))
        return CmlService(name, tuple(operations), comments)

    def _coordination(self, comments: tuple[str, ...]) -> CmlCoordination:
        self.take("Coordination")
        name = self.take_id("coordination name").text
        self.take("{")
        steps: list[CmlStep] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.take("}")
            if tok.text == "}":
                self.take("}")
                break
            step_comments = self.grab_comments()
            context = self.take_id("context name").text
            self.take("::")
            service = self.take_id("service name").text
            self.take("::")
            operation = self.take_id("operation name").text
            self.take(";")
            steps.append(CmlStep(context, service, operation, step_comments))
        return CmlCoordination(name, tuple(steps), comments)

    def _aggregate(self, comments: tuple[str, ...]) -> CmlAggregate:
        self.take("Aggregate")
        name = self.take_id("aggregate name").text
        self.take("{")
        entities: list[CmlEntity] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.take("}")
            if tok.text == "}":
                self.take("}")
                break
            entity_comments = self.grab_comments()
            tok = self.tokens[self.pos]
            if tok.text != "Entity":
                raise CmlParseError(
                    f"{tok.text!r} is outside supported subset (expected 'Entity')",
                    tok.line,
                    tok.column,
                )
            entities.append(self._entity(entity_comments))
        return CmlAggregate(name, tuple(entities), comments)

    def _entity(self, comments: tuple[str, ...]) -> CmlEntity:
        self.take("Entity")
        name = self.take_id("entity name").text
        self.take("{")
        aggregate_root = False
        tok = self.peek()
        if tok is not None and tok.text == "aggregateRoot":
            self.take("aggregateRoot")
            aggregate_root = True
        attributes: list[CmlAttribute] = []
        references: list[CmlReference] = []
        while True:
            tok = self.peek()
            if tok is None:
                self.take("}")
            if tok.text == "}":
                self.take("}")
                break
            member_comments = self.grab_comments()
            tok = self.tokens[self.pos]
            if tok.text == "-":
                self.take("-")
                target = self.take_id("reference target").text
                field_name = self.take_id("reference field").text
                references.append(CmlReference(target, field_name, member_comments))
            elif tok.kind == "id" and tok.text not in KEYWORDS:
                attr_type = self.take_id("attribute type").text
                attr_name = self.take_id("attribute name").text
                attributes.append(CmlAttribute(attr_type, attr_name, member_comments))
            else:
                raise CmlParseError(
                    f"{tok.text!r} is outside supported subset "
                    "(expected an attribute, a reference, or '}')",
                    tok.line,
                    tok.column,
                )
        return CmlEntity(
            name, aggregate_root, tuple(attributes), tuple(references), comments
        )


def _outcome(parse, text):
    """The tree's repr, or the error's type, message and position."""
    try:
        return repr(parse(text))
    except CmlParseError as exc:
        return (type(exc).__name__, str(exc), exc.line, exc.column)


def _old_parse(text):
    return _OldParser(text).parse()


def _assert_same(text):
    assert _outcome(parse_document, text) == _outcome(_old_parse, text), text


_IDS = ("A", "B", "Order", "Cluster0", "get_1")
_VOCABULARY = tuple(sorted(KEYWORDS)) + _IDS + (
    "{", "}", "(", ")", ";", ",", "-", "::", "[U]-[D]", "// note",
)


class _Writer:
    """Emits the tokens of a random, mostly well-formed document."""

    def __init__(self, rng):
        self.rng = rng
        self.tokens = []

    def emit(self, *tokens):
        self.tokens.extend(tokens)

    def comments(self):
        while self.rng.random() < 0.25:
            self.emit(f"// c{len(self.tokens)}")

    def ident(self):
        if self.rng.random() < 0.05:
            return self.rng.choice(sorted(KEYWORDS))
        return self.rng.choice(_IDS)

    def block(self, header, member):
        self.emit(*header, "{")
        for _ in range(self.rng.randint(0, 2)):
            self.comments()
            member()
        self.comments()
        self.emit("}")

    def document(self):
        for _ in range(self.rng.randint(0, 2)):
            self.comments()
            if self.rng.random() < 0.3:
                self.block(("ContextMap", self.ident()), self.map_member)
            else:
                self.block(("BoundedContext", self.ident()), self.context_member)
        self.comments()

    def map_member(self):
        if self.rng.random() < 0.5:
            self.emit("contains", self.ident())
            for _ in range(self.rng.randint(0, 2)):
                self.emit(",", self.ident())
        else:
            self.emit(self.ident(), "[U]-[D]", self.ident())

    def context_member(self):
        if self.rng.random() < 0.5:
            self.block(("Application",), self.application_member)
        else:
            self.block(("Aggregate", self.ident()), self.entity)

    def application_member(self):
        if self.rng.random() < 0.5:
            self.block(("Service", self.ident()), self.operation)
        else:
            self.block(("Coordination", self.ident()), self.step)

    def operation(self):
        self.emit("void", self.ident(), "(", ")", ";")

    def step(self):
        self.emit(self.ident(), "::", self.ident(), "::", self.ident(), ";")

    def entity(self):
        self.emit("Entity", self.ident(), "{")
        self.comments()
        if self.rng.random() < 0.5:
            self.emit("aggregateRoot")
        for _ in range(self.rng.randint(0, 2)):
            self.comments()
            if self.rng.random() < 0.5:
                self.emit("-", self.ident(), self.ident())
            else:
                self.emit(self.ident(), self.ident())
        self.comments()
        self.emit("}")


def _mutate(rng, tokens):
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(tokens))
        action = rng.randrange(4)
        if action == 0 and at < len(tokens):
            del tokens[at]
        elif action == 1:
            tokens.insert(at, rng.choice(_VOCABULARY))
        elif action == 2 and at < len(tokens):
            tokens[at] = rng.choice(_VOCABULARY)
        else:
            del tokens[at:]


def _render(rng, tokens):
    parts = []
    for tok in tokens:
        parts.append(tok)
        # A comment runs to the end of its line.
        parts.append("\n" if tok.startswith("//") or rng.random() < 0.2 else " ")
    return "".join(parts)


def _soup(rng):
    if rng.random() < 0.2:
        tokens = [rng.choice(_VOCABULARY) for _ in range(rng.randint(0, 20))]
    else:
        writer = _Writer(rng)
        writer.document()
        tokens = writer.tokens
        if rng.random() < 0.7:
            _mutate(rng, tokens)
    return _render(rng, tokens)


def test_parser_matches_the_block_loop_copy_on_token_soup():
    rng = random.Random(20261018)
    parsed = 0
    for _ in range(100_000):
        text = _soup(rng)
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_old_parse, text), text
        parsed += isinstance(outcome, str)
    # The soup must reach both outcomes often, not only the first token's error.
    assert 10_000 < parsed < 90_000


def test_parser_matches_the_block_loop_copy_on_goldens():
    for path in sorted(GOLDEN.glob("*.cml")):
        text = path.read_text()
        assert isinstance(_outcome(parse_document, text), str)
        _assert_same(text)
        for cut in range(0, len(text), 7):
            _assert_same(text[:cut])


# Every boundary `str.splitlines` splits at, and whitespace that is none.
_LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
_BLANKS = (" ", "\t", "\x1f", "\u00a0")


def _render_with_line_breaks(rng, tokens):
    parts = []
    for tok in tokens:
        parts.append(tok)
        if tok.startswith("//"):
            if rng.random() < 0.2:
                parts.append(rng.choice(_BLANKS))
            # Half the comments end right at a "\r" or a NEL.
            parts.append(rng.choice(("\r", "\x85") if rng.random() < 0.5 else _LINE_BREAKS))
        else:
            for _ in range(rng.randint(1, 2)):
                parts.append(rng.choice(_LINE_BREAKS if rng.random() < 0.4 else _BLANKS))
    return "".join(parts)


def _line_break_soup(rng):
    writer = _Writer(rng)
    writer.document()
    tokens = writer.tokens
    if rng.random() < 0.5:
        _mutate(rng, tokens)
    if rng.random() < 0.15:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(("@", "#")))
    return _render_with_line_breaks(rng, tokens)


def test_parser_matches_the_old_copy_on_every_line_break():
    rng = random.Random(20261019)
    outcomes = {"parsed": 0, "stray": 0, "end": 0}
    for _ in range(30_000):
        text = _line_break_soup(rng)
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_old_parse, text), repr(text)
        if isinstance(outcome, str):
            outcomes["parsed"] += 1
        elif outcome[1].endswith(("'@'", "'#'")) and "unexpected character" in outcome[1]:
            outcomes["stray"] += 1
        elif "unexpected end of input" in outcome[1]:
            outcomes["end"] += 1
    # Each outcome whose position depends on line counting must come up often.
    assert all(count > 1_000 for count in outcomes.values()), outcomes


@pytest.mark.parametrize("line_break", _LINE_BREAKS)
def test_comment_ends_at_every_line_break(line_break):
    text = f"// a{line_break}BoundedContext A {{ }}{line_break}// b{line_break}@"
    with pytest.raises(CmlParseError) as info:
        parse_document(text)
    assert (info.value.line, info.value.column) == (4, 1)
    doc = parse_document(text[:-1])
    assert doc.contexts == (CmlBoundedContext("A", comments=("a",)),)
    assert doc.trailing_comments == ("b",)


def test_str_split_and_the_regex_whitespace_class_agree_on_every_code_point():
    # The tokenizer cuts at what `str.split` counts as whitespace, and the
    # error scan skips what `\s` matches: they must be the same characters.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.sub(r"\s", "", every) == "".join(every.split())


def test_parsing_the_goldens_never_compiles_the_token_pattern():
    cml._token.cache_clear()
    for path in sorted(GOLDEN.glob("*.cml")):
        parse_document(path.read_text())
    assert cml._token.cache_info().misses == 0
    with pytest.raises(CmlParseError, match="unexpected character '@'"):
        parse_document("@")
    assert cml._token.cache_info().misses == 1


# Tokens run together with no space between them, and characters that are
# no token or only part of one: a NUL, stray colons, brackets and digits.
_TIGHT = (
    "A-Target", "-Target", "A[U]-[D]B", "[U]-[D]", "C::S::op;", "::::", ":::", ":", "[", "]",
    "[U]", "-[D]", "[U]-[D", "1", "9a", "a9", "_", "\x00", "é", "/", "void op();",
    "Entity E{", "{}", "A,B", "//c\x00d", "// x",
)
_TIGHT_VOCABULARY = _VOCABULARY + _TIGHT


def _render_tight(rng, tokens):
    parts = []
    for tok in tokens:
        parts.append(tok)
        if tok.startswith("//"):
            parts.append("\n")
        else:
            parts.append(rng.choice(("", "", " ", "\n", "\t")))
    return "".join(parts)


def _tight_soup(rng):
    writer = _Writer(rng)
    writer.document()
    tokens = writer.tokens
    for _ in range(rng.randint(0, 2)):
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(_TIGHT))
    if rng.random() < 0.3:
        _mutate(rng, tokens)
    return _render_tight(rng, tokens)


def test_parser_matches_the_old_copy_on_tokens_without_spaces():
    rng = random.Random(20261021)
    outcomes = {"parsed": 0, "stray": 0, "other": 0}
    for _ in range(30_000):
        text = _tight_soup(rng)
        outcome = _outcome(parse_document, text)
        assert outcome == _outcome(_old_parse, text), repr(text)
        if isinstance(outcome, str):
            outcomes["parsed"] += 1
        elif "unexpected character" in outcome[1]:
            outcomes["stray"] += 1
        else:
            outcomes["other"] += 1
    assert all(count > 3_000 for count in outcomes.values()), outcomes


@pytest.mark.parametrize(
    "text",
    [
        "BoundedContext C { Aggregate G { Entity E { -Target t } } }",
        "ContextMap M { A[U]-[D]B }",
        "ContextMap M{contains A,B A[U]-[D]B}",
        "BoundedContext C{Application{Coordination K{C::S::op;}}}",
        "BoundedContext C { Application { Coordination K { :::: } } }",
        "BoundedContext C { Application { Coordination K { C:::S::op; } } }",
        "ContextMap M { A [U]-[D B }",
        "BoundedContext C1 { Aggregate 1G { } }",
        "BoundedContext C { }\x00",
        "BoundedContext C { } // a \x00 in a comment\n",
        "// \x00\nBoundedContext C\x00{ }",
        "BoundedContext Caf\u00e9 { }",
    ],
)
def test_parser_matches_the_old_copy_on_tight_and_stray_forms(text):
    _assert_same(text)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_TIGHT_VOCABULARY)), st.randoms(use_true_random=False))
def test_parser_matches_the_old_copy_on_generated_token_runs(tokens, rng):
    _assert_same(_render_tight(rng, tokens))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.text(alphabet=st.sampled_from("AZaz_09 -[]UD:;,(){}/\x00\n\t\u00e9\x85")))
def test_parser_matches_the_old_copy_on_generated_characters(text):
    _assert_same(text)
