"""The structure DSL reader against a literal copy of the line-by-line reader.

`parse_structure_dsl` cuts comments out, splits the rest into one token
list and walks it by index, computing a position only for an error. The
copy below is the reader as it was: one `(token, line, column)` triple per
token, read through `peek`/`take` closures. Both must give equal entity
lists, or the same error type, message, line and column, on seeded valid
documents, on the fuzzer's token soups and on one-token mutations of both.

The copy differs from the old reader in one line: a duplicate entity is
reported at the name token's own line and column. The old reader paired
the name's line with the `entity` keyword's column.
"""

from __future__ import annotations

import random
import re

from hypothesis import given
from test_fuzz import _FUZZ, _STRUCTURE_DSL

from mono2ddd.errors import DslParseError
from mono2ddd.ingest import parse_structure_dsl
from mono2ddd.model import (
    ASSOCIATION,
    INHERITANCE,
    Attribute,
    EntityStructure,
    Reference,
)

# --- literal copy of the line-by-line reader ---------------------------------------

_INHERITANCE_FIELD = "super"


def _check_entity_fields(name, attributes, references, line):
    def fail(msg):
        raise DslParseError(msg, line, 1)

    seen: set[str] = set()
    for a in attributes:
        if a.name in seen:
            fail(f"duplicate field name {a.name!r} in entity {name!r}")
        seen.add(a.name)
    inheritance = 0
    for r in references:
        if r.field in seen:
            fail(f"duplicate field name {r.field!r} in entity {name!r}")
        seen.add(r.field)
        if r.kind == INHERITANCE:
            inheritance += 1
    if inheritance > 1:
        fail(f"entity {name!r} has more than one inheritance reference")


_DSL_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[{}:;]|\S")


def _tokenize_dsl(text: str):
    """Yield (token, line, column) triples; '#' starts a comment to end of line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for m in _DSL_TOKEN.finditer(body):
            yield m.group(0), lineno, m.start() + 1


def old_parse_structure_dsl(text: str) -> list[EntityStructure]:
    """Parse the mini structure DSL (one ``entity`` block per entity)."""
    tokens = list(_tokenize_dsl(text))
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1] if tokens else ("", 1, 1)
            raise DslParseError(
                f"unexpected end of input (expected {expected or 'more input'})",
                last[1],
                last[2],
            )
        tok, line, col = tokens[pos]
        if expected is not None and tok != expected:
            raise DslParseError(f"expected {expected!r}, got {tok!r}", line, col)
        pos += 1
        return tok, line, col

    def take_name(what):
        tok, line, col = take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise DslParseError(f"expected {what}, got {tok!r}", line, col)
        return tok, line

    result: list[EntityStructure] = []
    names: set[str] = set()
    while pos < len(tokens):
        _, line, col = tokens[pos]
        take("entity")
        name, entity_line = take_name("entity name")
        if name in names:
            # The one change: the name token's column, not the keyword's.
            raise DslParseError(f"duplicate entity {name!r}", entity_line, tokens[pos - 1][2])
        names.add(name)
        refs: list[Reference] = []
        if peek() == "extends":
            take("extends")
            target, _ = take_name("superclass name")
            refs.append(Reference(_INHERITANCE_FIELD, target, INHERITANCE))
        take("{")
        attrs: list[Attribute] = []
        while peek() != "}":
            if peek() == "attr":
                take("attr")
                attr_name, _ = take_name("attribute name")
                take(":")
                attr_type, _ = take_name("attribute type")
                take(";")
                attrs.append(Attribute(attr_name, attr_type))
            elif peek() == "ref":
                take("ref")
                field_name, _ = take_name("reference field")
                take("->")
                target, _ = take_name("reference target")
                take(";")
                refs.append(Reference(field_name, target, ASSOCIATION))
            else:
                tok, tline, tcol = take()
                raise DslParseError(f"expected 'attr', 'ref' or '}}', got {tok!r}", tline, tcol)
        take("}")
        _check_entity_fields(name, attrs, refs, line=entity_line)
        result.append(EntityStructure(name, tuple(attrs), tuple(refs)))
    return result


# --- documents ----------------------------------------------------------------------

_NAMES = ["A", "B", "Order", "order_line", "_x", "T2", "entity", "attr", "ref", "extends"]
_TYPES = ["String", "int", "Date", "List_1"]
_PUNCT = frozenset("{}:;") | {"->"}
_SPACES = [" ", "  ", "\t", "\n", "\r\n", "\r", "\n\n    ", "\x0b", "\x0c", "\x1c", "\x1f",
           "\x85", "\u00a0", "\u2028", "\u2029", "\u3000"]
_BREAKS = ["\n", "\r\n", "\r", "\x0c", "\x1d", "\x85", "\u2028"]
_NOISE = ["-", ">", "=", "}", "{", ";", ":", "->", "1", "9x", "é", "$", "#c", "A", "entity",
          "attr", "ref", "extends"]


def _tokens(rng: random.Random) -> list[str]:
    """A valid document's tokens, with '#' comments among them."""
    tokens: list[str] = []
    declared: list[str] = []
    for name in rng.sample(_NAMES, rng.randint(0, 6)):
        if rng.random() < 0.3:
            tokens.append(rng.choice(["# note", "#", "# entity X {", "#}#"]))
        tokens += ["entity", name]
        if declared and rng.random() < 0.3:
            tokens += ["extends", rng.choice(declared)]
        tokens.append("{")
        fields = rng.sample(["f", "g", "h", "name", "ref", "attr"], rng.randint(0, 4))
        for field in fields:
            if rng.random() < 0.5:
                tokens += ["attr", field, ":", rng.choice(_TYPES), ";"]
            else:
                tokens += ["ref", field, "->", rng.choice(_NAMES), ";"]
            if rng.random() < 0.1:
                tokens.append("# member")
        tokens.append("}")
        declared.append(name)
    return tokens


def _render(rng: random.Random, tokens: list[str]) -> str:
    """Join tokens: squeezed where no two names meet, else spread by some space.

    A comment is followed by a line boundary; a name next to a name gets
    at least one whitespace character.
    """
    squeeze = rng.random() < 0.4
    parts: list[str] = []
    for k, tok in enumerate(tokens):
        parts.append(tok)
        if tok.startswith("#"):
            parts.append(rng.choice(_BREAKS))
        elif k + 1 < len(tokens):
            glue = tok in _PUNCT or tokens[k + 1] in _PUNCT
            if not (squeeze and glue):
                parts.append(rng.choice(_SPACES))
    if rng.random() < 0.5:
        parts.append(rng.choice(_SPACES) * rng.randint(1, 3))
    return "".join(parts)


def _mutated(rng: random.Random, tokens: list[str]) -> list[str]:
    """The tokens with one deleted, replaced, inserted or duplicated."""
    tokens = list(tokens)
    k = rng.randrange(len(tokens) + 1)
    action = rng.choice(["delete", "replace", "insert", "duplicate"])
    if action == "insert" or k == len(tokens):
        tokens.insert(k, rng.choice(_NOISE))
    elif action == "delete":
        del tokens[k]
    elif action == "replace":
        tokens[k] = rng.choice(_NOISE)
    else:
        tokens.insert(k, tokens[k])
    return tokens


# --- comparison ---------------------------------------------------------------------


def _outcome(parse, text: str):
    try:
        return parse(text)
    except DslParseError as exc:
        return type(exc), str(exc), exc.line, exc.column


def assert_same(text: str) -> None:
    assert _outcome(parse_structure_dsl, text) == _outcome(old_parse_structure_dsl, text), text


def test_seeded_valid_documents_read_the_same():
    parsed = 0
    for seed in range(300):
        rng = random.Random(seed)
        text = _render(rng, _tokens(rng))
        assert_same(text)
        parsed += isinstance(_outcome(parse_structure_dsl, text), list)
    # The generator makes valid documents; a rendering slip would show here.
    assert parsed == 300


def test_one_token_mutations_read_the_same():
    errors = 0
    for seed in range(1500):
        rng = random.Random(seed)
        tokens = _tokens(rng)
        text = _render(rng, _mutated(rng, tokens))
        assert_same(text)
        errors += not isinstance(_outcome(parse_structure_dsl, text), list)
    assert errors > 1000


def test_duplicate_entities_read_the_same():
    for seed in range(200):
        rng = random.Random(seed)
        tokens = ["entity", "A", "{", "}"] + _tokens(rng)
        tokens += ["entity", "A"] + rng.choice([["{", "}"], ["extends", "B", "{"], []])
        assert_same(_render(rng, tokens))


@_FUZZ
@given(_STRUCTURE_DSL)
def test_fuzzed_token_soups_read_the_same(text):
    assert_same(text)
    rng = random.Random(text)
    tokens = text.split(" ") if text else []
    assert_same(" ".join(_mutated(rng, tokens)))

