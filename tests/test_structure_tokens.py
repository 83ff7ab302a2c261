"""The structure DSL's split tokenizer against the regex reader it replaced.

`ingest._dsl_tokens` cuts the comments out with string methods, pads the
punctuation with spaces and cuts the text with `str.split`; only a text
with a stray character goes to the token regex. The regex reader is
copied below as it was. Every text must give both the same tokens, and
then the same entity list or the same `DslParseError` text. The texts are
seeded and `hypothesis` structure documents, mutated character by
character with what a split could read apart from the regex: `#`, `-`,
`>`, `-->`, `->>`, digits, `é`, `\\x00`, every line boundary, `\\r\\n` and
Unicode spaces; every plane-0 code point is also read between two names
and inside a comment. Parsing a valid document compiles no regex, and one
stray character does.
"""

from __future__ import annotations

import random
import re
from itertools import islice

from hypothesis import given
from hypothesis import strategies as st
from test_fuzz import _FUZZ, _STRUCTURE_DSL
from test_structure_reader import _render, _tokens

from conftest import TOPIC_QUESTION_STRUCTURE
from mono2ddd import ingest
from mono2ddd.errors import LINE_BREAKS, DslParseError, line_and_column
from mono2ddd.ingest import _field_problem, parse_structure_dsl
from mono2ddd.model import ASSOCIATION, INHERITANCE, Attribute, EntityStructure, Reference

# --- the regex reader, as it was ----------------------------------------------------

# A comment runs to the next line boundary; dropping it joins no tokens.
_DSL_COMMENT = re.compile(rf"#[^{LINE_BREAKS}]*")
# A token and the whitespace before it.
_DSL_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|->|[{}:;]|\S)")
# A token that starts with one of these is a whole name.
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# What reads past the last token see: '#' equals no literal and starts no
# name, and no token starts with it once the comments are cut.
_PAST_END = ("#",) * 5
# The tokens after a member's keyword, in order: ``(literal, None)``, or
# ``(None, what)`` for a name, with what an error calls it.
_ATTR = ((None, "attribute name"), (":", None), (None, "attribute type"), (";", None))
_REF = ((None, "reference field"), ("->", None), (None, "reference target"), (";", None))


def regex_tokens(text: str) -> list[str]:
    return _DSL_TOKEN.findall(_DSL_COMMENT.sub("", text).rstrip())


def _dsl_position(text: str, index: int) -> tuple[int, int]:
    code = _DSL_COMMENT.sub(lambda comment: " " * len(comment[0]), text)
    return line_and_column(text, next(islice(_DSL_TOKEN.finditer(code), index, None)).start(1))


def _dsl_error(
    text: str, end: int, index: int, message: str, expected: str = "more input"
) -> DslParseError:
    if index >= end:
        return DslParseError(
            f"unexpected end of input (expected {expected})", *_dsl_position(text, end - 1)
        )
    return DslParseError(message, *_dsl_position(text, index))


def _unexpected(text: str, tokens: list[str], end: int, pos: int, expected) -> DslParseError:
    for index, (literal, what) in enumerate(expected, pos):
        tok = tokens[index]
        if literal is None:
            if tok[0] not in _ID_START:
                return _dsl_error(text, end, index, f"expected {what}, got {tok!r}")
        elif tok != literal:
            return _dsl_error(text, end, index, f"expected {literal!r}, got {tok!r}", literal)
    raise AssertionError("the tokens meet every expectation")


def regex_parse_structure_dsl(text: str) -> list[EntityStructure]:
    tokens = regex_tokens(text)
    end = len(tokens)
    tokens += _PAST_END
    result: list[EntityStructure] = []
    names: set[str] = set()
    pos = 0
    while pos < end:
        if tokens[pos] != "entity":
            raise _dsl_error(text, end, pos, f"expected 'entity', got {tokens[pos]!r}")
        name = tokens[pos + 1]
        if name[0] not in _ID_START:
            raise _dsl_error(text, end, pos + 1, f"expected entity name, got {name!r}")
        at_name = pos + 1
        if name in names:
            raise DslParseError(f"duplicate entity {name!r}", *_dsl_position(text, at_name))
        names.add(name)
        refs: list[Reference] = []
        tok = tokens[pos + 2]
        pos += 3
        if tok == "extends":
            target = tokens[pos]
            if target[0] not in _ID_START:
                raise _dsl_error(text, end, pos, f"expected superclass name, got {target!r}")
            refs.append(Reference("super", target, INHERITANCE))
            tok = tokens[pos + 1]
            pos += 2
        if tok != "{":
            raise _dsl_error(text, end, pos - 1, f"expected '{{', got {tok!r}", "{")
        attrs: list[Attribute] = []
        tok = tokens[pos]
        while tok != "}":
            if tok == "attr":
                field, colon, kind, semi = tokens[pos + 1 : pos + 5]
                if (
                    colon != ":"
                    or semi != ";"
                    or field[0] not in _ID_START
                    or kind[0] not in _ID_START
                ):
                    raise _unexpected(text, tokens, end, pos + 1, _ATTR)
                attrs.append(Attribute(field, kind))
            elif tok == "ref":
                field, arrow, target, semi = tokens[pos + 1 : pos + 5]
                if (
                    arrow != "->"
                    or semi != ";"
                    or field[0] not in _ID_START
                    or target[0] not in _ID_START
                ):
                    raise _unexpected(text, tokens, end, pos + 1, _REF)
                refs.append(Reference(field, target, ASSOCIATION))
            else:
                raise _dsl_error(text, end, pos, f"expected 'attr', 'ref' or '}}', got {tok!r}")
            pos += 5
            tok = tokens[pos]
        pos += 1
        problem = _field_problem(name, attrs, refs)
        if problem:
            raise DslParseError(problem, _dsl_position(text, at_name)[0], 1)
        result.append(EntityStructure(name, tuple(attrs), tuple(refs)))
    return result


# --- texts --------------------------------------------------------------------------

_SPACES = ["\t", "\x1f", "\xa0", "\u1680", "\u2000", "\u2009", "\u202f", "\u205f", "\u3000"]
# What a mutation inserts; "\u200b" and "\ufeff" are no whitespace to either reader.
_NOISE = ["#", "#", "-", ">", "-->", "->>", "->", "0", "7", "9x", "é", "\x00", "\u200b",
          "\ufeff", "\r\n", *LINE_BREAKS, *_SPACES, "{", "}", ":", ";", "A"]
_PUNCT = frozenset(("->", "{", "}", ":", ";"))


def _mutated(rng: random.Random, text: str) -> str:
    """The text with up to four pieces of noise inserted at random places."""
    for _ in range(rng.randint(0, 4)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(_NOISE) + text[at:]
    return text


def _stray(tokens: list[str]) -> bool:
    """Whether a token is a stray character: no name and no punctuation."""
    return any(t not in _PUNCT and not (t.isascii() and t.isidentifier()) for t in tokens)


def _outcome(parse, text: str):
    try:
        return parse(text)
    except DslParseError as exc:
        return str(exc)


def assert_same(text: str):
    """Same tokens, then the same result; returns the regex tokens."""
    tokens = regex_tokens(text)
    assert ingest._dsl_tokens(text) == tokens, text
    assert _outcome(parse_structure_dsl, text) == _outcome(regex_parse_structure_dsl, text), text
    return tokens


# --- comparison ---------------------------------------------------------------------


def test_seeded_mutated_documents_read_the_same():
    kinds = {"valid": 0, "error": 0, "stray": 0}
    for seed in range(4000):
        rng = random.Random(seed)
        text = _mutated(rng, _render(rng, _tokens(rng)))
        tokens = assert_same(text)
        if _stray(tokens):
            kinds["stray"] += 1
        elif isinstance(_outcome(parse_structure_dsl, text), list):
            kinds["valid"] += 1
        else:
            kinds["error"] += 1
    assert min(kinds.values()) > 500, kinds


def test_comment_and_line_boundary_forms_read_the_same():
    for body in ("a", "", " x # y ", "#", "é\x00", "->", "a\x1fb", "\x1f"):
        for end in ("", "\r\n", *LINE_BREAKS):
            for text in (f"#{body}{end}entity A {{ }}", f"entity A {{#{body}{end}}}"):
                assert_same(text)
                assert_same(text + f"#{body}")
    for text in ("", " ", "#", "##", "\n#\n", "entity A{}#", "entity-->A", "entity A->>B"):
        assert_same(text)


def test_every_plane_0_code_point_in_code_and_in_a_comment_reads_the_same():
    """Each character between two names, and inside a comment before one:
    whitespace, a line boundary, a stray character or a name's own. Every
    whitespace character and line boundary is in plane 0."""
    for point in (*range(0x10000), 0x1F600, 0x10FFFF):
        char = chr(point)
        for text in (f"entity A{char}b {{ }}", f"#x{char}entity A {{ }}"):
            assert ingest._dsl_tokens(text) == regex_tokens(text), hex(point)


_TEXT_TOKENS = ["entity", "extends", "attr", "ref", "{", "}", ":", ";", "->", "A", "b_1", " ",
                "\n", *_NOISE]


@_FUZZ
@given(st.lists(st.sampled_from(_TEXT_TOKENS), max_size=40).map("".join))
def test_fuzzed_token_runs_read_the_same(text):
    assert_same(text)


@_FUZZ
@given(st.text(st.sampled_from(list("ae_1{}:;->#é \n\r\x00\x85\u2028\xa0\x1f")), max_size=40))
def test_fuzzed_characters_read_the_same(text):
    assert_same(text)


@_FUZZ
@given(_STRUCTURE_DSL, st.randoms(use_true_random=False))
def test_fuzzed_structures_mutated_read_the_same(text, rng):
    assert_same(_mutated(rng, text))


def test_a_valid_structure_compiles_no_regex_and_a_stray_character_does(monkeypatch):
    compiled = []
    compile_pattern = re._compile
    monkeypatch.setattr(re, "_compile", lambda *args: compiled.append(args) or compile_pattern(*args))
    ingest._dsl_token.cache_clear()
    ingest._dsl_comment.cache_clear()
    texts = [TOPIC_QUESTION_STRUCTURE]
    texts += [_render(random.Random(seed), _tokens(random.Random(seed))) for seed in range(50)]
    for text in texts:
        assert isinstance(parse_structure_dsl(text), list)
    assert compiled == []
    assert ingest._dsl_token.cache_info().misses == ingest._dsl_comment.cache_info().misses == 0
    stray = TOPIC_QUESTION_STRUCTURE.replace("name:", "nam$e:")
    try:
        parse_structure_dsl(stray)
    except DslParseError as exc:
        assert str(exc) == "line 3, column 13: expected ':', got '$'"
    else:
        raise AssertionError("a stray character parsed")
    assert ingest._dsl_token.cache_info().misses == ingest._dsl_comment.cache_info().misses == 1
    assert compiled
