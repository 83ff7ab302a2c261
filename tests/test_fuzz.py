"""Every input parser raises nothing but `Mono2DddError` on any input.

The CLI maps `Mono2DddError` to exit 1 and anything else to exit 2, so an
escaping `TypeError` or `KeyError` here is an input that crashes the CLI.
Documents are drawn close to each format: a well-shaped document with one
value replaced by arbitrary JSON or removed, so the examples get past the
first type check. The runs are derandomized, so every run and every CI leg
sees the same examples.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mono2ddd.cml import KEYWORDS, parse_document
from mono2ddd.decompose import parse_decomposition
from mono2ddd.errors import Mono2DddError
from mono2ddd.ingest import parse_accesses, parse_structure
from mono2ddd.saga import parse_sagas

_FUZZ = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NAMES = st.sampled_from(["A", "B", "C", "", "f", "Cluster0"])
_MODES = st.sampled_from(["R", "W", "RW", "X", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _slots(value):
    """Every (container, key) that holds a value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in list(items):
        yield value, key
        if isinstance(inner, (dict, list)):
            yield from _slots(inner)


@st.composite
def _near(draw, shaped):
    """A well-shaped document with one value replaced or removed, as JSON.

    Changing one value at a time reaches every field's type check, where
    junk drawn at every level would rarely get past the outermost ones.
    """
    doc = draw(shaped)
    slots = list(_slots(doc))
    if slots:
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.integers(0, 3)) == 0:
            del container[key]
        else:
            container[key] = draw(_JSON)
    return json.dumps(doc)


def _document(shaped):
    """Any text, or a near-well-shaped document (NaN and Infinity included)."""
    return st.text(max_size=40) | _near(shaped)


def _objects(fields):
    return st.lists(st.fixed_dictionaries(fields), max_size=2)


_TRACE = st.lists(st.tuples(_NAMES, _MODES).map(list), max_size=2)

_ACCESSES = _document(
    st.fixed_dictionaries({"functionalities": _objects({"name": _NAMES, "trace": _TRACE})})
)

_STRUCTURE_JSON = _document(
    st.fixed_dictionaries(
        {
            "entities": _objects(
                {
                    "name": _NAMES,
                    "attributes": _objects({"name": _NAMES, "type": _NAMES}),
                    "references": _objects(
                        {
                            "field": _NAMES,
                            "target": _NAMES,
                            "kind": st.sampled_from(["association", "inheritance"]),
                        }
                    ),
                }
            )
        }
    )
)

_DSL_TOKENS = ["entity", "extends", "attr", "ref", "{", "}", ":", ";", "->", "A", "B", "#\n"]
_STRUCTURE_DSL = st.lists(st.sampled_from(_DSL_TOKENS), max_size=30).map(" ".join)

_DECOMPOSITION = _document(
    st.fixed_dictionaries(
        {
            "params": st.fixed_dictionaries(
                {
                    "weights": st.lists(st.floats(), min_size=4, max_size=4),
                    "n": st.integers(),
                }
            ),
            "clusters": st.dictionaries(_NAMES, st.lists(_NAMES, max_size=3), max_size=3),
        }
    )
)

_SAGAS = _document(
    st.fixed_dictionaries(
        {
            "sagas": _objects(
                {
                    "functionality": _NAMES,
                    "orchestrator": _NAMES,
                    "steps": _objects({"cluster": _NAMES, "accesses": _TRACE}),
                }
            )
        }
    )
)

_CML_TOKENS = sorted(KEYWORDS) + [
    "A", "B", "{", "}", "(", ")", ";", ",", "-", "::", "[U]-[D]", "// c\n",
]
_CML = st.text(max_size=40) | st.lists(st.sampled_from(_CML_TOKENS), max_size=40).map(
    " ".join
)


def _raises_only_input_errors(parse, text):
    try:
        parse(text)
    except Mono2DddError:
        pass


@_FUZZ
@given(_ACCESSES)
def test_parse_accesses_raises_only_input_errors(text):
    _raises_only_input_errors(parse_accesses, text)


@_FUZZ
@given(_STRUCTURE_JSON)
def test_parse_structure_json_raises_only_input_errors(text):
    _raises_only_input_errors(parse_structure, text)


@_FUZZ
@given(_STRUCTURE_DSL)
def test_parse_structure_dsl_raises_only_input_errors(text):
    _raises_only_input_errors(parse_structure, text)


@_FUZZ
@given(_DECOMPOSITION)
def test_parse_decomposition_raises_only_input_errors(text):
    _raises_only_input_errors(parse_decomposition, text)


@_FUZZ
@given(_SAGAS)
def test_parse_sagas_raises_only_input_errors(text):
    _raises_only_input_errors(parse_sagas, text)


@_FUZZ
@given(_CML)
def test_parse_document_raises_only_input_errors(text):
    _raises_only_input_errors(parse_document, text)
