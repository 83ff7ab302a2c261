"""Similarity and the fit check walk no trace for what they do not read.

When only the access criterion weighs, `build_similarity` (and so
`decompose`) takes its masks from each trace's distinct entities and never
builds the trace index. With `_index` made to raise, every such weight
vector must still give the rows, by `repr`, and the cut that the index
gives; a write, read or sequence weight still reads the index.

`validate_model` keeps the set of traced names its walk built, so
`check_decomposition` reads no trace for a decomposition that fits; only
the error for an unmapped entity walks the traces in order.
"""

from __future__ import annotations

import importlib
import random

import pytest

from helpers import random_model, random_partition

from mono2ddd.decompose import (
    SimilarityWeights,
    _combine,
    _criteria,
    build_similarity,
    check_decomposition,
    decompose,
    weight_grid,
)
from mono2ddd.errors import DecompositionError
from mono2ddd.ingest import accesses_to_json, parse_model, validate_model
from mono2ddd.model import Access, EntityStructure, Functionality, MonolithModel
from mono2ddd.saga import refactor_model

decompose_module = importlib.import_module("mono2ddd.decompose")

# Access weight only, on and off the grid, signed zeros included.
VECTORS = [
    w
    for w in weight_grid(0.25) + weight_grid(0.1)
    + [
        SimilarityWeights(1.0, -0.0, 0.0, -0.0),
        SimilarityWeights(1.0, 0.0, -0.0, 0.0),
        SimilarityWeights(1.0 - 5e-10, 0.0, 0.0, 0.0),
    ]
    if not (w.write or w.read or w.sequence)
]


def _trace(*accesses: str) -> tuple[Access, ...]:
    return tuple(Access(a[0], a[1]) for a in accesses)


def _models():
    rng = random.Random(32)
    for _ in range(12):
        model = random_model(rng, max_entities=9, max_trace=14)
        structure = "".join(f"entity {e.name} {{ }}\n" for e in model.entities)
        # Parsed, with an entity that no trace reaches.
        yield parse_model(accesses_to_json(model), structure + "entity Zz { }\n")
    # Hand-built: "C" is traced but not declared, "0" is declared but untraced.
    yield MonolithModel(
        tuple(EntityStructure(e) for e in "DB0A"),
        (
            Functionality("f", _trace("AR", "CW", "BW", "AW")),
            Functionality("g", _trace("CR", "DR", "BW")),
            Functionality("h", _trace("CR", "DW", "CR", "DW")),
        ),
    )


def _expected(model: MonolithModel):
    """The rows and the cut at 2 that the trace index gives, per vector."""
    index = decompose_module._index(model)
    criteria = _criteria(index)
    for weights in VECTORS:
        matrix = _combine(index.names, criteria, weights)
        yield weights, matrix, decompose_module.cluster(matrix, weights, 2)


def test_an_access_weight_alone_builds_no_trace_index(monkeypatch):
    models = [(model, list(_expected(model))) for model in _models()]

    def no_index(model):
        raise AssertionError("the trace index was built")

    monkeypatch.setattr(decompose_module, "_index", no_index)
    for model, expected in models:
        for weights, matrix, cut in expected:
            built = build_similarity(model, weights)
            assert built.entities == matrix.entities
            assert repr(built.rows) == repr(matrix.rows), weights
            assert decompose(model, weights, 2) == cut


@pytest.mark.parametrize(
    "weights",
    [
        SimilarityWeights(0.5, 0.5, 0.0, 0.0),
        SimilarityWeights(0.5, 0.0, 0.5, 0.0),
        SimilarityWeights(0.5, 0.0, 0.0, 0.5),
        SimilarityWeights(1.0 + 5e-10, -5e-10, 0.0, 0.0),
    ],
)
def test_another_weight_still_reads_the_trace_index(monkeypatch, weights):
    def no_index(model):
        raise AssertionError("the trace index was built")

    monkeypatch.setattr(decompose_module, "_index", no_index)
    model = next(_models())
    with pytest.raises(AssertionError, match="trace index"):
        build_similarity(model, weights)


def test_validation_keeps_the_traced_names():
    f = Functionality("f", _trace("BR", "AW", "BW"))
    dropped = Functionality("f", _trace("GR",))
    model = validate_model([f, dropped], [EntityStructure("A")])
    assert model._traced_names == frozenset("AB") == set(model._traced)
    assert type(model._traced_names) is frozenset
    hand_built = MonolithModel(model.entities, model.functionalities)
    assert hand_built._traced_names == frozenset("AB")
    assert type(hand_built._traced_names) is frozenset


def test_a_fitting_decomposition_walks_no_trace(monkeypatch):
    rng = random.Random(33)
    model = parse_model(accesses_to_json(random_model(rng, max_trace=20)))
    names = list(model.entity_names())
    dec = random_partition(rng, names, rng.randint(1, len(names)))

    def no_walk(model):
        raise AssertionError("the traces were walked for their names")

    monkeypatch.setattr(MonolithModel, "_traced", property(no_walk))
    assert check_decomposition(model, dec) == dec.assignment()
    assert len(refactor_model(model, dec)) == len(model.functionalities)


def test_an_unfitting_decomposition_names_the_first_traced_entity():
    model = parse_model(
        '{"functionalities": [{"name": "f", "trace": [["D", "R"], ["B", "W"], ["A", "R"]]}]}'
    )
    dec = random_partition(random.Random(0), ["A"], 1)
    with pytest.raises(DecompositionError, match="entity 'D' is not mapped"):
        check_decomposition(model, dec)
