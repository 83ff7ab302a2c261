"""The distance rows against a literal copy of the name-keyed similarity.

`build_similarity` weighs the criteria of one trace index straight into
rows of distances between entities numbered in name order. Before, the
criteria were keyed by entity names, `_combine` built a dict keyed by name
pairs, and `_distance_rows` turned that dict back into numbered rows for
the clustering. The copies below are those three functions as they were,
and the rows must be equal by `repr`, so every float is bit-equal.
"""

from __future__ import annotations

import random

from helpers import random_model
from test_search import tied_model

from mono2ddd.decompose import build_similarity, weight_grid
from mono2ddd.model import WRITE, Access, EntityStructure, Functionality, MonolithModel

# --- literal copies of the name-keyed similarity ----------------------------------


def old_criteria(model: MonolithModel):
    entities = model.entity_names()
    acc = dict.fromkeys(entities, 0)
    wr = dict.fromkeys(entities, 0)
    rd = dict.fromkeys(entities, 0)
    bits: dict[str, int] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    for f in model.functionalities:
        bit = 1 << bits.setdefault(f.name, len(bits))
        written: set[str] = set()
        read: set[str] = set()
        prev = None
        for a in f.trace:
            e = a.entity
            if a.mode == WRITE:
                written.add(e)
            else:
                read.add(e)
            if e != prev:
                if prev is not None:
                    key = (prev, e) if prev < e else (e, prev)
                    pair_counts[key] = pair_counts.get(key, 0) + 1
                prev = e
        for table, touched in ((wr, written), (rd, read), (acc, written | read)):
            for e in touched:
                table[e] = table.get(e, 0) | bit
    max_pair = max(pair_counts.values(), default=0)

    pairs = []
    ordered = sorted(entities)
    for i, e1 in enumerate(ordered):
        a1, w1, r1 = acc[e1], wr[e1], rd[e1]
        na1, nw1, nr1 = a1.bit_count(), w1.bit_count(), r1.bit_count()
        for e2 in ordered[i + 1 :]:
            a2, w2, r2 = acc[e2], wr[e2], rd[e2]
            na2, nw2, nr2 = a2.bit_count(), w2.bit_count(), r2.bit_count()
            shared_a = (a1 & a2).bit_count()
            shared_w = (w1 & w2).bit_count()
            shared_r = (r1 & r2).bit_count()
            follows = pair_counts.get((e1, e2), 0)
            pairs.append(
                (
                    e1,
                    e2,
                    shared_a / na1 if na1 else 0.0,
                    shared_w / nw1 if nw1 else 0.0,
                    shared_r / nr1 if nr1 else 0.0,
                    shared_a / na2 if na2 else 0.0,
                    shared_w / nw2 if nw2 else 0.0,
                    shared_r / nr2 if nr2 else 0.0,
                    follows / max_pair if max_pair else 0.0,
                )
            )
    return entities, tuple(pairs)


def old_combine(criteria, weights):
    entities, pairs = criteria
    wa, ww, wr, ws = weights.as_tuple()
    values = {
        (e1, e2): (
            (wa * a12 + ww * w12 + wr * r12 + ws * s)
            + (wa * a21 + ww * w21 + wr * r21 + ws * s)
        )
        / 2.0
        for e1, e2, a12, w12, r12, a21, w21, r21, s in pairs
    }
    return entities, values


def old_distance_rows(matrix):
    entities, values = matrix
    names = sorted(set(entities))
    ids = {name: i for i, name in enumerate(names)}
    rows = [[1.0] * len(names) for _ in names]
    for i, row in enumerate(rows):
        row[i] = 0.0
    for (e1, e2), value in values.items():
        if e1 < e2 and e1 in ids and e2 in ids:
            i, j = ids[e1], ids[e2]
            rows[i][j] = rows[j][i] = 1.0 - value
    return names, rows


# --- models -----------------------------------------------------------------------


def _trace(*accesses: str) -> tuple[Access, ...]:
    return tuple(Access(a[0], a[1]) for a in accesses)


def _hand_built():
    """The shapes the numbering has to get right, one model each."""
    fs = (
        Functionality("f", _trace("AR", "BW", "AW")),
        Functionality("g", _trace("CR", "DR", "BW")),
    )
    # Entities not in name order.
    yield MonolithModel(tuple(EntityStructure(e) for e in "DBCA"), fs)
    # An untraced entity, sorting before and after the traced ones.
    yield MonolithModel(tuple(EntityStructure(e) for e in "0ABCDZ"), fs)
    # A traced entity the model lacks, in the most frequent consecutive pair.
    ghost = Functionality("h", _trace("CR", "DW", "CR", "DW"))
    yield MonolithModel(tuple(EntityStructure(e) for e in "ABD"), fs + (ghost,))
    # No consecutive distinct pair: every trace stays on one entity.
    yield MonolithModel(
        tuple(EntityStructure(e) for e in "CAB"),
        (
            Functionality("f", _trace("AR", "AW")),
            Functionality("g", _trace("BW",)),
            Functionality("h", _trace("CR", "CR", "CW")),
        ),
    )
    # One entity declared twice.
    yield MonolithModel(tuple(EntityStructure(e) for e in "ABCAD"), fs)


def _seeded(count: int):
    for seed in range(count):
        rng = random.Random(seed)
        model = tied_model(rng) if seed % 2 else random_model(rng, max_entities=9, max_trace=14)
        entities = list(model.entities)
        if seed % 3 == 0:
            entities += [EntityStructure(name) for name in ("0Spare", "Zz")]
        if seed % 4 == 1:
            entities = entities[1:]  # its first entity is traced but undeclared
        rng.shuffle(entities)
        yield rng, MonolithModel(tuple(entities), model.functionalities)


# --- comparison -------------------------------------------------------------------


def assert_same_rows(model: MonolithModel, weights) -> None:
    names, rows = old_distance_rows(old_combine(old_criteria(model), weights))
    matrix = build_similarity(model, weights)
    assert matrix.entities == tuple(names)
    assert repr(matrix.rows) == repr(rows)


def test_hand_built_models_give_the_same_rows():
    for model in _hand_built():
        for weights in weight_grid(0.25):
            assert_same_rows(model, weights)


def test_seeded_models_give_the_same_rows():
    for rng, model in _seeded(120):
        for weights in rng.sample(weight_grid(0.125), 6):
            assert_same_rows(model, weights)


def test_the_hand_built_models_have_the_shapes_they_claim():
    shapes = list(_hand_built())
    assert shapes[0].entity_names() != tuple(sorted(shapes[0].entity_names()))
    traced = [{a.entity for f in m.functionalities for a in f.trace} for m in shapes]
    assert set(shapes[1].entity_names()) - traced[1]
    assert traced[2] - set(shapes[2].entity_names())
    assert all(len(f.entities()) == 1 for f in shapes[3].functionalities)
    assert len(set(shapes[4].entity_names())) < len(shapes[4].entity_names())


def test_similarity_is_one_minus_the_row_distance():
    for model in _hand_built():
        matrix = build_similarity(model, weight_grid(0.5)[1])
        names = matrix.entities
        for i, e1 in enumerate(names):
            for j, e2 in enumerate(names):
                assert matrix.distance(e1, e2) == matrix.rows[i][j]
                assert matrix.similarity(e1, e2) == 1.0 - matrix.rows[i][j]
            assert matrix.similarity(e1, "Nope") == 0.0
            assert matrix.distance("Nope", e1) == 1.0
        assert matrix.similarity("Nope", "Nope") == 1.0
