"""One fit rule for a decomposition, whichever library function applies it.

Every function that takes a model and a decomposition resolves the
decomposition with `check_decomposition`: a listed entity the model lacks
and a traced entity in no cluster raise its `DecompositionError`, with its
message, and an entity listed in two clusters belongs to the later one.
"""

from __future__ import annotations

import random

from helpers import random_model, random_partition

from mono2ddd.dddmap import build_ddd_model
from mono2ddd.decompose import Decomposition, check_decomposition
from mono2ddd.diagrams import decomposition_dot
from mono2ddd.errors import DecompositionError, Mono2DddError
from mono2ddd.measures import complexity, measure
from mono2ddd.saga import refactor_functionality, refactor_model


def _entry_points(model, sagas):
    """Every library function that takes the model and a decomposition."""
    first = model.functionalities[0].name
    return {
        "check_decomposition": lambda dec: check_decomposition(model, dec),
        "measure": lambda dec: measure(model, dec),
        "complexity": lambda dec: complexity(model, dec, first),
        "refactor_model": lambda dec: refactor_model(model, dec),
        "refactor_functionality": lambda dec: refactor_functionality(model, dec, first),
        "decomposition_dot": lambda dec: decomposition_dot(model, dec),
        "build_ddd_model": lambda dec: build_ddd_model(model, dec, sagas),
    }


def _error(call, dec) -> tuple[type, str] | None:
    try:
        call(dec)
    except Mono2DddError as exc:
        return type(exc), str(exc)
    return None


def _with(dec: Decomposition, position: int, members: tuple[str, ...]) -> Decomposition:
    clusters = list(dec.clusters)
    clusters[position] = (clusters[position][0], members)
    return Decomposition(dec.weights, dec.n, tuple(clusters))


def _ghost(rng, model, dec):
    position = rng.randrange(len(dec.clusters))
    faulty = _with(dec, position, dec.clusters[position][1] + ("Ghost",))
    return faulty, "decomposition names entity 'Ghost', which the model does not have"


def _dropped(rng, model, dec):
    traced = {e for f in model.functionalities for e in f._entities}
    places = [
        (position, entity)
        for position, (_, members) in enumerate(dec.clusters)
        if len(members) > 1
        for entity in members
        if entity in traced
    ]
    if not places:
        return None
    position, entity = rng.choice(places)
    members = tuple(m for m in dec.clusters[position][1] if m != entity)
    return _with(dec, position, members), f"entity {entity!r} is not mapped to a cluster"


def _twice(rng, model, dec):
    """A decomposition that lists one entity in two clusters, one that lists
    it only in the later of them, the entity and that later cluster."""
    if len(dec.clusters) < 2:
        return None
    early, late = sorted(rng.sample(range(len(dec.clusters)), 2))
    early_members, late_members = dec.clusters[early][1], dec.clusters[late][1]
    if len(early_members) > 1 and rng.random() < 0.5:
        entity = rng.choice(early_members)
        twice = _with(dec, late, late_members + (entity,))
        once = _with(twice, early, tuple(m for m in early_members if m != entity))
    else:
        entity = rng.choice(late_members)
        twice = _with(dec, early, early_members + (entity,))
        once = dec
    return twice, once, entity, dec.clusters[late][0]


def _held(report):
    # Cohesion and coupling divide by the listed size; what a cluster holds
    # shows in its functionality count and complexity.
    return [(c.name, c.functionalities, c.complexity) for c in report.clusters]


def test_every_entry_point_resolves_a_decomposition_by_one_rule():
    rng = random.Random(20261019)
    checked = {"ghost": 0, "dropped": 0, "twice": 0}
    for _ in range(80):
        model = random_model(rng, max_entities=8, with_structure=True)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, min(4, len(names))))
        sagas = [s for s, _ in refactor_model(model, dec)]
        calls = _entry_points(model, sagas)
        for kind, fault in (("ghost", _ghost), ("dropped", _dropped)):
            drawn = fault(rng, model, dec)
            if drawn is None:
                continue
            faulty, message = drawn
            for name, call in calls.items():
                assert _error(call, faulty) == (DecompositionError, message), (kind, name)
            checked[kind] += 1

        drawn = _twice(rng, model, dec)
        if drawn is None:
            continue
        twice, once, entity, later = drawn
        assert check_decomposition(model, twice)[entity] == later
        assert check_decomposition(model, twice) == check_decomposition(model, once)
        assert _held(measure(model, twice)) == _held(measure(model, once))
        for f in model.functionalities:
            assert complexity(model, twice, f.name) == complexity(model, once, f.name)
            assert refactor_functionality(model, twice, f.name) == refactor_functionality(
                model, once, f.name
            )
        assert refactor_model(model, twice) == refactor_model(model, once)
        assert decomposition_dot(model, twice) == decomposition_dot(model, once)
        once_sagas = [s for s, _ in refactor_model(model, once)]
        assert build_ddd_model(model, twice, once_sagas) == build_ddd_model(
            model, once, once_sagas
        )
        checked["twice"] += 1
    assert min(checked.values()) >= 50, checked
