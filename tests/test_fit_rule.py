"""One fit rule for a decomposition, whichever library function applies it.

Every function that takes a model and a decomposition resolves the
decomposition with `check_decomposition`: a listed entity the model lacks
and a traced entity in no cluster raise its `DecompositionError`, with its
message. An entity listed in two clusters never gets this far: building
the `Decomposition` refuses it.
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


def test_every_entry_point_resolves_a_decomposition_by_one_rule():
    rng = random.Random(20261019)
    checked = {"ghost": 0, "dropped": 0}
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
    assert min(checked.values()) >= 50, checked
