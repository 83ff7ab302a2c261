"""The indexed measures against literal copies of the trace-walking ones.

`measure` and `complexity` read one per-model index: each functionality's
entity mask and `(entity, reads, writes)` counts, each entity's reader and
writer masks and successors, and the traced entities in first-seen order.
These tests hold copies of `measure`, `_cluster_hits`, `_complexities` and
`check_decomposition` as they were before the index, and require the same
report by `repr` (so every float is bit-equal), or the same error type and
message, on seeded, tied and generated models. The copies sum floats left
to right onto `0.0`, as the package does, because from Python 3.12 `sum`
compensates. The last property builds decompositions from arbitrary
cluster lists: each is refused with the first partition fault, or is a
partition measured as the copies and `tests/oracles.py` measure it.
"""

from __future__ import annotations

import random
import re
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import UNIT_WEIGHTS, random_model, random_partition
from oracles import (
    oracle_cluster_complexity,
    oracle_cohesion,
    oracle_coupling,
    oracle_decomposition_measures,
)
from test_search import tied_model

from mono2ddd.decompose import Decomposition
from mono2ddd.errors import DecompositionError
from mono2ddd.measures import (
    ClusterMeasures,
    MeasureReport,
    complexity,
    measure,
    search_candidates,
)
from mono2ddd.model import READ, WRITE, Access, EntityStructure, Functionality, MonolithModel

TOL = 1e-12

# --- literal copies of the measures before the index ---------------------------


def old_check_decomposition(model: MonolithModel, decomposition: Decomposition) -> None:
    known = set(model.entity_names())
    for _, members in decomposition.clusters:
        for entity in members:
            if entity not in known:
                raise DecompositionError(
                    f"decomposition names entity {entity!r}, which the model does not have"
                )
    assigned = {e for _, members in decomposition.clusters for e in members}
    for f in model.functionalities:
        for a in f.trace:
            if a.entity not in assigned:
                raise DecompositionError(f"entity {a.entity!r} is not mapped to a cluster")


def _assignment(model: MonolithModel, decomposition: Decomposition) -> dict[str, str]:
    """Entity -> cluster name, after `check_decomposition` accepts the pair."""
    old_check_decomposition(model, decomposition)
    return decomposition.assignment()


def _cluster_hits(model: MonolithModel, assignment: dict[str, str]) -> list[dict[str, int]]:
    """Per functionality, in model order: cluster -> its distinct entities there."""
    result = []
    for f in model.functionalities:
        hits: dict[str, int] = {}
        for e in f.entities():
            hits[assignment[e]] = hits.get(assignment[e], 0) + 1
        result.append(hits)
    return result


def _complexities(model: MonolithModel, hits: list[dict[str, int]]) -> dict[str, float]:
    """Complexity of every functionality, keyed by name in model order."""
    distributed = [f for f, h in zip(model.functionalities, hits) if len(h) > 1]
    writers: dict[str, set[str]] = {}
    readers: dict[str, set[str]] = {}
    for g in distributed:
        for a in g.trace:
            table = writers if a.mode == WRITE else readers
            table.setdefault(a.entity, set()).add(g.name)

    result = dict.fromkeys((f.name for f in model.functionalities), 0.0)
    for f in distributed:
        total = 0
        for a in f.trace:
            others = (writers if a.mode == READ else readers).get(a.entity, ())
            total += len(others) - (f.name in others)
        result[f.name] = float(total)
    return result


def old_complexity(model: MonolithModel, decomposition: Decomposition, name: str) -> float:
    hits = _cluster_hits(model, _assignment(model, decomposition))
    complexities = _complexities(model, hits)
    if name not in complexities:
        raise DecompositionError(f"unknown functionality {name!r}")
    return complexities[name]


def old_measure(model: MonolithModel, decomposition: Decomposition) -> MeasureReport:
    assignment = _assignment(model, decomposition)
    hits = _cluster_hits(model, assignment)
    by_functionality = _complexities(model, hits)

    touching: dict[str, list[tuple[str, int]]] = {
        name: [] for name, _ in decomposition.clusters
    }
    followed: dict[str, dict[str, set[str]]] = {name: {} for name in touching}
    for f, f_hits in zip(model.functionalities, hits):
        for name, count in f_hits.items():
            touching[name].append((f.name, count))
        for prev, cur in zip(f.trace, f.trace[1:]):
            source, target = assignment[prev.entity], assignment[cur.entity]
            if source != target:
                followed[source].setdefault(target, set()).add(cur.entity)

    k = len(decomposition.clusters)
    rows = []
    for name, members in decomposition.clusters:
        users = touching[name]
        coupling_total = 0.0
        if k > 1:
            for other, other_members in decomposition.clusters:
                if other != name:
                    coupling_total += len(followed[name].get(other, ())) / len(other_members)
        rows.append(
            ClusterMeasures(
                name=name,
                size=len(members),
                functionalities=len(users),
                cohesion=(
                    reduce(add, (count / len(members) for _, count in users), 0.0) / len(users)
                    if users
                    else 0.0
                ),
                coupling=coupling_total / (k - 1) if k > 1 else 0.0,
                complexity=(
                    reduce(add, (by_functionality[f] for f, _ in users), 0.0) / len(users)
                    if users
                    else 0.0
                ),
            )
        )

    total_functionalities = len(model.functionalities)
    return MeasureReport(
        clusters=tuple(rows),
        cohesion=reduce(add, (r.cohesion for r in rows), 0.0) / k,
        coupling=reduce(add, (r.coupling for r in rows), 0.0) / k,
        complexity=(
            reduce(add, by_functionality.values(), 0.0) / total_functionalities
            if total_functionalities
            else 0.0
        ),
    )


# --- comparison --------------------------------------------------------------------


def outcome(fn, *args):
    """The result's ``repr``, or the error's type name and message."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def assert_same_measures(model: MonolithModel, decomposition: Decomposition) -> None:
    assert outcome(measure, model, decomposition) == outcome(old_measure, model, decomposition)
    for f in model.functionalities:
        assert outcome(complexity, model, decomposition, f.name) == outcome(
            old_complexity, model, decomposition, f.name
        )
    assert outcome(complexity, model, decomposition, "nope") == outcome(
        old_complexity, model, decomposition, "nope"
    )


def with_untraced(rng: random.Random, model: MonolithModel) -> MonolithModel:
    """The model plus structure-only entities, some sorting before the traced ones."""
    extra = [EntityStructure(name) for name in ("0Spare", "Zz", "a_only")[: rng.randint(1, 3)]]
    entities = list(model.entities) + extra
    rng.shuffle(entities)
    return MonolithModel(tuple(entities), model.functionalities)


def traced_partition(rng: random.Random, model: MonolithModel, k: int) -> Decomposition:
    """A random partition of the traced entities only."""
    traced = sorted({a.entity for f in model.functionalities for a in f.trace})
    return random_partition(rng, traced, min(k, len(traced)))


def local_partition(model: MonolithModel) -> Decomposition:
    """The first functionality's entities in one cluster, everything else in another."""
    local = sorted(model.functionalities[0].entities())
    rest = sorted(set(model.entity_names()) - set(local))
    clusters = [("Cluster0", tuple(local))] + ([("Cluster1", tuple(rest))] if rest else [])
    return Decomposition(UNIT_WEIGHTS, len(clusters), tuple(clusters))


def seeded_cases(count: int):
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 3 == 0:
            model = tied_model(rng)
        else:
            model = random_model(rng, max_entities=9, max_functionalities=8, max_trace=14)
        if seed % 2:
            model = with_untraced(rng, model)
        names = list(model.entity_names())
        yield model, random_partition(rng, names, rng.randint(1, len(names)))
        yield model, traced_partition(rng, model, rng.randint(1, 4))
        yield model, Decomposition(UNIT_WEIGHTS, 1, (("Cluster0", tuple(sorted(names))),))
        yield model, local_partition(model)


def test_measures_equal_the_trace_walk_on_seeded_models():
    for model, decomposition in seeded_cases(300):
        assert_same_measures(model, decomposition)


def test_seeded_cases_cover_local_and_distributed_functionalities():
    local = distributed = 0
    for model, decomposition in seeded_cases(60):
        assignment = decomposition.assignment()
        for f in model.functionalities:
            spread = len({assignment[e] for e in f.entities()})
            local += spread == 1
            distributed += spread > 1
    assert local and distributed


def test_search_reports_equal_the_trace_walk():
    for seed in range(12):
        rng = random.Random(seed)
        model = tied_model(rng) if seed % 2 else random_model(rng, max_entities=8)
        model = with_untraced(rng, model) if seed % 3 == 0 else model
        n_values = list(range(1, len(model.entities) + 1))
        for d, report in search_candidates(model, 0.5, n_values):
            assert repr(report) == repr(old_measure(model, d))


def test_an_unknown_member_gives_the_same_error():
    rng = random.Random(5)
    for _ in range(50):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names + ["Ghost"], rng.randint(1, len(names)))
        assert outcome(measure, model, dec) == (
            "DecompositionError",
            "decomposition names entity 'Ghost', which the model does not have",
        )
        assert_same_measures(model, dec)


def test_an_unmapped_traced_entity_gives_the_same_error():
    rng = random.Random(6)
    for _ in range(50):
        model = random_model(rng, max_entities=8)
        traced = sorted({a.entity for f in model.functionalities for a in f.trace})
        if len(traced) < 2:
            continue
        dropped = rng.choice(traced)
        kept = [e for e in model.entity_names() if e != dropped]
        dec = random_partition(rng, kept, rng.randint(1, len(kept)))
        assert outcome(measure, model, dec) == (
            "DecompositionError",
            f"entity {dropped!r} is not mapped to a cluster",
        )
        assert_same_measures(model, dec)


def test_the_first_unmapped_entity_is_the_first_one_traced():
    model = MonolithModel(
        tuple(EntityStructure(e) for e in "ABCD"),
        (
            Functionality("f0", (Access("D", "R"), Access("B", "W"))),
            Functionality("f1", (Access("C", "R"), Access("A", "R"))),
        ),
    )
    dec = Decomposition(UNIT_WEIGHTS, 1, (("Cluster0", ("A",)),))
    with pytest.raises(DecompositionError, match="entity 'D' is not mapped"):
        measure(model, dec)
    assert_same_measures(model, dec)


def test_a_traced_entity_the_model_lacks_gives_the_same_error():
    model = MonolithModel(
        (EntityStructure("A"),),
        (Functionality("f0", (Access("A", "R"), Access("Ghost", "W"))),),
    )
    for members in (("A",), ("A", "Ghost")):
        assert_same_measures(model, Decomposition(UNIT_WEIGHTS, 1, (("Cluster0", members),)))


def test_clusters_sharing_a_name_or_an_entity_are_refused_when_built():
    rng = random.Random(8)
    for _ in range(60):
        model = random_model(rng)
        names = list(model.entity_names())
        if len(names) < 3:
            continue
        clusters = list(random_partition(rng, names, rng.randint(2, len(names))).clusters)
        # The second cluster also lists an entity of the first one.
        twice = list(clusters)
        twice[1] = (twice[1][0], twice[1][1] + (twice[0][1][0],))
        # The second cluster takes the first one's name.
        shared = list(clusters)
        shared[1] = (shared[0][0], shared[1][1])
        for variant, message in (
            (twice, f"entity {twice[0][1][0]!r} is listed more than once"),
            (shared, f"two clusters are named {shared[0][0]!r}"),
        ):
            with pytest.raises(DecompositionError, match=f"^{re.escape(message)}$"):
                Decomposition(UNIT_WEIGHTS, len(variant), tuple(variant))


_TRACES = st.lists(
    st.lists(
        st.builds(Access, st.sampled_from("ABCDEFG"), st.sampled_from((READ, WRITE))),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_TRACES, st.lists(st.integers(0, 3), min_size=8, max_size=8), st.booleans())
def test_measures_equal_the_trace_walk_on_generated_models(traces, clusters, untraced):
    functionalities = tuple(Functionality(f"f{i}", tuple(t)) for i, t in enumerate(traces))
    names = sorted({a.entity for t in traces for a in t} | ({"H"} if untraced else set()))
    model = MonolithModel(tuple(EntityStructure(e) for e in names), functionalities)
    groups: dict[int, list[str]] = {}
    for entity, c in zip(names, clusters):
        groups.setdefault(c, []).append(entity)
    ordered = sorted(groups.values(), key=min)
    dec = Decomposition(
        UNIT_WEIGHTS,
        len(ordered),
        tuple((f"Cluster{i}", tuple(g)) for i, g in enumerate(ordered)),
    )
    assert_same_measures(model, dec)


def _partition_fault(clusters: list, n) -> str | None:
    """The first fault that keeps ``(clusters, n)`` from being a partition."""
    if not clusters:
        return "decomposition has no clusters"
    names: list[str] = []
    listed: list[str] = []
    for name, members in clusters:
        if name in names:
            return f"two clusters are named {name!r}"
        if not members:
            return f"cluster {name!r} has no entities"
        for m in members:
            if m in listed:
                return f"entity {m!r} is listed more than once"
            listed.append(m)
        names.append(name)
    if isinstance(n, bool) or not isinstance(n, int) or n != len(clusters):
        return f"n is {n!r} but the decomposition has {len(clusters)} clusters"
    return None


def _cut(order: list[str], cuts: set[int]) -> list[tuple[str, tuple[str, ...]]]:
    bounds = [0, *sorted(cuts), len(order)]
    return [(f"C{i}", tuple(order[a:b])) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


_CLUSTER_LISTS = st.one_of(
    st.lists(
        st.tuples(
            st.sampled_from(("C0", "C1", "C2", "C3")),
            st.lists(st.sampled_from("ABCDEF"), max_size=3).map(tuple),
        ),
        max_size=4,
    ),
    # Partitions of some of the letters, so that many draws are built.
    st.builds(_cut, st.permutations("ABCDEF").map(lambda p: p[:4]), st.sets(st.integers(1, 3))),
)
# None stands for the number of clusters.
_COUNTS = st.sampled_from((None, None, None, 0, 1, 2, 3, 5, True, False, 2.0))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_CLUSTER_LISTS, _COUNTS, st.data())
def test_a_built_decomposition_is_a_partition_measured_as_the_oracles_measure(
    clusters, n, data
):
    n = len(clusters) if n is None else n
    fault = _partition_fault(clusters, n)
    try:
        dec = Decomposition(UNIT_WEIGHTS, n, tuple(clusters))
    except DecompositionError as exc:
        assert str(exc) == fault
        return
    assert fault is None
    listed = [m for _, members in dec.clusters for m in members]
    assert len(set(listed)) == len(listed)
    assert len(set(dec.cluster_names())) == len(dec.clusters) == dec.n
    # A model that declares every letter and traces only listed entities.
    traces = data.draw(
        st.lists(
            st.lists(
                st.builds(Access, st.sampled_from(listed), st.sampled_from((READ, WRITE))),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        )
    )
    model = MonolithModel(
        tuple(EntityStructure(e) for e in "ABCDEF"),
        tuple(Functionality(f"f{i}", tuple(t)) for i, t in enumerate(traces)),
    )
    assert_same_measures(model, dec)
    report = measure(model, dec)
    groups = dict(dec.clusters)
    for row in report.clusters:
        assert row.cohesion == pytest.approx(oracle_cohesion(model, groups, row.name), abs=TOL)
        assert row.coupling == pytest.approx(oracle_coupling(model, groups, row.name), abs=TOL)
        assert row.complexity == pytest.approx(
            oracle_cluster_complexity(model, groups, row.name), abs=TOL
        )
    assert sum(row.size for row in report.clusters) == len(listed)
    expected = oracle_decomposition_measures(model, groups)
    assert (report.cohesion, report.coupling, report.complexity) == pytest.approx(
        expected, abs=TOL
    )
