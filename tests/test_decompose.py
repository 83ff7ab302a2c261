"""Similarity construction, clustering determinism, and the weight grid."""

from __future__ import annotations

import json
import random
import re
from types import SimpleNamespace

import pytest

from helpers import UNIT_WEIGHTS, random_model, random_partition
from oracles import oracle_cluster, oracle_similarity

from mono2ddd.decompose import (
    Decomposition,
    SimilarityWeights,
    build_similarity,
    cluster,
    decompose,
    decomposition_to_json,
    parse_decomposition,
    search_decompositions,
    weight_grid,
)
from mono2ddd.errors import ContractError, DecompositionError
from mono2ddd.ingest import parse_model
from mono2ddd.model import Access, EntityStructure, Functionality, MonolithModel

TOL = 1e-9


@pytest.mark.parametrize(
    "bad",
    [
        (0.5, 0.5, 0.5, 0.5),
        (1.0, 0.1, -0.1, 0.0),
        (float("nan"), 0.0, 0.0, 1.0),
        (float("inf"), 0.0, 0.0, 1.0),
        (float("-inf"), float("inf"), 0.0, 1.0),
    ],
)
def test_weights_must_be_convex(bad):
    with pytest.raises(DecompositionError):
        SimilarityWeights(*bad)


def test_identical_access_sets_have_similarity_one():
    model = parse_model(
        '{"functionalities": ['
        '{"name": "f1", "trace": [["A", "R"], ["B", "R"]]},'
        '{"name": "f2", "trace": [["B", "W"], ["A", "W"]]}]}'
    )
    matrix = build_similarity(model, UNIT_WEIGHTS)
    assert matrix.similarity("A", "B") == pytest.approx(1.0, abs=TOL)


def test_never_coaccessed_entities_have_similarity_zero():
    model = parse_model(
        '{"functionalities": ['
        '{"name": "f1", "trace": [["A", "R"]]},'
        '{"name": "f2", "trace": [["B", "W"]]}]}'
    )
    for weights in weight_grid(0.5):
        matrix = build_similarity(model, weights)
        assert matrix.similarity("A", "B") == 0.0


def test_fixture_a_similarity_values(fixture_a):
    matrix = build_similarity(fixture_a, UNIT_WEIGHTS)
    # A is accessed by f1,f3,f4 and B by f1,f4: one-way 2/3 and 1.
    assert matrix.similarity("A", "B") == pytest.approx(5 / 6, abs=TOL)
    # B={f1,f4} vs C={f2,f3,f4}: one-way 1/2 and 1/3.
    assert matrix.similarity("B", "C") == pytest.approx(5 / 12, abs=TOL)
    assert matrix.similarity("A", "D") == 0.0
    oracle = oracle_similarity(fixture_a, UNIT_WEIGHTS)
    for pair, expected in oracle.items():
        lo, hi = sorted(pair)
        assert matrix.similarity(lo, hi) == pytest.approx(expected, abs=TOL)


def test_similarity_matches_oracle_on_random_models():
    rng = random.Random(20240811)
    for _ in range(60):
        model = random_model(rng)
        weights = rng.choice(weight_grid(0.25))
        matrix = build_similarity(model, weights)
        oracle = oracle_similarity(model, weights)
        for pair, expected in oracle.items():
            lo, hi = sorted(pair)
            value = matrix.similarity(lo, hi)
            assert abs(value - expected) < TOL
            assert 0.0 <= value <= 1.0 + TOL


def test_similarity_does_not_depend_on_entity_order():
    # `parse_model` sorts entities; a model built through the library need not.
    traces = (
        Functionality("f", (Access("A", "R"), Access("B", "R"))),
        Functionality("g", (Access("C", "R"),)),
    )

    def matrix(order):
        entities = tuple(EntityStructure(name) for name in order)
        return build_similarity(MonolithModel(entities, traces), UNIT_WEIGHTS)

    assert matrix("BAC").similarity("A", "B") == 1.0
    rng = random.Random(20261023)
    for _ in range(30):
        model = random_model(rng, with_structure=True)
        weights = rng.choice(weight_grid(0.25))
        shuffled = list(model.entities)
        rng.shuffle(shuffled)
        other = MonolithModel(tuple(shuffled), model.functionalities)
        first, second = build_similarity(model, weights), build_similarity(other, weights)
        names = model.entity_names()
        for e1 in names:
            for e2 in names:
                assert first.similarity(e1, e2) == second.similarity(e1, e2)


def test_an_entity_declared_twice_counts_once():
    # Only a hand-built model can declare an entity twice.
    model = MonolithModel(
        (EntityStructure("A"), EntityStructure("A"), EntityStructure("B")),
        (Functionality("f", (Access("A", "R"), Access("B", "W"))),),
    )
    assert build_similarity(model, UNIT_WEIGHTS).entities == ("A", "B")
    assert dict(decompose(model, UNIT_WEIGHTS, 2).clusters) == {
        "Cluster0": ("A",),
        "Cluster1": ("B",),
    }
    with pytest.raises(DecompositionError, match="cannot make 3 clusters from 2 entities"):
        decompose(model, UNIT_WEIGHTS, 3)
    with pytest.raises(DecompositionError, match="cluster count 3 out of range"):
        search_decompositions(model, 0.5, [3])


def test_fixture_a_two_clusters(fixture_a):
    result = decompose(fixture_a, UNIT_WEIGHTS, 2)
    assert dict(result.clusters) == {"Cluster0": ("A", "B"), "Cluster1": ("C", "D")}
    assert result.members("Cluster1") == ("C", "D")
    with pytest.raises(DecompositionError, match="unknown cluster 'Cluster2'"):
        result.members("Cluster2")


def test_cluster_degenerate_cuts(fixture_a):
    singletons = decompose(fixture_a, UNIT_WEIGHTS, 4)
    assert all(len(m) == 1 for _, m in singletons.clusters)
    whole = decompose(fixture_a, UNIT_WEIGHTS, 1)
    assert dict(whole.clusters) == {"Cluster0": ("A", "B", "C", "D")}


def test_cluster_count_bounds(fixture_a):
    matrix = build_similarity(fixture_a, UNIT_WEIGHTS)
    with pytest.raises(DecompositionError):
        cluster(matrix, UNIT_WEIGHTS, 5)
    with pytest.raises(DecompositionError):
        cluster(matrix, UNIT_WEIGHTS, 0)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
def test_a_cluster_count_that_is_not_an_integer_is_refused(fixture_a, n):
    message = f"^cluster count must be an integer, got {n!r}$"
    with pytest.raises(DecompositionError, match=message):
        decompose(fixture_a, UNIT_WEIGHTS, n)
    with pytest.raises(DecompositionError, match=message):
        cluster(build_similarity(fixture_a, UNIT_WEIGHTS), UNIT_WEIGHTS, n)


def test_clustering_matches_lance_williams_oracle():
    rng = random.Random(20240812)
    for _ in range(60):
        model = random_model(rng)
        weights = rng.choice(weight_grid(0.5))
        n = rng.randint(1, len(model.entity_names()))
        ours = decompose(model, weights, n)
        partition = frozenset(frozenset(m) for _, m in ours.clusters)
        assert partition == oracle_cluster(model, weights, n)


def test_cluster_names_follow_smallest_member():
    rng = random.Random(20240813)
    for _ in range(30):
        model = random_model(rng)
        n = rng.randint(1, len(model.entity_names()))
        result = decompose(model, UNIT_WEIGHTS, n)
        smallest = [members[0] for _, members in result.clusters]
        assert smallest == sorted(smallest)
        assert list(result.cluster_names()) == [f"Cluster{i}" for i in range(n)]


def test_monotone_cut_refines():
    rng = random.Random(20240814)
    for _ in range(30):
        model = random_model(rng)
        size = len(model.entity_names())
        for n in range(2, size + 1):
            fine = decompose(model, UNIT_WEIGHTS, n)
            coarse = decompose(model, UNIT_WEIGHTS, n - 1)
            coarse_sets = [set(m) for _, m in coarse.clusters]
            for _, members in fine.clusters:
                assert any(set(members) <= c for c in coarse_sets)


def test_clustering_is_deterministic(fixture_a):
    a = decomposition_to_json(decompose(fixture_a, UNIT_WEIGHTS, 2))
    b = decomposition_to_json(decompose(fixture_a, UNIT_WEIGHTS, 2))
    assert a == b


def test_weight_grid_sizes():
    assert len(weight_grid(1.0)) == 4
    assert len(weight_grid(0.5)) == 10
    for weights in weight_grid(0.5):
        assert abs(sum(weights.as_tuple()) - 1.0) < TOL


def test_search_is_sorted(fixture_a):
    results = search_decompositions(fixture_a, 0.5, [2, 3])
    assert len(results) == 20
    keys = [(d.weights.as_tuple(), d.n) for d in results]
    assert keys == sorted(keys)


def test_decomposition_json_round_trip(fixture_a_decomposition):
    text = decomposition_to_json(fixture_a_decomposition)
    again = parse_decomposition(text)
    assert again == fixture_a_decomposition
    assert decomposition_to_json(again) == text


def json_dumps_decomposition(decomposition) -> str:
    """The builder `decomposition_to_json` replaced, kept as its reference.

    It reads only `weights`, `n` and `clusters`, so it also writes fields
    that no `Decomposition` accepts, passed in a `SimpleNamespace`.
    """
    doc = {
        "params": {
            "weights": list(decomposition.weights.as_tuple()),
            "n": decomposition.n,
        },
        "clusters": {name: list(members) for name, members in decomposition.clusters},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_decomposition_json_equals_the_json_module_layout():
    awkward = ['q"uote', "back\\slash", "new\nline", "tab\t", "caf\u00e9", "\u2603", "\x00", ""]
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(1, 12)
        pool = [f"E{i}" for i in range(20)] + awkward
        entities = rng.sample(pool, rng.randint(k, len(pool)))
        groups = [entities[i::k] for i in range(k)]
        names = [rng.choice([f"Cluster{i}", rng.choice(awkward) + str(i)]) for i in range(k)]
        weights = rng.choice(weight_grid(rng.choice((1.0, 0.5, 0.25, 0.2, 0.1))))
        decomposition = Decomposition(weights, k, tuple(zip(names, map(tuple, groups))))
        assert decomposition_to_json(decomposition) == json_dumps_decomposition(decomposition)
    for weights in (SimilarityWeights(1, 0, 0, 0), SimilarityWeights(0.1, 0.2, 0.3, 0.4)):
        # Integer weights, and clusters listed out of name order.
        clusters = (("b", ("X",)), ("a", ("Z", "Y")))
        decomposition = Decomposition(weights, len(clusters), clusters)
        assert decomposition_to_json(decomposition) == json_dumps_decomposition(decomposition)


def canonical(decomposition: Decomposition) -> Decomposition:
    """The decomposition as `parse_decomposition` returns it: clusters and members sorted."""
    clusters = tuple(sorted((name, tuple(sorted(m))) for name, m in decomposition.clusters))
    return Decomposition(decomposition.weights, decomposition.n, clusters)


@pytest.mark.parametrize(
    "clusters, n, message",
    [
        ((("C", ("A",)), ("C", ("B",))), 2, "two clusters are named 'C'"),
        ((("C0", ("A", "B")), ("C1", ("A",))), 2, "entity 'A' is listed more than once"),
        ((("C0", ("A", "A")),), 1, "entity 'A' is listed more than once"),
        ((("C0", ("A",)), ("C1", ("B",))), 3, "n is 3 but the decomposition has 2 clusters"),
        ((("C0", ("A",)),), True, "n is True but the decomposition has 1 clusters"),
        ((), 0, "decomposition has no clusters"),
        ((("C0", ("A",)), ("C1", ())), 2, "cluster 'C1' has no entities"),
    ],
)
def test_decomposition_json_refuses_what_it_could_not_read_back(clusters, n, message):
    # No such value is built, so none reaches the writer.
    with pytest.raises(DecompositionError, match=f"^{re.escape(message)}$"):
        Decomposition(UNIT_WEIGHTS, n, clusters)
    # Written the old way, each of these is refused or read as another partition.
    fields = SimpleNamespace(weights=UNIT_WEIGHTS, n=n, clusters=clusters)
    try:
        again = parse_decomposition(json_dumps_decomposition(fields))
    except ContractError:
        return
    assert again.clusters != tuple(sorted((c, tuple(sorted(m))) for c, m in clusters))


def test_decomposition_json_round_trips_seeded_decompositions():
    rng = random.Random(29)
    for _ in range(200):
        names = [f"E{i}" for i in range(rng.randint(1, 12))]
        k = rng.randint(1, len(names))
        decomposition = random_partition(rng, names, k)
        weights = rng.choice(weight_grid(rng.choice((1.0, 0.5, 0.25))))
        # Clusters and members in any order; the file lists them sorted.
        clusters = [(name, tuple(rng.sample(m, len(m)))) for name, m in decomposition.clusters]
        rng.shuffle(clusters)
        decomposition = Decomposition(weights, k, tuple(clusters))
        again = parse_decomposition(decomposition_to_json(decomposition))
        assert again == canonical(decomposition)
        assert again.assignment() == decomposition.assignment()
    model = random_model(rng, max_entities=8)
    for n in range(1, len(model.entity_names()) + 1):
        decomposition = decompose(model, UNIT_WEIGHTS, n)
        assert parse_decomposition(decomposition_to_json(decomposition)) == decomposition


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("{]", "malformed JSON"),
        ('{"params": {}}', "clusters"),
        ('{"clusters": {}}', "non-empty"),
        ('{"clusters": {"c": []}}', "at least one entity"),
        ('{"clusters": {"c": ["A"], "d": ["A"]}}', "more than one cluster"),
        ('{"params": {"n": 3}, "clusters": {"c": ["A"]}}', "params.n"),
        (
            '{"params": {"n": "2"}, "clusters": {"c": ["A"], "d": ["B"]}}',
            "params.n must be an integer, got '2'",
        ),
        ('{"params": {"n": true}, "clusters": {"c": ["A"]}}', "params.n must be an integer"),
        (
            '{"params": {"n": 2.0}, "clusters": {"c": ["A"], "d": ["B"]}}',
            "params.n must be an integer, got 2.0",
        ),
        ('{"params": {"weights": ["x", 0, 0, 0]}, "clusters": {"c": ["A"]}}', "params.weights"),
        ('{"params": {"weights": [null, 0, 0, 1]}, "clusters": {"c": ["A"]}}', "params.weights"),
        ('{"params": {"weights": [true, 0, 0, 0]}, "clusters": {"c": ["A"]}}', "params.weights"),
        pytest.param(
            '{"params": {"weights": [1%s, 0, 0, 0]}, "clusters": {"c": ["A"]}}' % ("0" * 400),
            "params.weights",
            id="weight-too-large-for-a-float",
        ),
        ('{"params": [], "clusters": {"c": ["A"]}}', "'params' must be an object"),
        ('{"clusters": {"c": ["A", 1]}}', "cluster 'c' has a non-string member"),
        ('{"params": 3, "clusters": {"c": ["A"]}}', "'params' must be an object"),
        pytest.param("[" * 100000, "malformed JSON", id="nested-too-deep"),
        pytest.param('{"clusters": %s}' % ("1" * 5000), "malformed JSON", id="integer-too-long"),
    ],
)
def test_parse_decomposition_rejects_bad_documents(doc, fragment):
    with pytest.raises(ContractError) as err:
        parse_decomposition(doc)
    assert fragment in str(err.value)


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "1e999"])
def test_parse_decomposition_rejects_weights_that_are_not_finite(weight):
    doc = '{"params": {"weights": [%s, 0, 0, 1]}, "clusters": {"c": ["A"]}}' % weight
    with pytest.raises(DecompositionError, match="weight out of range"):
        parse_decomposition(doc)


def test_partition_invariant_on_random_models():
    rng = random.Random(20240815)
    for _ in range(40):
        model = random_model(rng)
        n = rng.randint(1, len(model.entity_names()))
        result = decompose(model, UNIT_WEIGHTS, n)
        seen = [e for _, members in result.clusters for e in members]
        assert sorted(seen) == list(model.entity_names())
        assert len(seen) == len(set(seen))
        assert all(members for _, members in result.clusters)
