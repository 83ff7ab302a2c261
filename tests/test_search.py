"""The grid-search fast path against one-at-a-time decomposition and the oracles.

`search_decompositions` computes the similarity criteria once per model,
clusters once per weight vector and cuts that merge sequence at every
requested size; `search_candidates` measures each distinct partition once.
These tests pin all of that to the slow definitions on seeded models,
including models whose similarities tie.
"""

from __future__ import annotations

import importlib
import math
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import UNIT_WEIGHTS, clusters_dict, random_model
from oracles import (
    oracle_cluster_complexity,
    oracle_cohesion,
    oracle_complexity,
    oracle_coupling,
    oracle_decomposition_measures,
)

from mono2ddd.decompose import (
    MAX_GRID_CANDIDATES,
    Decomposition,
    SimilarityMatrix,
    SimilarityWeights,
    build_similarity,
    check_decomposition,
    decompose,
    search_decompositions,
    weight_grid,
    _agglomerate,
    _index,
)
from mono2ddd.errors import DecompositionError
from mono2ddd import measures
from mono2ddd.measures import _measure, measure, search_candidates
from mono2ddd.model import Access, EntityStructure, Functionality, MonolithModel

TOL = 1e-12


def tied_model(rng: random.Random) -> MonolithModel:
    """Entities in look-alike groups, so many pairwise similarities are equal."""
    names = [chr(ord("A") + i) for i in range(rng.randint(4, 9))]
    groups = [names[i : i + 2] for i in range(0, len(names), 2)]
    functionalities = []
    for i in range(rng.randint(2, 5)):
        trace = []
        for group in rng.sample(groups, k=rng.randint(1, len(groups))):
            mode = rng.choice("RW")
            trace.extend(Access(e, mode) for e in group)
        functionalities.append(Functionality(f"f{i}", tuple(trace)))
    return MonolithModel(
        tuple(EntityStructure(e) for e in names), tuple(functionalities)
    )


def seeded_models(count: int):
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 2:
            yield rng, tied_model(rng)
        else:
            yield rng, random_model(rng, max_entities=9, max_functionalities=7)


def reference_cuts(matrix, n_values):
    """Average linkage re-summing every cluster pair on every merge, cut at each n.

    Each linkage is summed left to right onto ``0.0``, the order ``_linkage``
    promises on every Python version.
    """
    clusters = [[e] for e in matrix.entities]
    cuts = {}
    while True:
        if len(clusters) in n_values:
            cuts[len(clusters)] = tuple((f"Cluster{i}", tuple(c)) for i, c in enumerate(clusters))
        if len(clusters) <= min(n_values):
            return cuts
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                total = reduce(
                    add, (matrix.distance(x, y) for x in clusters[i] for y in clusters[j]), 0.0
                )
                d = total / (len(clusters[i]) * len(clusters[j]))
                lo, hi = sorted((clusters[i][0], clusters[j][0]))
                if best is None or (d, lo, hi) < best[0]:
                    best = ((d, lo, hi), i, j)
        _, i, j = best
        merged = sorted(clusters[i] + clusters[j])
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])


def reference_cluster(model, weights, n):
    return reference_cuts(build_similarity(model, weights), {n})[n]


def test_decompose_matches_the_re_summing_reference():
    # On seed 0, weights (0.25, 0.25, 0, 0.5) and n = 2, summing a cluster
    # pair in the other order flips a tie and changes the partition.
    for rng, model in seeded_models(16):
        for weights in weight_grid(0.25):
            for n in range(1, len(model.entities) + 1):
                got = decompose(model, weights, n)
                assert got.clusters == reference_cluster(model, weights, n)


def test_decompose_numbers_entities_in_name_order():
    # Model order is not name order here: "b" first, "a10" before "a9".
    names = ["b", "A", "a10", "a9", "B"]
    rng = random.Random(3)
    for _ in range(8):
        functionalities = tuple(
            Functionality(
                f"f{i}",
                tuple(
                    Access(rng.choice(names), rng.choice("RW"))
                    for _ in range(rng.randint(1, 6))
                ),
            )
            for i in range(rng.randint(2, 5))
        )
        model = MonolithModel(tuple(EntityStructure(e) for e in names), functionalities)
        for weights in weight_grid(0.5):
            for n in range(1, len(names) + 1):
                assert decompose(model, weights, n).clusters == reference_cluster(
                    model, weights, n
                )


def wide_model(rng: random.Random, size: int) -> MonolithModel:
    """``size`` entities ``e0``, ``e1``, ... listed shuffled, so neither model
    order nor number order is name order ("e10" < "e9"); about half the
    traces walk whole look-alike groups, which makes linkages tie."""
    names = [f"e{i}" for i in range(size)]
    rng.shuffle(names)
    groups = [names[i : i + 3] for i in range(0, size, 3)]
    functionalities = []
    for i in range(rng.randint(size // 2, size)):
        if rng.random() < 0.5:
            chosen = rng.sample(groups, k=rng.randint(1, min(3, len(groups))))
            trace = [Access(e, rng.choice("RW")) for group in chosen for e in group]
        else:
            trace = [Access(rng.choice(names), rng.choice("RW")) for _ in range(rng.randint(1, 8))]
        functionalities.append(Functionality(f"f{i}", tuple(trace)))
    return MonolithModel(tuple(EntityStructure(e) for e in names), tuple(functionalities))


def assert_cuts_match_the_reference(matrix, weights, n_values):
    got = _agglomerate(matrix, weights, n_values)
    want = reference_cuts(matrix, set(n_values))
    assert [d.clusters for d in got] == [want[n] for n in sorted(set(n_values))]


def test_agglomerate_matches_the_reference_up_to_sixty_entities():
    rng = random.Random(20261019)
    grid = weight_grid(0.5)
    for size in (20, 33, 47, 60):
        model = wide_model(rng, size)
        for weights in rng.sample(grid, k=3):
            matrix = build_similarity(model, weights)
            assert_cuts_match_the_reference(matrix, weights, [1, 2, 5, size // 2, size])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 34))
def test_agglomerate_matches_the_reference_on_tied_and_shuffled_models(seed, tied, weight_at):
    rng = random.Random(seed)
    model = tied_model(rng) if tied else wide_model(rng, rng.randint(2, 24))
    weights = weight_grid(0.25)[weight_at]
    size = len(model.entities)
    assert_cuts_match_the_reference(
        build_similarity(model, weights), weights, list(range(1, size + 1))
    )


# Distances that tie exactly or lie one ulp apart, so the screen often finds
# several pairs within its tolerance and has to re-sum them.
_HALF = 0.5
_NEAR = (
    0.0,
    _HALF,
    math.nextafter(_HALF, 1.0),
    math.nextafter(_HALF, 0.0),
    0.25,
    math.nextafter(0.25, 1.0),
    1 / 3,
    1.0,
)


def matrix_of(size: int, picks: list[int], palette=_NEAR) -> SimilarityMatrix:
    names = tuple(f"n{i:02d}" for i in range(size))
    rows = [[0.0] * size for _ in range(size)]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for (i, j), pick in zip(pairs, picks * len(pairs)):
        rows[i][j] = rows[j][i] = palette[pick % len(palette)]
    return SimilarityMatrix(names, rows)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(2, 12), st.lists(st.integers(0, 7), min_size=1, max_size=66))
def test_agglomerate_matches_the_reference_on_ulp_apart_distances(size, picks):
    assert_cuts_match_the_reference(
        matrix_of(size, picks), UNIT_WEIGHTS, list(range(1, size + 1))
    )


def test_the_screen_alone_and_the_re_summed_candidates_both_decide(monkeypatch):
    module = importlib.import_module("mono2ddd.decompose")
    re_summed = []
    linkage = module._linkage

    def counting(rows, a, b):
        re_summed.append((a[0], b[0]))
        return linkage(rows, a, b)

    monkeypatch.setattr(module, "_linkage", counting)
    rng = random.Random(5)
    # Distinct distances: one pair is ever within the tolerance, so nothing is re-summed.
    size = 12
    distinct = matrix_of(size, list(range(66)), [rng.random() for _ in range(66)])
    assert_cuts_match_the_reference(distinct, UNIT_WEIGHTS, list(range(1, size + 1)))
    assert re_summed == []
    # (n00, n01) is one ulp above 0.5 and (n02, n03) is 0.5: the screen keeps
    # both, and re-summing them merges (n02, n03) first, one ulp closer
    # though its heads come later.
    rows = [[1.0] * 4 for _ in range(4)]
    for i in range(4):
        rows[i][i] = 0.0
    rows[0][1] = rows[1][0] = math.nextafter(_HALF, 1.0)
    rows[2][3] = rows[3][2] = _HALF
    tied = SimilarityMatrix(("n00", "n01", "n02", "n03"), rows)
    (three,) = _agglomerate(tied, UNIT_WEIGHTS, [3])
    assert three.clusters[2] == ("Cluster2", ("n02", "n03"))
    assert re_summed == [(0, 1), (2, 3)]
    assert_cuts_match_the_reference(tied, UNIT_WEIGHTS, [1, 2, 3, 4])


def test_search_equals_one_decomposition_per_combination():
    for rng, model in seeded_models(40):
        size = len(model.entities)
        n_values = [rng.randint(1, size) for _ in range(rng.randint(1, 4))]
        n_values += n_values[:1]  # always one duplicate, in no particular order
        rng.shuffle(n_values)
        step = rng.choice((1.0, 0.5, 0.25))
        expected = [
            decompose(model, weights, n)
            for weights in weight_grid(step)
            for n in sorted(set(n_values))
        ]
        assert search_decompositions(model, step, n_values) == expected


def test_candidate_reports_match_the_oracles():
    for rng, model in seeded_models(24):
        n_values = list(range(1, len(model.entities) + 1))
        for d, report in search_candidates(model, 0.5, n_values):
            clusters = clusters_dict(d)
            cohesion, coupling, complexity = oracle_decomposition_measures(model, clusters)
            assert report.cohesion == pytest.approx(cohesion, abs=TOL)
            assert report.coupling == pytest.approx(coupling, abs=TOL)
            assert report.complexity == pytest.approx(complexity, abs=TOL)
            for row in report.clusters:
                members = set(clusters[row.name])
                touching = [
                    f for f in model.functionalities if f.entities() & members
                ]
                assert row.size == len(members)
                assert row.functionalities == len(touching)
                assert row.cohesion == pytest.approx(
                    oracle_cohesion(model, clusters, row.name), abs=TOL
                )
                assert row.coupling == pytest.approx(
                    oracle_coupling(model, clusters, row.name), abs=TOL
                )
                assert row.complexity == pytest.approx(
                    oracle_cluster_complexity(model, clusters, row.name), abs=TOL
                )
            assert report.complexity == pytest.approx(
                sum(oracle_complexity(model, clusters, f.name) for f in model.functionalities)
                / len(model.functionalities),
                abs=TOL,
            )


def test_candidate_reports_equal_fresh_measures():
    for rng, model in seeded_models(24):
        n_values = list(range(1, len(model.entities) + 1))
        for d, report in search_candidates(model, 0.25, n_values):
            assert repr(report) == repr(measure(model, d))


def test_one_memo_keeps_partitions_that_share_a_cluster_apart():
    # Each partition keeps cluster `Kept` and cuts the other entities in
    # another way, so its distributed set, and Kept's complexity, can differ.
    # One memo across all of them must give what a fresh one gives.
    moved = 0
    for seed in range(30):
        rng = random.Random(seed)
        model = random_model(rng, max_entities=9, max_functionalities=8)
        names = sorted(model.entity_names())
        if len(names) < 4:
            continue
        kept, rest = tuple(names[:2]), names[2:]
        rng.shuffle(rest)
        half = len(rest) // 2
        partitions = [
            (("Kept", kept), ("Rest", tuple(rest))),
            (("Kept", kept), ("Front", tuple(rest[:half])), ("Back", tuple(rest[half:]))),
            tuple((f"One{i}", (e,)) for i, e in enumerate(rest)) + (("Kept", kept),),
            (("Rest", tuple(rest)), ("Kept", kept)),
        ]
        index = _index(model)
        memo: dict = {}
        complexities = set()
        for clusters in partitions:
            d = Decomposition(UNIT_WEIGHTS, len(clusters), clusters)
            report = _measure(index, d, memo)[0]
            assert repr(report) == repr(measure(model, d)), (seed, clusters)
            complexities.add(report.cluster("Kept").complexity)
        moved += len(complexities) > 1
    assert moved > 5


def _counting_fit_checks(monkeypatch) -> list:
    calls = []
    real = measures.check_decomposition

    def counting(model, decomposition):
        calls.append(decomposition)
        return real(model, decomposition)

    monkeypatch.setattr(measures, "check_decomposition", counting)
    return calls


def test_search_checks_the_fit_of_one_partition(monkeypatch):
    calls = _counting_fit_checks(monkeypatch)
    for rng, model in seeded_models(6):
        calls.clear()
        candidates = search_candidates(model, 0.25, list(range(1, len(model.entities) + 1)))
        assert len({d.clusters for d, _ in candidates}) > 1
        assert calls == [candidates[0][0]]


def test_search_refuses_a_model_tracing_undeclared_entities_once(monkeypatch):
    # A hand-built model may trace entities it does not declare. Clusters
    # hold only the declared names, so no partition of the grid fits, and
    # the first undeclared traced entity is the one named.
    model = MonolithModel(
        (EntityStructure("A"), EntityStructure("B"), EntityStructure("C")),
        (
            Functionality("f", (Access("A", "R"), Access("Ghost", "W"), Access("B", "R"))),
            Functionality("g", (Access("Zed", "R"), Access("C", "W"), Access("A", "W"))),
        ),
    )
    n_values = [1, 2, 3]
    first = search_decompositions(model, 0.5, n_values)[0]
    with pytest.raises(DecompositionError) as expected:
        check_decomposition(model, first)
    assert str(expected.value) == "entity 'Ghost' is not mapped to a cluster"
    calls = _counting_fit_checks(monkeypatch)
    with pytest.raises(DecompositionError) as refused:
        search_candidates(model, 0.5, n_values)
    assert str(refused.value) == str(expected.value)
    assert calls == [first]


def test_equal_partitions_share_one_report():
    rng = random.Random(7)
    model = tied_model(rng)
    candidates = search_candidates(model, 0.25, [1, 2])
    by_partition: dict = {}
    for d, report in candidates:
        assert by_partition.setdefault(d.clusters, report) is report
    assert len(by_partition) < len(candidates)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), float("-inf"), 5e-324])
def test_weight_grid_rejects_steps_that_are_not_usable(step):
    with pytest.raises(DecompositionError):
        weight_grid(step)


@pytest.fixture
def no_grid(monkeypatch):
    """Fail the test if any weight vector of the grid gets built."""

    def refuse(*args, **kwargs):
        raise AssertionError("the grid was built before its size was checked")

    # `mono2ddd.decompose` as an attribute is the function, not the module.
    module = importlib.import_module("mono2ddd.decompose")
    monkeypatch.setattr(module, "SimilarityWeights", refuse)


def test_oversized_grid_is_rejected_before_it_is_built(no_grid, fixture_a):
    with pytest.raises(DecompositionError, match="exceeds the limit"):
        weight_grid(0.0001)
    with pytest.raises(DecompositionError, match="exceeds the limit"):
        search_decompositions(fixture_a, 0.0001, [2])


def test_grid_limit_counts_every_cluster_count(no_grid, fixture_a):
    # step 1/75: C(78, 3) = 76076 weight vectors, under the limit alone.
    assert 76076 <= MAX_GRID_CANDIDATES < 76076 * 2
    with pytest.raises(DecompositionError, match="152152 candidates"):
        search_decompositions(fixture_a, 1 / 75, [1, 2, 2])


def test_search_rejects_nan_step(fixture_a):
    with pytest.raises(DecompositionError, match="grid step"):
        search_decompositions(fixture_a, float("nan"), [2])


def test_search_rejects_an_empty_list_of_counts(fixture_a):
    with pytest.raises(DecompositionError, match="no cluster counts requested"):
        search_candidates(fixture_a, 0.5, [])


@pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
def test_search_rejects_a_count_that_is_not_an_integer(fixture_a, n):
    with pytest.raises(DecompositionError, match=f"^cluster count must be an integer, got {n!r}$"):
        search_candidates(fixture_a, 0.5, [2, n])
