"""The grid-search fast path against one-at-a-time decomposition and the oracles.

`search_decompositions` computes the similarity criteria once per model,
clusters once per weight vector and cuts that merge sequence at every
requested size; `search_candidates` measures each distinct partition once.
These tests pin all of that to the slow definitions on seeded models,
including models whose similarities tie.
"""

from __future__ import annotations

import importlib
import random

import pytest

from helpers import clusters_dict, random_model
from oracles import (
    oracle_cluster_complexity,
    oracle_cohesion,
    oracle_complexity,
    oracle_coupling,
    oracle_decomposition_measures,
)

from mono2ddd.decompose import (
    MAX_GRID_CANDIDATES,
    build_similarity,
    decompose,
    search_decompositions,
    weight_grid,
)
from mono2ddd.errors import DecompositionError
from mono2ddd.measures import search_candidates
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


def reference_cluster(model, weights, n):
    """Average linkage re-summing every cluster pair on every merge."""
    matrix = build_similarity(model, weights)
    clusters = [[e] for e in matrix.entities]
    while len(clusters) > n:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                total = sum(
                    matrix.distance(x, y) for x in clusters[i] for y in clusters[j]
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
    clusters.sort(key=lambda c: c[0])
    return tuple((f"Cluster{i}", tuple(c)) for i, c in enumerate(clusters))


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

