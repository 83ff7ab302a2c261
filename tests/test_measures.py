"""Cohesion, coupling, complexity, and the candidate ranking rule."""

from __future__ import annotations

import random

import pytest

from helpers import UNIT_WEIGHTS, clusters_dict, random_model, random_partition
from oracles import (
    oracle_cluster_complexity,
    oracle_cohesion,
    oracle_complexity,
    oracle_coupling,
    oracle_decomposition_measures,
)

from mono2ddd.decompose import Decomposition, decompose, decomposition_to_json
from mono2ddd.errors import DecompositionError
from mono2ddd.ingest import parse_model
from mono2ddd.measures import (
    cohesion,
    complexity,
    coupling,
    measure,
    rank_decompositions,
    report_tsv,
    search_candidates,
)

TOL = 1e-9


def test_fixture_a_cluster_measures(fixture_a, fixture_a_decomposition):
    dec = fixture_a_decomposition
    # f1 uses both of {A,B}; f3 uses A only; f4 uses both.
    assert cohesion(fixture_a, dec, "Cluster0") == pytest.approx(5 / 6, abs=TOL)
    # f2 uses both of {C,D}; f3 and f4 use C only.
    assert cohesion(fixture_a, dec, "Cluster1") == pytest.approx(2 / 3, abs=TOL)
    assert coupling(fixture_a, dec, "Cluster0") == pytest.approx(1 / 2, abs=TOL)
    assert coupling(fixture_a, dec, "Cluster1") == pytest.approx(1 / 2, abs=TOL)
    assert complexity(fixture_a, dec, "f1") == 0.0
    assert complexity(fixture_a, dec, "f2") == 0.0
    assert complexity(fixture_a, dec, "f3") == pytest.approx(2.0, abs=TOL)
    assert complexity(fixture_a, dec, "f4") == pytest.approx(2.0, abs=TOL)

    report = measure(fixture_a, dec)
    assert report.cluster("Cluster0").complexity == pytest.approx(4 / 3, abs=TOL)
    assert report.complexity == pytest.approx(1.0, abs=TOL)
    assert report.cluster("Cluster0").size == 2
    assert report.cluster("Cluster0").functionalities == 3
    with pytest.raises(DecompositionError, match="unknown cluster 'Nowhere'"):
        report.cluster("Nowhere")


def test_full_coverage_gives_cohesion_one():
    model = parse_model(
        '{"functionalities": [{"name": "f", "trace": [["A", "R"], ["B", "W"]]}]}'
    )
    dec = decompose(model, UNIT_WEIGHTS, 1)
    assert cohesion(model, dec, "Cluster0") == 1.0


def test_single_cluster_has_no_coupling_or_complexity(fixture_a):
    dec = decompose(fixture_a, UNIT_WEIGHTS, 1)
    assert coupling(fixture_a, dec, "Cluster0") == 0.0
    for f in fixture_a.functionalities:
        assert complexity(fixture_a, dec, f.name) == 0.0


def test_non_crossing_traces_have_zero_coupling():
    model = parse_model(
        '{"functionalities": ['
        '{"name": "f1", "trace": [["A", "R"], ["B", "W"]]},'
        '{"name": "f2", "trace": [["C", "R"]]}]}'
    )
    dec = Decomposition(
        UNIT_WEIGHTS, 2, (("Cluster0", ("A", "B")), ("Cluster1", ("C",)))
    )
    assert coupling(model, dec, "Cluster0") == 0.0
    assert coupling(model, dec, "Cluster1") == 0.0


def test_making_the_other_functionality_local_zeroes_complexity(fixture_a):
    dec = Decomposition(
        UNIT_WEIGHTS, 2, (("Cluster0", ("A", "B", "C")), ("Cluster1", ("D",)))
    )
    assert complexity(fixture_a, dec, "f3") == 0.0


def test_complexity_of_unknown_functionality_rejected(fixture_a, fixture_a_decomposition):
    with pytest.raises(DecompositionError, match="unknown functionality 'nope'"):
        complexity(fixture_a, fixture_a_decomposition, "nope")


def test_measures_match_oracle_on_random_models():
    rng = random.Random(20240816)
    for _ in range(120):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        clusters = clusters_dict(dec)
        for name in clusters:
            assert abs(
                cohesion(model, dec, name) - oracle_cohesion(model, clusters, name)
            ) < TOL
            assert abs(
                coupling(model, dec, name) - oracle_coupling(model, clusters, name)
            ) < TOL
        for f in model.functionalities:
            assert abs(
                complexity(model, dec, f.name)
                - oracle_complexity(model, clusters, f.name)
            ) < TOL
        report = measure(model, dec)
        for row in report.clusters:
            assert abs(
                row.complexity - oracle_cluster_complexity(model, clusters, row.name)
            ) < TOL
        expected = oracle_decomposition_measures(model, clusters)
        assert abs(report.cohesion - expected[0]) < TOL
        assert abs(report.coupling - expected[1]) < TOL
        assert abs(report.complexity - expected[2]) < TOL


def test_measure_bounds_on_random_models():
    rng = random.Random(20240817)
    for _ in range(200):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        report = measure(model, dec)
        for row in report.clusters:
            assert 0.0 <= row.cohesion <= 1.0 + TOL
            assert 0.0 <= row.coupling <= 1.0 + TOL
            assert row.complexity >= 0.0
            assert row.size >= 1


def _candidate(model, clusters, weights=UNIT_WEIGHTS):
    dec = Decomposition(
        weights, len(clusters), tuple(sorted((n, tuple(sorted(m))) for n, m in clusters.items()))
    )
    return dec, measure(model, dec)


def test_rank_single_candidate_wins(fixture_a, fixture_a_decomposition):
    pair = (fixture_a_decomposition, measure(fixture_a, fixture_a_decomposition))
    assert rank_decompositions([pair]) is fixture_a_decomposition
    with pytest.raises(DecompositionError, match="no candidates to rank"):
        rank_decompositions([])


@pytest.mark.parametrize("top_k", [1.5, 1.0, "1", None])
def test_rank_refuses_a_top_k_that_is_not_an_integer(fixture_a, fixture_a_decomposition, top_k):
    pair = (fixture_a_decomposition, measure(fixture_a, fixture_a_decomposition))
    with pytest.raises(DecompositionError, match=f"^topK must be an integer, got {top_k!r}$"):
        rank_decompositions([pair], top_k)


def test_a_repeated_cluster_name_is_refused_before_it_is_measured():
    # Measured, these clusters gave C0 a cohesion of 2.0, though a mean of
    # shares never exceeds 1.
    with pytest.raises(DecompositionError, match="^two clusters are named 'C0'$"):
        Decomposition(UNIT_WEIGHTS, 2, (("C0", ("A",)), ("C0", ("B", "C"))))


def test_rank_prefers_lower_coupling_over_complexity(fixture_a):
    low = _candidate(fixture_a, {"Cluster0": ("A", "B"), "Cluster1": ("C", "D")})
    high = _candidate(fixture_a, {"Cluster0": ("A", "C"), "Cluster1": ("B", "D")})
    assert low[1].coupling < high[1].coupling
    assert rank_decompositions([high, low], top_k=1) == low[0]
    assert rank_decompositions([low, high], top_k=1) == low[0]


def test_rank_is_order_insensitive(fixture_a):
    rng = random.Random(20240818)
    candidates = []
    for n in (1, 2, 3, 4):
        dec = decompose(fixture_a, UNIT_WEIGHTS, n)
        candidates.append((dec, measure(fixture_a, dec)))
    baseline = rank_decompositions(candidates)
    for _ in range(10):
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        assert rank_decompositions(shuffled) == baseline


def test_rank_picks_min_complexity_inside_top_k(fixture_a):
    # Same coupling/cohesion pair twice via duplicated decomposition, then
    # verify the serialized-form tie-break keeps the result stable.
    dec = decompose(fixture_a, UNIT_WEIGHTS, 2)
    report = measure(fixture_a, dec)
    assert rank_decompositions([(dec, report), (dec, report)]) == dec


def _eager_rank(candidates, top_k):
    """The ranking rule with every candidate serialized up front."""
    keyed = [
        (report.coupling, -report.cohesion, decomposition_to_json(d), report.complexity, d)
        for d, report in candidates
    ]
    keyed.sort(key=lambda item: item[:3])
    return min(keyed[:top_k], key=lambda item: (item[3], item[2]))[4]


def test_rank_equals_the_eagerly_serialized_ranking():
    # Search grids repeat partitions under other weights, so candidates tie
    # on coupling and cohesion, at the top_k cut and on complexity.
    rng = random.Random(20261021)
    cut_ties = 0
    for _ in range(60):
        model = random_model(rng, max_entities=7, max_functionalities=5)
        size = len(model.entities)
        candidates = search_candidates(
            model, rng.choice((0.5, 0.25)), sorted(rng.sample(range(1, size + 1), min(3, size)))
        )
        rng.shuffle(candidates)
        keys = sorted((r.coupling, -r.cohesion) for _, r in candidates)
        for top_k in {1, rng.randint(1, len(candidates)), len(candidates), 100}:
            if top_k < len(candidates) and keys[top_k - 1] == keys[top_k]:
                cut_ties += 1
            winner = rank_decompositions(candidates, top_k)
            assert decomposition_to_json(winner) == decomposition_to_json(
                _eager_rank(candidates, top_k)
            )
    assert cut_ties > 20


def test_report_tsv_shape(fixture_a, fixture_a_decomposition):
    text = report_tsv(measure(fixture_a, fixture_a_decomposition))
    lines = text.splitlines()
    assert lines[0] == "cluster\tentities\tfunctionalities\tcohesion\tcoupling\tcomplexity"
    assert len(lines) == 4
    row = lines[1].split("\t")
    assert row[0] == "Cluster0"
    assert row[1] == "2"
    assert row[3] == "0.833333"
