"""Acceptance suite: one test per shipping criterion, oracle-backed.

Every numeric expectation is either hand-enumerable from the fixture traces
or recomputed by the independent evaluators in oracles.py; tolerances are
pinned at 1e-9 and each criterion carries its own wall-clock budget.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

import pytest

from dotcheck import check_dot
from helpers import UNIT_WEIGHTS, clusters_dict, random_ddd_model, random_model, random_partition
from oracles import (
    check_saga,
    oracle_cluster,
    oracle_cohesion,
    oracle_complexity,
    oracle_coupling,
    oracle_decomposition_measures,
    oracle_rank,
    serialize_candidate,
)

from mono2ddd.cml import emit_document, parse_document, validate_document
from mono2ddd.dddmap import build_ddd_model, name_operation
from mono2ddd.decompose import decompose, weight_grid
from mono2ddd.diagrams import coordination_bpmn, decomposition_dot, document_dot
from mono2ddd.ingest import parse_model
from mono2ddd.measures import (
    cohesion,
    complexity,
    coupling,
    measure,
    rank_decompositions,
    search_candidates,
)
from mono2ddd.model import Access
from mono2ddd.saga import refactor_functionality, refactor_model

TOL = 1e-9
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _sagas(model, decomposition):
    return [s for s, _ in refactor_model(model, decomposition)]


def test_criterion_1_fixture_golden_run(fixture_a):
    started = time.perf_counter()

    dec = decompose(fixture_a, UNIT_WEIGHTS, 2)
    assert clusters_dict(dec) == {"Cluster0": ("A", "B"), "Cluster1": ("C", "D")}

    clusters = clusters_dict(dec)
    assert cohesion(fixture_a, dec, "Cluster1") == pytest.approx(2 / 3, abs=TOL)
    assert coupling(fixture_a, dec, "Cluster1") == pytest.approx(1 / 2, abs=TOL)
    assert complexity(fixture_a, dec, "f3") == pytest.approx(2.0, abs=TOL)
    assert complexity(fixture_a, dec, "f4") == pytest.approx(2.0, abs=TOL)

    for name in clusters:
        assert cohesion(fixture_a, dec, name) == pytest.approx(
            oracle_cohesion(fixture_a, clusters, name), abs=TOL
        )
        assert coupling(fixture_a, dec, name) == pytest.approx(
            oracle_coupling(fixture_a, clusters, name), abs=TOL
        )
    for f in fixture_a.functionalities:
        assert complexity(fixture_a, dec, f.name) == pytest.approx(
            oracle_complexity(fixture_a, clusters, f.name), abs=TOL
        )

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 PASS: fixture golden run matches the oracle ({elapsed:.3f}s)")


def test_criterion_2_measure_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(52001)
    for _ in range(500):
        model = random_model(rng, max_entities=6, max_functionalities=6, max_trace=10)
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
        expected = oracle_decomposition_measures(model, clusters)
        assert abs(report.cohesion - expected[0]) < TOL
        assert abs(report.coupling - expected[1]) < TOL
        assert abs(report.complexity - expected[2]) < TOL
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 500 random models match the evaluator ({elapsed:.1f}s)")


def test_criterion_3_saga_safety_suite():
    started = time.perf_counter()
    rng = random.Random(52002)
    pool = [chr(ord("A") + i) for i in range(8)]
    checked = 0
    while checked < 1000:
        entities = rng.sample(pool, rng.randint(1, len(pool)))
        trace = tuple(
            Access(rng.choice(entities), rng.choice(("R", "W")))
            for _ in range(rng.randint(1, 12))
        )
        used = sorted({a.entity for a in trace})
        doc = {
            "functionalities": [
                {"name": "f", "trace": [[a.entity, a.mode] for a in trace]}
            ]
        }
        model = parse_model(json.dumps(doc))
        dec = random_partition(rng, used, rng.randint(1, min(4, len(used))))
        saga, stats = refactor_functionality(model, dec, "f")
        violations = check_saga(model.functionality("f").trace, dec.assignment(), saga)
        assert not violations, violations
        assert stats.cgi <= stats.fgi
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 3 PASS: 1000 random traces refactor safely ({elapsed:.1f}s)")


def test_criterion_4_naming_ladder():
    started = time.perf_counter()

    quiz_step = (
        Access("Quiz", "R"),
        Access("Quiz", "W"),
        Access("Question", "R"),
        Access("Question", "W"),
    )
    assert name_operation("f", 0, (Access("Tournament", "R"),), "full-trace") == (
        "rTournament"
    )
    assert name_operation("f", 0, (Access("Tournament", "W"),), "full-trace") == (
        "wTournament"
    )
    assert name_operation("f", 0, quiz_step, "full-trace") == "rwQuiz_rwQuestion"

    rng = random.Random(52003)
    heuristics = ("generic", "full-trace", "ignore-types", "ignore-order")
    for _ in range(200):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        sagas = _sagas(model, dec)
        counts = []
        for heuristic in heuristics:
            ddd = build_ddd_model(model, dec, sagas, naming=heuristic)
            counts.append(sum(len(s.operations) for c in ddd.contexts for s in c.services))
        assert counts[0] >= counts[1] >= counts[2] >= counts[3], counts
    elapsed = time.perf_counter() - started
    print(f"criterion 4 PASS: naming ladder monotone on 200 models ({elapsed:.1f}s)")


def test_criterion_5_reference_closure(topic_question, topic_question_decomposition):
    started = time.perf_counter()
    rng = random.Random(52004)
    for _ in range(200):
        model = random_model(rng, with_structure=True)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        ddd = build_ddd_model(model, dec, _sagas(model, dec))
        assert validate_document(ddd) == []
        for ctx in ddd.contexts:
            placeholders = [e for e in ctx.entities if e.is_reference]
            targets = [e.comments for e in placeholders]
            assert len(targets) == len(set(targets))
            assert all(e.name.endswith("_Reference") for e in placeholders)

    text = emit_document(
        build_ddd_model(
            topic_question,
            topic_question_decomposition,
            _sagas(topic_question, topic_question_decomposition),
        )
    )
    assert text == (GOLDEN / "topic_question.cml").read_text()
    assert "            - Question_Reference question\n" in text
    assert "        // generated reference to Cluster0.Question\n" in text
    assert "    Cluster0 [U]-[D] Cluster1\n" in text
    elapsed = time.perf_counter() - started
    print(f"criterion 5 PASS: references close on 200 models ({elapsed:.1f}s)")


def test_criterion_6_cml_round_trip():
    started = time.perf_counter()
    rng = random.Random(52005)
    for _ in range(100):
        doc = random_ddd_model(rng)
        first = emit_document(doc)
        second = emit_document(doc)
        assert first == second
        assert parse_document(first) == doc
    elapsed = time.perf_counter() - started
    print(f"criterion 6 PASS: 100 random documents round trip ({elapsed:.1f}s)")


def test_criterion_7_selection_heuristic(fixture_a):
    started = time.perf_counter()

    candidates = search_candidates(fixture_a, step=0.5, n_values=(2, 3))
    winner = rank_decompositions(candidates)

    oracle_candidates = []
    for weights in weight_grid(0.5):
        for n in (2, 3):
            parts = oracle_cluster(fixture_a, weights, n)
            ordered = sorted((sorted(p) for p in parts), key=lambda p: p[0])
            named = {f"Cluster{i}": tuple(m) for i, m in enumerate(ordered)}
            coh, coup, cpx = oracle_decomposition_measures(fixture_a, named)
            oracle_candidates.append(
                {
                    "cohesion": coh,
                    "coupling": coup,
                    "complexity": cpx,
                    "serialized": serialize_candidate(
                        weights.as_tuple(), {k: list(v) for k, v in named.items()}
                    ),
                    "weights": weights,
                    "clusters": named,
                }
            )
    expected = oracle_rank(oracle_candidates, top_k=100)

    assert winner.weights == expected["weights"]
    assert clusters_dict(winner) == expected["clusters"]
    elapsed = time.perf_counter() - started
    print(f"criterion 7 PASS: grid search matches the sort oracle ({elapsed:.1f}s)")


def test_criterion_8_degenerate_invariants(fixture_a):
    started = time.perf_counter()

    whole = decompose(fixture_a, UNIT_WEIGHTS, 1)
    report = measure(fixture_a, whole)
    assert report.coupling == 0.0
    assert report.complexity == 0.0
    assert report.clusters[0].coupling == 0.0
    assert report.clusters[0].complexity == 0.0

    singletons = decompose(fixture_a, UNIT_WEIGHTS, 4)
    assert all(len(m) == 1 for _, m in singletons.clusters)
    for name, _ in singletons.clusters:
        row = measure(fixture_a, singletons).cluster(name)
        if row.functionalities:
            assert row.cohesion == 1.0

    rng = random.Random(52006)
    for _ in range(50):
        model = random_model(rng)
        names = list(model.entity_names())
        whole = decompose(model, UNIT_WEIGHTS, 1)
        report = measure(model, whole)
        assert report.coupling == 0.0
        assert report.complexity == 0.0
        singles = decompose(model, UNIT_WEIGHTS, len(names))
        for row in measure(model, singles).clusters:
            assert len(singles.members(row.name)) == 1
            if row.functionalities:
                assert row.cohesion == 1.0
    elapsed = time.perf_counter() - started
    print(f"criterion 8 PASS: degenerate cuts behave exactly ({elapsed:.1f}s)")


def test_criterion_9_diagram_contracts(
    fixture_a, fixture_a_decomposition, topic_question, topic_question_decomposition
):
    started = time.perf_counter()
    for model, dec in (
        (fixture_a, fixture_a_decomposition),
        (topic_question, topic_question_decomposition),
    ):
        check_dot(decomposition_dot(model, dec))
        ddd = build_ddd_model(model, dec, _sagas(model, dec))
        doc = parse_document(emit_document(ddd))
        check_dot(document_dot(doc))
        for ctx in doc.contexts:
            for coordination in ctx.coordinations:
                lanes = coordination_bpmn(doc, coordination.name)
                assert len(lanes.splitlines()) == len(coordination.steps)
    elapsed = time.perf_counter() - started
    print(f"criterion 9 PASS: diagram exports hold their contracts ({elapsed:.1f}s)")
