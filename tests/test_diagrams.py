"""DOT and BPMN text exports."""

from __future__ import annotations

import random

import pytest

from dotcheck import DotSyntaxError, check_dot
from helpers import UNIT_WEIGHTS, random_model, random_partition

from mono2ddd.cml import emit_document, parse_document
from mono2ddd.dddmap import build_ddd_model
from mono2ddd.decompose import Decomposition, decompose
from mono2ddd.diagrams import coordination_bpmn, decomposition_dot, document_dot
from mono2ddd.errors import DecompositionError, MappingError
from mono2ddd.saga import refactor_model


def _document(model, decomposition):
    sagas = [s for s, _ in refactor_model(model, decomposition)]
    return parse_document(emit_document(build_ddd_model(model, decomposition, sagas)))


def test_decomposition_dot_counts_shared_functionalities(fixture_a, fixture_a_decomposition):
    dot = decomposition_dot(fixture_a, fixture_a_decomposition)
    check_dot(dot)
    assert dot.startswith('graph "ContextMap" {')
    assert '"Cluster0";' in dot
    assert '"Cluster1";' in dot
    # f3 and f4 each touch both clusters.
    assert '"Cluster0" -- "Cluster1" [label="2"];' in dot


def test_decomposition_dot_single_cluster(fixture_a):
    dot = decomposition_dot(fixture_a, decompose(fixture_a, UNIT_WEIGHTS, 1))
    check_dot(dot)
    assert "--" not in dot


def test_decomposition_dot_rejects_a_traced_entity_in_no_cluster(fixture_a):
    dec = Decomposition(UNIT_WEIGHTS, 2, (("C0", ("A", "C")), ("C1", ("D",))))
    with pytest.raises(DecompositionError, match="entity 'B' is not mapped to a cluster"):
        decomposition_dot(fixture_a, dec)


def test_document_dot_directed_edges(topic_question, topic_question_decomposition):
    doc = _document(topic_question, topic_question_decomposition)
    dot = document_dot(doc)
    check_dot(dot)
    assert dot.startswith('digraph "ContextMap" {')
    assert '"Cluster0" -> "Cluster1";' in dot


def test_bpmn_lane_per_step(fixture_a, fixture_a_decomposition):
    doc = _document(fixture_a, fixture_a_decomposition)
    assert coordination_bpmn(doc, "f4") == "Cluster1: rC\nCluster0: wA_rB\n"
    assert coordination_bpmn(doc, "f3") == "Cluster0: rA\nCluster1: wC\n"


def test_bpmn_unknown_coordination(fixture_a, fixture_a_decomposition):
    doc = _document(fixture_a, fixture_a_decomposition)
    with pytest.raises(MappingError, match="f9"):
        coordination_bpmn(doc, "f9")


def test_random_dot_outputs_are_well_formed():
    rng = random.Random(20240825)
    for _ in range(40):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        check_dot(decomposition_dot(model, dec))
        check_dot(document_dot(_document(model, dec)))


def test_dotcheck_rejects_garbage():
    with pytest.raises(DotSyntaxError):
        check_dot('graph { "A" -> "B"; }')
    with pytest.raises(DotSyntaxError):
        check_dot("not dot at all")
