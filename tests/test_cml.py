"""Text emission, parsing, validation, and the two context refactorings."""

from __future__ import annotations

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_ddd_model, replace

from mono2ddd.cml import (
    KEYWORDS,
    REFERENCE_COMMENT,
    CmlAggregate,
    CmlAttribute,
    CmlBoundedContext,
    CmlContextMap,
    CmlCoordination,
    CmlDocument,
    CmlEntity,
    CmlOperation,
    CmlReference,
    CmlRelationship,
    CmlService,
    CmlStep,
    _LINE_BREAKS,
    emit_document,
    external_share,
    merge_bounded_contexts,
    parse_document,
    split_aggregate,
    validate_document,
)
from mono2ddd.dddmap import build_ddd_model
from mono2ddd.errors import CmlEmitError, CmlParseError, RefactorError
from mono2ddd.saga import refactor_model

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _render(model, decomposition, **kwargs):
    sagas = [s for s, _ in refactor_model(model, decomposition)]
    return emit_document(build_ddd_model(model, decomposition, sagas, **kwargs))


def test_fixture_a_golden_bytes(fixture_a, fixture_a_decomposition):
    expected = (GOLDEN / "fixture_a.cml").read_text()
    assert _render(fixture_a, fixture_a_decomposition) == expected


def test_topic_question_golden_bytes(topic_question, topic_question_decomposition):
    expected = (GOLDEN / "topic_question.cml").read_text()
    assert _render(topic_question, topic_question_decomposition) == expected


def test_empty_map_renders_inline():
    doc = CmlDocument(CmlContextMap("Decomposition"), ())
    assert emit_document(doc) == "ContextMap Decomposition { }\n"


def test_emission_is_deterministic(fixture_a, fixture_a_decomposition):
    first = _render(fixture_a, fixture_a_decomposition)
    second = _render(fixture_a, fixture_a_decomposition)
    assert first == second


def test_golden_files_round_trip():
    for name in ("fixture_a.cml", "topic_question.cml"):
        text = (GOLDEN / name).read_text()
        doc = parse_document(text)
        assert validate_document(doc) == []
        assert emit_document(doc) == text


def test_parse_preserves_structure(fixture_a, fixture_a_decomposition):
    doc = parse_document(_render(fixture_a, fixture_a_decomposition))
    assert doc.context_map.name == "Decomposition"
    assert doc.context_map.contains == ("Cluster0", "Cluster1")
    c0 = doc.context("Cluster0")
    service = c0.services[0]
    assert service.name == "Cluster0Service"
    assert [op.name for op in service.operations] == ["rwA_wB", "rA", "wA_rB"]
    coordination = c0.coordinations[0]
    assert coordination.name == "f3"
    assert coordination.steps[0].context == "Cluster0"
    assert coordination.steps[0].operation == "rA"
    aggregate = c0.aggregates[0]
    entity = aggregate.entities[0]
    assert entity.name == "A"
    assert entity.aggregate_root
    assert entity.comments == ("accesses: external 66.67% (2/3), local 66.67% (2/3)",)


def test_comments_survive_round_trip():
    text = (
        "// document header\n"
        "ContextMap M {\n"
        "    contains Ctx\n"
        "}\n"
        "\n"
        "BoundedContext Ctx {\n"
        "    Aggregate Agg {\n"
        "        // first note\n"
        "        // second note\n"
        "        Entity E {\n"
        "            aggregateRoot\n"
        "            String name\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    doc = parse_document(text)
    entity = doc.context("Ctx").aggregates[0].entities[0]
    assert entity.comments == ("first note", "second note")
    assert emit_document(doc) == text


def test_parse_reports_line_and_column():
    with pytest.raises(CmlParseError) as err:
        parse_document("ContextMap M {\n    contains ,\n}\n")
    assert err.value.line == 2


def test_unknown_block_is_outside_subset():
    text = "BoundedContext C {\n    EventFlow F { }\n}\n"
    with pytest.raises(CmlParseError, match="outside supported subset"):
        parse_document(text)


def test_two_segment_step_rejected():
    text = (
        "BoundedContext C {\n"
        "    Application {\n"
        "        Coordination K {\n"
        "            C::op;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    with pytest.raises(CmlParseError, match="::"):
        parse_document(text)


@pytest.mark.parametrize(
    "text",
    [
        "ContextMap {\n}\n",
        "ContextMap M {\n    contains\n}\n",
        "BoundedContext C {\n    Aggregate A {\n        Entity { }\n    }\n}\n",
        "BoundedContext C {\n    Aggregate A {\n",
        "ContextMap M { } trailing",
        "ContextMap M {\n    A [U]-[D]\n}\n",
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(CmlParseError):
        parse_document(text)


def test_whitespace_that_no_token_follows_is_read_once():
    # A scan that retried such a run from each of its characters would take
    # hours here; before a comment and at the end the reader reads it once.
    blanks = " \t\n" * 300_000
    doc = parse_document(f"{blanks}BoundedContext A {{ }}{blanks}// c{blanks}")
    assert doc == CmlDocument(None, (CmlBoundedContext("A"),), ("c",))


def test_emit_rejects_bad_identifiers():
    doc = CmlDocument(CmlContextMap("has space"), ())
    with pytest.raises(CmlEmitError):
        emit_document(doc)


@pytest.mark.parametrize("line_break", _LINE_BREAKS)
def test_emit_rejects_a_comment_with_any_line_break(line_break):
    # The reader ends a comment at every `str.splitlines` boundary, not only "\n".
    entity = CmlEntity("E", comments=(f"x{line_break}y",))
    doc = CmlDocument(None, (CmlBoundedContext("C", aggregates=(CmlAggregate("A", (entity,)),)),))
    with pytest.raises(CmlEmitError, match="line break"):
        emit_document(doc)


@pytest.mark.parametrize("comment", [" x", "x ", " x ", "\tx", " "])
def test_emit_rejects_a_comment_the_reader_would_strip(comment):
    doc = CmlDocument(None, (CmlBoundedContext("A", comments=(comment,)),))
    with pytest.raises(CmlEmitError, match="whitespace at an end"):
        emit_document(doc)


def test_emit_rejects_keywords_only_where_they_would_open_a_line():
    # Each keyword is first written where it is a name, which must not let it
    # pass where it would start a line.
    attribute = CmlEntity("E", attributes=(CmlAttribute("Entity", "x"),))
    context = CmlBoundedContext("C", aggregates=(CmlAggregate("A", (attribute,)),))
    with pytest.raises(CmlEmitError, match="attribute type 'Entity' is a keyword"):
        emit_document(CmlDocument(CmlContextMap("M", ("Entity",)), (context,)))
    upstream = CmlContextMap("M", ("contains",), (CmlRelationship("contains", "B"),))
    with pytest.raises(CmlEmitError, match="context name 'contains' is a keyword"):
        emit_document(CmlDocument(upstream, ()))
    # Everywhere else a keyword is read back as a name.
    names = CmlEntity("Entity", attributes=(CmlAttribute("String", "void"),))
    elsewhere = CmlDocument(
        CmlContextMap("contains", ("Entity",), (CmlRelationship("B", "contains"),)),
        (CmlBoundedContext("Aggregate", aggregates=(CmlAggregate("Entity", (names,)),)),),
    )
    assert parse_document(emit_document(elsewhere)) == elsewhere


_ROUND_TRIP = settings(max_examples=300, derandomize=True, deadline=None)
# Mostly identifiers, often keywords, seldom no identifier at all.
_NAME = st.sampled_from(
    ["A", "B", "Order", "x_1", "_y", "Cluster0"] * 8 + sorted(KEYWORDS) + ["", "9a", "a b"]
)
# Stripped, as the reader strips them; some hold line breaks.
_COMMENT = st.sampled_from(["", "note", "a b", "//x"]) | st.text(
    "ab /" + "".join(_LINE_BREAKS), max_size=5
).map(str.strip)


def _tuples(strategy, size=2):
    return st.lists(strategy, max_size=size).map(tuple)


_DOCUMENT = st.builds(
    CmlDocument,
    st.none()
    | st.builds(
        CmlContextMap,
        _NAME,
        _tuples(_NAME),
        _tuples(st.builds(CmlRelationship, _NAME, _NAME, _tuples(_COMMENT))),
        _tuples(_COMMENT),
    ),
    _tuples(
        st.builds(
            CmlBoundedContext,
            _NAME,
            _tuples(
                st.builds(
                    CmlService, _NAME, _tuples(st.builds(CmlOperation, _NAME, _tuples(_COMMENT))), _tuples(_COMMENT)
                )
            ),
            _tuples(
                st.builds(
                    CmlCoordination,
                    _NAME,
                    _tuples(st.builds(CmlStep, _NAME, _NAME, _NAME, _tuples(_COMMENT))),
                    _tuples(_COMMENT),
                )
            ),
            _tuples(
                st.builds(
                    CmlAggregate,
                    _NAME,
                    _tuples(
                        st.builds(
                            CmlEntity,
                            _NAME,
                            st.booleans(),
                            _tuples(st.builds(CmlAttribute, _NAME, _NAME, _tuples(_COMMENT))),
                            _tuples(st.builds(CmlReference, _NAME, _NAME, _tuples(_COMMENT))),
                            _tuples(_COMMENT),
                        )
                    ),
                    _tuples(_COMMENT),
                )
            ),
            _tuples(_COMMENT),
        )
    ),
    _tuples(_COMMENT),
)


@_ROUND_TRIP
@given(_DOCUMENT)
def test_emit_writes_only_what_parse_reads_back(doc):
    try:
        text = emit_document(doc)
    except CmlEmitError:
        return
    assert parse_document(text) == doc


def test_validate_flags_problems():
    text = (
        "ContextMap M {\n"
        "    contains Ghost\n"
        "    A [U]-[D] A\n"
        "    A [U]-[D] Nowhere\n"
        "}\n"
        "\n"
        "BoundedContext A {\n"
        "    Application {\n"
        "        Service S {\n"
        "            void other();\n"
        "        }\n"
        "        Coordination K {\n"
        "            A::S::missing;\n"
        "            A::T::other;\n"
        "        }\n"
        "    }\n"
        "    Aggregate Agg {\n"
        "        Entity E {\n"
        "            aggregateRoot\n"
        "        }\n"
        "        Entity F {\n"
        "            aggregateRoot\n"
        "        }\n"
        "    }\n"
        "    Aggregate Other {\n"
        "        Entity E {\n"
        "        }\n"
        "    }\n"
        "}\n"
        "\n"
        "BoundedContext A { }\n"
    )
    problems = validate_document(parse_document(text))
    joined = "\n".join(problems)
    assert "duplicate bounded context" in joined
    assert "unknown context 'Ghost'" in joined
    assert "relationship" in joined
    assert "aggregateRoot" in joined or "root" in joined
    assert "unknown operation A::S::missing" in joined
    assert "unknown service A::T" in joined
    assert "relationship endpoint 'Nowhere' is not declared" in joined
    assert "duplicate entity 'E' in context 'A'" in joined


def test_validate_reports_the_first_repeated_operation_once():
    service = CmlService("S", tuple(CmlOperation(name) for name in "abba"))
    doc = CmlDocument(None, (CmlBoundedContext("A", services=(service,)),))
    assert validate_document(doc) == ["duplicate operation 'a' in service 'S'"]


def test_validate_reports_each_repeated_coordination_once():
    # Repeated within one context and across two, with a third name in between.
    a = CmlBoundedContext("A", coordinations=tuple(map(CmlCoordination, ("g", "f", "g"))))
    b = CmlBoundedContext("B", coordinations=tuple(map(CmlCoordination, ("f", "h", "g"))))
    doc = CmlDocument(None, (a, b))
    assert validate_document(doc) == ["duplicate coordination 'g'", "duplicate coordination 'f'"]


def test_external_share_reads_stats_comment():
    entity = CmlEntity(
        "A", comments=("accesses: external 66.67% (2/3), local 66.67% (2/3)",)
    )
    assert external_share(entity) == pytest.approx(0.6667, abs=1e-9)
    assert external_share(CmlEntity("B")) == 0.0


def test_is_reference_reads_the_marker_comments_before_the_name():
    stats = "accesses: external 0.00% (0/0), local 0.00% (0/2)"
    marker = f"{REFERENCE_COMMENT} C0.Question"
    assert CmlEntity("Question_Reference").is_reference
    assert CmlEntity("Question_Reference", comments=("a note",)).is_reference
    assert CmlEntity("Anything", comments=(marker,)).is_reference
    # A stats comment marks a real entity, whatever its name or other comments.
    assert not CmlEntity("Question_Reference", comments=(stats,)).is_reference
    assert not CmlEntity("Question_Reference", comments=(marker, stats)).is_reference
    # Without a marker, a body marks a real entity too.
    assert not CmlEntity("Question_Reference", attributes=(CmlAttribute("String", "a"),)).is_reference
    assert not CmlEntity("Question").is_reference


def test_entities_and_relationships_are_derived_not_stored():
    x, y, z = CmlEntity("X"), CmlEntity("Y"), CmlEntity("Z")
    ctx = CmlBoundedContext("C", aggregates=(CmlAggregate("A", (x, y)), CmlAggregate("B", (z,))))
    assert ctx.entities == (x, y, z)
    assert CmlBoundedContext("Empty").entities == ()
    rel = CmlRelationship("C", "D")
    doc = CmlDocument(CmlContextMap("M", ("C",), (rel,)), (ctx,))
    assert doc.relationships == (rel,)
    assert CmlDocument(None, (ctx,)).relationships == ()
    # Properties are not fields: equality and replace see only the fields.
    assert CmlBoundedContext.__slots__ == (
        "name", "services", "coordinations", "aggregates", "comments"
    )
    assert replace(doc, context_map=None).relationships == ()


def _fixture_doc(model, decomposition, **kwargs):
    return parse_document(_render(model, decomposition, **kwargs))


def test_merge_fixture_a(fixture_a, fixture_a_decomposition):
    doc = _fixture_doc(fixture_a, fixture_a_decomposition)
    merged = merge_bounded_contexts(doc, "Cluster0", "Cluster1")
    assert validate_document(merged) == []
    assert [c.name for c in merged.contexts] == ["Cluster0_Cluster1"]
    ctx = merged.context("Cluster0_Cluster1")

    # Both aggregates survive with their entities.
    assert [a.name for a in ctx.aggregates] == ["Cluster0Aggregate", "Cluster1Aggregate"]
    assert {e.name for a in ctx.aggregates for e in a.entities} == {"A", "B", "C", "D"}

    # Every step now lives in one context, so both coordinations collapse to a
    # single step and are demoted to plain service operations.
    assert ctx.coordinations == ()
    ops = {op.name for s in ctx.services for op in s.operations}
    assert "rA_wC" in ops
    assert "rC_wA_rB" in ops

    # The map has a single member and no relationships.
    assert merged.context_map.contains == ("Cluster0_Cluster1",)
    assert merged.context_map.relationships == ()


def test_merge_collapses_reference_placeholder(topic_question, topic_question_decomposition):
    doc = _fixture_doc(topic_question, topic_question_decomposition)
    merged = merge_bounded_contexts(doc, "Cluster0", "Cluster1")
    assert validate_document(merged) == []
    ctx = merged.context("Cluster0_Cluster1")
    entities = {e.name: e for a in ctx.aggregates for e in a.entities}
    assert "Question_Reference" not in entities
    topic = entities["Topic"]
    assert [(r.target, r.name) for r in topic.references] == [("Question", "question")]
    assert merged.context_map.relationships == ()


def test_merge_keeps_unrelated_context(fixture_a):
    text = (
        "ContextMap M {\n"
        "    contains A, B, C\n"
        "    A [U]-[D] C\n"
        "    A [U]-[D] B\n"
        "}\n"
        "\n"
        "BoundedContext A { }\n"
        "\n"
        "BoundedContext B { }\n"
        "\n"
        "BoundedContext C { }\n"
    )
    merged = merge_bounded_contexts(parse_document(text), "A", "B")
    assert [c.name for c in merged.contexts] == ["A_B", "C"]
    assert merged.context_map.contains == ("A_B", "C")
    rels = merged.context_map.relationships
    assert [(r.upstream, r.downstream) for r in rels] == [("A_B", "C")]


def test_merge_renames_colliding_aggregates():
    text = (
        "BoundedContext A {\n"
        "    Aggregate Agg {\n"
        "        Entity E {\n"
        "            aggregateRoot\n"
        "        }\n"
        "    }\n"
        "}\n"
        "\n"
        "BoundedContext B {\n"
        "    Aggregate Agg {\n"
        "        Entity F {\n"
        "            aggregateRoot\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    merged = merge_bounded_contexts(parse_document(text), "A", "B")
    ctx = merged.context("A_B")
    assert [a.name for a in ctx.aggregates] == ["Agg", "Agg_2"]


def test_merge_readdressed_steps_in_other_contexts():
    text = (
        "BoundedContext A {\n"
        "    Application {\n"
        "        Service S {\n"
        "            void opA();\n"
        "        }\n"
        "    }\n"
        "}\n"
        "\n"
        "BoundedContext B {\n"
        "    Application {\n"
        "        Service T {\n"
        "            void opB();\n"
        "        }\n"
        "    }\n"
        "}\n"
        "\n"
        "BoundedContext C {\n"
        "    Application {\n"
        "        Service U {\n"
        "            void opC();\n"
        "        }\n"
        "        Coordination K {\n"
        "            A::S::opA;\n"
        "            C::U::opC;\n"
        "            B::T::opB;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    merged = merge_bounded_contexts(parse_document(text), "A", "B")
    assert validate_document(merged) == []
    steps = merged.context("C").coordinations[0].steps
    assert [(s.context, s.operation) for s in steps] == [
        ("A_B", "opA"),
        ("C", "opC"),
        ("A_B", "opB"),
    ]


def test_merge_collapses_adjacent_steps_from_other_context():
    text = (
        "BoundedContext A {\n"
        "    Application {\n"
        "        Service S {\n"
        "            void opA();\n"
        "        }\n"
        "    }\n"
        "}\n"
        "\n"
        "BoundedContext B {\n"
        "    Application {\n"
        "        Service T {\n"
        "            void opB();\n"
        "        }\n"
        "    }\n"
        "}\n"
        "\n"
        "BoundedContext C {\n"
        "    Application {\n"
        "        Service U {\n"
        "            void opC();\n"
        "        }\n"
        "        Coordination K {\n"
        "            A::S::opA;\n"
        "            B::T::opB;\n"
        "            C::U::opC;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    merged = merge_bounded_contexts(parse_document(text), "A", "B")
    assert validate_document(merged) == []
    steps = merged.context("C").coordinations[0].steps
    assert [(s.context, s.operation) for s in steps] == [
        ("A_B", "opA_opB"),
        ("C", "opC"),
    ]
    # The concatenated operation was added to the merged context's service.
    ops = {op.name for s in merged.context("A_B").services for op in s.operations}
    assert "opA_opB" in ops


@pytest.mark.parametrize(
    "a,b,match",
    [
        ("Cluster0", "Cluster0", "itself"),
        ("Cluster0", "Nope", "Nope"),
    ],
)
def test_merge_argument_errors(fixture_a, fixture_a_decomposition, a, b, match):
    doc = _fixture_doc(fixture_a, fixture_a_decomposition)
    with pytest.raises(RefactorError, match=match):
        merge_bounded_contexts(doc, a, b)


def test_split_fixture_a(fixture_a, fixture_a_decomposition):
    doc = _fixture_doc(fixture_a, fixture_a_decomposition)
    split = split_aggregate(doc, "Cluster0", [["A"], ["B"]])
    assert validate_document(split) == []
    ctx = split.context("Cluster0")
    assert [a.name for a in ctx.aggregates] == [
        "Cluster0Aggregate_1",
        "Cluster0Aggregate_2",
    ]
    first, second = ctx.aggregates
    assert [e.name for e in first.entities] == ["A"]
    assert first.entities[0].aggregate_root
    # B becomes the root of its own aggregate even with a 0% share.
    assert second.entities[0].aggregate_root
    # The untouched context is byte-identical.
    assert split.context("Cluster1") == doc.context("Cluster1")


def test_split_elects_roots_by_external_share(topic_question, topic_question_decomposition):
    doc = _fixture_doc(topic_question, topic_question_decomposition)
    split = split_aggregate(doc, "Cluster1", [["Topic", "Question_Reference"]])
    ctx = split.context("Cluster1")
    part = ctx.aggregates[0]
    roots = [e.name for e in part.entities if e.aggregate_root]
    assert roots == ["Topic"]


@pytest.mark.parametrize(
    "partition,match",
    [
        ([["A"]], "missing"),
        ([["A", "B"], ["B"]], "overlap"),
        ([["A"], []], "non-empty"),
        ([["A"], ["Ghost"]], "Ghost"),
    ],
)
def test_split_partition_errors(fixture_a, fixture_a_decomposition, partition, match):
    doc = _fixture_doc(fixture_a, fixture_a_decomposition)
    with pytest.raises(RefactorError, match=match):
        split_aggregate(doc, "Cluster0", partition)


def test_split_refuses_an_aggregate_listing_an_entity_twice():
    first = CmlEntity("A", attributes=(CmlAttribute("String", "x"),))
    aggregate = CmlAggregate("G", (first, CmlEntity("A"), CmlEntity("B")))
    doc = CmlDocument(None, (CmlBoundedContext("C", aggregates=(aggregate,)),))
    assert validate_document(doc) == ["duplicate entity 'A' in context 'C'"]
    with pytest.raises(RefactorError, match="^aggregate 'G' lists entity 'A' twice$"):
        split_aggregate(doc, "C", [["A"], ["B"]])


def test_split_requires_single_aggregate(fixture_a, fixture_a_decomposition):
    doc = _fixture_doc(fixture_a, fixture_a_decomposition)
    once = split_aggregate(doc, "Cluster0", [["A"], ["B"]])
    with pytest.raises(RefactorError, match="exactly one"):
        split_aggregate(once, "Cluster0", [["A"], ["B"]])


def test_random_ddd_documents_round_trip():
    rng = random.Random(20240823)
    for _ in range(40):
        doc = random_ddd_model(rng)
        text = emit_document(doc)
        reparsed = parse_document(text)
        assert reparsed == doc
        assert emit_document(reparsed) == text
        assert validate_document(doc) == []


def test_merge_then_revalidate_on_random_documents():
    rng = random.Random(20240824)
    merged_any = False
    for _ in range(40):
        doc = random_ddd_model(rng)
        if len(doc.contexts) < 2:
            continue
        a, b = (c.name for c in doc.contexts[:2])
        merged = merge_bounded_contexts(doc, a, b)
        assert validate_document(merged) == [], emit_document(merged)
        # Merging must be re-parseable from its own emission.
        assert parse_document(emit_document(merged)) == merged
        merged_any = True
    assert merged_any
