"""Mapping decompositions and sagas onto a bounded-context model."""

from __future__ import annotations

import random

import pytest

from helpers import UNIT_WEIGHTS, random_model, random_partition

from mono2ddd.cml import (
    REFERENCE_COMMENT,
    CmlAggregate,
    CmlBoundedContext,
    CmlContextMap,
    CmlDocument,
    CmlEntity,
    CmlReference,
    CmlService,
    CmlStep,
    stats_comment,
    validate_document,
)
from mono2ddd.dddmap import NAMING_HEURISTICS, build_ddd_model, elect_root, name_operation
from mono2ddd.decompose import Decomposition
from mono2ddd.errors import DecompositionError, MappingError
from mono2ddd.model import (
    INHERITANCE,
    Access,
    Attribute,
    EntityStructure,
    MonolithModel,
    Reference,
)
from mono2ddd.saga import refactor_model


def _accesses(*pairs):
    return tuple(Access(e, m) for e, m in pairs)


@pytest.mark.parametrize(
    "accesses,heuristic,expected",
    [
        (((("Tournament", "R"),)), "full-trace", "rTournament"),
        (((("Tournament", "W"),)), "full-trace", "wTournament"),
        (
            (("Quiz", "R"), ("Quiz", "W"), ("Question", "R"), ("Question", "W")),
            "full-trace",
            "rwQuiz_rwQuestion",
        ),
        (
            (("Quiz", "R"), ("Quiz", "W"), ("Question", "R"), ("Question", "W")),
            "ignore-types",
            "acQuiz_acQuestion",
        ),
        (
            (("Quiz", "R"), ("Quiz", "W"), ("Question", "R"), ("Question", "W")),
            "ignore-order",
            "acQuestion_acQuiz",
        ),
    ],
)
def test_operation_naming_heuristics(accesses, heuristic, expected):
    assert name_operation("concludeQuiz", 1, _accesses(*accesses), heuristic) == expected


def test_generic_naming_uses_step_index():
    assert name_operation("concludeQuiz", 1, _accesses(("Quiz", "R")), "generic") == (
        "concludeQuiz_1"
    )


def test_naming_rejects_empty_step():
    with pytest.raises(MappingError):
        name_operation("f", 0, (), "full-trace")


def test_naming_rejects_an_unknown_heuristic():
    with pytest.raises(MappingError, match="unknown naming heuristic 'bogus'"):
        name_operation("f", 0, _accesses(("Quiz", "R")), "bogus")


def _fixture_sagas(model, decomposition):
    return [s for s, _ in refactor_model(model, decomposition)]


def _operations(ctx):
    return [op.name for service in ctx.services for op in service.operations]


def _entity(ctx, name):
    (entity,) = (e for e in ctx.entities if e.name == name)
    return entity


def test_stats_comments_fixture_a(fixture_a, fixture_a_decomposition):
    sagas = _fixture_sagas(fixture_a, fixture_a_decomposition)
    ddd = build_ddd_model(fixture_a, fixture_a_decomposition, sagas)
    c0, c1 = ddd.contexts
    assert [e.name for e in c0.entities] == ["A", "B"]
    # f3 and f4 are distributed and hit A twice, B once; f1 is local.
    assert _entity(c0, "A").comments == (stats_comment(2, 3, 2, 3),)
    assert _entity(c0, "B").comments == (stats_comment(1, 3, 1, 3),)
    assert stats_comment(2, 3, 2, 3) == "accesses: external 66.67% (2/3), local 66.67% (2/3)"
    assert [e.name for e in c1.entities] == ["C", "D"]
    assert _entity(c1, "C").comments == (stats_comment(2, 2, 2, 3),)
    assert _entity(c1, "D").comments == (stats_comment(0, 2, 1, 3),)
    assert stats_comment(2, 2, 0, 0) == "accesses: external 100.00% (2/2), local 0.00% (0/0)"


def test_stats_comments_with_zero_denominators():
    model = MonolithModel((EntityStructure("A"),), ())
    ddd = build_ddd_model(model, _decomposition(("Only", ("A",))), [])
    assert _entity(ddd.context("Only"), "A").comments == (
        "accesses: external 0.00% (0/0), local 0.00% (0/0)",
    )


def test_elect_root_prefers_external_share_then_name():
    assert elect_root({"B": 0.5, "A": 0.5, "C": 0.2}) == "A"
    assert elect_root({"B": 0.5, "A": 0.25, "C": 0.2}) == "B"


def test_elect_root_needs_a_candidate():
    with pytest.raises(MappingError):
        elect_root({})


def test_build_ddd_model_fixture_a(fixture_a, fixture_a_decomposition):
    sagas = _fixture_sagas(fixture_a, fixture_a_decomposition)
    ddd = build_ddd_model(fixture_a, fixture_a_decomposition, sagas)
    assert [c.name for c in ddd.contexts] == ["Cluster0", "Cluster1"]
    # Without structure there are no references, so no placeholders.
    assert ddd.relationships == ()

    c0 = ddd.context("Cluster0")
    assert [a.name for a in c0.aggregates] == ["Cluster0Aggregate"]
    assert [s.name for s in c0.services] == ["Cluster0Service"]
    assert _operations(c0) == ["rwA_wB", "rA", "wA_rB"]
    assert [e.name for e in c0.entities] == ["A", "B"]
    assert _entity(c0, "A").aggregate_root
    assert not _entity(c0, "B").aggregate_root
    assert _entity(c0, "A").comments == ("accesses: external 66.67% (2/3), local 66.67% (2/3)",)

    c1 = ddd.context("Cluster1")
    assert _operations(c1) == ["rwC_rD", "wC", "rC"]
    assert _entity(c1, "C").aggregate_root

    # f3 starts in Cluster0, so its coordination lives there.
    assert [co.name for co in c0.coordinations] == ["f3"]
    assert c0.coordinations[0].steps == (
        CmlStep("Cluster0", "Cluster0Service", "rA"),
        CmlStep("Cluster1", "Cluster1Service", "wC"),
    )
    assert [co.name for co in c1.coordinations] == ["f4"]
    assert c1.coordinations[0].steps == (
        CmlStep("Cluster1", "Cluster1Service", "rC"),
        CmlStep("Cluster0", "Cluster0Service", "wA_rB"),
    )


def test_build_ddd_model_requires_all_sagas(fixture_a, fixture_a_decomposition):
    sagas = _fixture_sagas(fixture_a, fixture_a_decomposition)
    with pytest.raises(MappingError, match="f4"):
        build_ddd_model(fixture_a, fixture_a_decomposition, sagas[:-1])


def test_build_ddd_model_rejects_unknown_heuristic(fixture_a, fixture_a_decomposition):
    sagas = _fixture_sagas(fixture_a, fixture_a_decomposition)
    with pytest.raises(MappingError, match="heuristic"):
        build_ddd_model(fixture_a, fixture_a_decomposition, sagas, naming="fancy")


def test_duplicate_operation_names_collapse(fixture_a, fixture_a_decomposition):
    sagas = _fixture_sagas(fixture_a, fixture_a_decomposition)
    ddd = build_ddd_model(
        fixture_a, fixture_a_decomposition, sagas, naming="ignore-order"
    )
    # f1 (A,B) and f4's Cluster0 step (A,B) share the name acA_acB.
    names = _operations(ddd.context("Cluster0"))
    assert names.count("acA_acB") == 1


def test_structure_carried_onto_entities(topic_question):
    # One cluster keeps Topic's reference to Question direct.
    dec = _decomposition(("Cluster0", ("Question", "Topic")))
    ddd = build_ddd_model(topic_question, dec, _fixture_sagas(topic_question, dec))
    ctx = ddd.context("Cluster0")
    assert [e.name for e in ctx.entities] == ["Question", "Topic"]
    assert [(a.type, a.name) for a in _entity(ctx, "Question").attributes] == [
        ("String", "title"),
        ("String", "content"),
    ]
    topic = _entity(ctx, "Topic")
    assert [a.name for a in topic.attributes] == ["name"]
    assert topic.references == (CmlReference("Question", "question"),)
    assert ddd.relationships == ()


def test_inheritance_reference_becomes_a_plain_one():
    model = MonolithModel(
        (
            EntityStructure("Base", (Attribute("id", "int"),)),
            EntityStructure("Sub", (), (Reference("parent", "Base", INHERITANCE),)),
        ),
        (),
    )
    ddd = build_ddd_model(model, _decomposition(("C", ("Base", "Sub"))), [])
    assert _entity(ddd.context("C"), "Sub").references == (CmlReference("Base", "parent"),)


def test_build_ddd_model_builds_placeholder(topic_question, topic_question_decomposition):
    sagas = _fixture_sagas(topic_question, topic_question_decomposition)
    ddd = build_ddd_model(topic_question, topic_question_decomposition, sagas)
    c1 = ddd.context("Cluster1")
    assert [e.name for e in c1.entities] == ["Topic", "Question_Reference"]
    placeholder = _entity(c1, "Question_Reference")
    assert placeholder.is_reference
    assert placeholder.comments == (f"{REFERENCE_COMMENT} Cluster0.Question",)
    assert _entity(c1, "Topic").references == (
        CmlReference("Question_Reference", "question"),
    )
    assert len(ddd.relationships) == 1
    rel = ddd.relationships[0]
    assert (rel.upstream, rel.downstream) == ("Cluster0", "Cluster1")
    assert rel.comments == ("reference: Topic -> Question",)
    assert validate_document(ddd) == []


def _decomposition(*clusters):
    """A decomposition over clusters given as (name, members) pairs."""
    return Decomposition(UNIT_WEIGHTS, len(clusters), clusters)


def _structure_model(*entities):
    """A model without functionalities over (name, ((field, target), ...)) pairs."""
    return MonolithModel(
        tuple(
            EntityStructure(name, (), tuple(Reference(f, t) for f, t in refs))
            for name, refs in entities
        ),
        (),
    )


def test_two_referencers_share_one_placeholder_and_relationship():
    model = _structure_model(("X", (("z", "Z"),)), ("Y", (("parent", "Z"),)), ("Z", ()))
    ddd = build_ddd_model(model, _decomposition(("Up", ("Z",)), ("Down", ("X", "Y"))), [])
    down = ddd.context("Down")
    assert [e.name for e in down.entities] == ["X", "Y", "Z_Reference"]
    placeholders = [e for e in down.entities if e.is_reference]
    assert [e.name for e in placeholders] == ["Z_Reference"]
    assert placeholders[0].comments == (f"{REFERENCE_COMMENT} Up.Z",)
    assert _entity(down, "X").references == (CmlReference("Z_Reference", "z"),)
    assert _entity(down, "Y").references == (CmlReference("Z_Reference", "parent"),)
    assert len(ddd.relationships) == 1
    rel = ddd.relationships[0]
    assert (rel.upstream, rel.downstream) == ("Up", "Down")
    assert rel.comments == ("reference: X -> Z", "reference: Y -> Z")
    assert validate_document(ddd) == []


def test_build_ddd_model_rejects_a_reference_target_in_no_cluster():
    # Ghost is declared but untraced, so a valid decomposition may leave it out.
    model = _structure_model(("Ghost", ()), ("X", (("z", "Ghost"),)))
    with pytest.raises(MappingError, match="reference target 'Ghost' not found in any context"):
        build_ddd_model(model, _decomposition(("Only", ("X",))), [])


def test_build_ddd_model_rejects_a_placeholder_named_like_an_entity():
    model = _structure_model(("X", (("z", "Z"),)), ("Z", ()), ("Z_Reference", ()))
    dec = _decomposition(("Up", ("Z",)), ("Down", ("X", "Z_Reference")))
    with pytest.raises(
        MappingError,
        match=r"context 'Down' has an entity 'Z_Reference', the name of the placeholder for Up\.Z",
    ):
        build_ddd_model(model, dec, [])


def test_build_ddd_model_rejects_a_member_the_model_lacks():
    model = _structure_model(("A", ()))
    dec = _decomposition(("C0", ("A",)), ("C1", ("Zed",)))
    with pytest.raises(
        DecompositionError, match="decomposition names entity 'Zed', which the model does not have"
    ) as err:
        build_ddd_model(model, dec, [])
    assert type(err.value) is DecompositionError


def test_build_ddd_model_rejects_a_cluster_a_later_one_empties():
    # C1 lists C0's only entity again: no such decomposition is built, so
    # none reaches the mapping.
    with pytest.raises(DecompositionError, match="^entity 'A' is listed more than once$"):
        _decomposition(("C0", ("A",)), ("C1", ("A", "B")))


def test_clusters_sharing_a_name_are_refused_before_they_are_mapped():
    # Mapped, these clusters made two contexts named C0, which
    # validate_document refuses as a duplicate bounded context.
    with pytest.raises(DecompositionError, match="^two clusters are named 'C0'$"):
        _decomposition(("C0", ("A",)), ("C0", ("B", "C")))


def _tiny_document(*contexts):
    """A context map named Map over contexts given as (name, entities) pairs."""
    return CmlDocument(
        CmlContextMap("Map", tuple(name for name, _ in contexts)),
        tuple(
            CmlBoundedContext(
                name,
                (CmlService(f"{name}Service"),),
                aggregates=(CmlAggregate(f"{name}Aggregate", tuple(entities)),),
            )
            for name, entities in contexts
        ),
    )


def test_validate_flags_references_that_escape_their_context():
    doc = _tiny_document(("Ctx", [CmlEntity("X", references=(CmlReference("Z", "z"),))]))
    assert validate_document(doc) == [
        "Ctx.X.z: reference target 'Z' is not an entity of this context"
    ]


def test_naming_ladder_is_monotone():
    rng = random.Random(20240821)
    for _ in range(60):
        model = random_model(rng)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        sagas = _fixture_sagas(model, dec)
        counts = []
        for heuristic in NAMING_HEURISTICS:
            ddd = build_ddd_model(model, dec, sagas, naming=heuristic)
            counts.append(sum(len(_operations(c)) for c in ddd.contexts))
        assert counts[0] >= counts[1] >= counts[2] >= counts[3], counts


def test_random_models_map_cleanly():
    rng = random.Random(20240822)
    for _ in range(60):
        model = random_model(rng, with_structure=True)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        sagas = _fixture_sagas(model, dec)
        ddd = build_ddd_model(model, dec, sagas)
        assert validate_document(ddd) == []
        # Every coordination step must resolve to a declared operation.
        for ctx in ddd.contexts:
            for co in ctx.coordinations:
                assert len(co.steps) > 1
                for step in co.steps:
                    target = ddd.context(step.context)
                    assert [step.service] == [s.name for s in target.services]
                    assert step.operation in _operations(target)
        # Placeholders never hold structure, are never roots, and always
        # name their owner.
        for ctx in ddd.contexts:
            for e in ctx.entities:
                if e.is_reference:
                    assert not e.attributes and not e.references
                    assert not e.aggregate_root
                    (comment,) = e.comments
                    owner_ctx, owner_entity = comment[len(REFERENCE_COMMENT) + 1 :].split(".")
                    assert any(
                        other.name == owner_entity and not other.is_reference
                        for other in ddd.context(owner_ctx).entities
                    )


def test_generated_documents_validate():
    rng = random.Random(20261018)
    for _ in range(30):
        model = random_model(rng, max_entities=10, with_structure=True)
        names = list(model.entity_names())
        dec = random_partition(rng, names, rng.randint(1, len(names)))
        sagas = _fixture_sagas(model, dec)
        naming = rng.choice(NAMING_HEURISTICS)
        assert validate_document(build_ddd_model(model, dec, sagas, naming=naming)) == []
