"""Parsing and validation of the accesses and structure inputs."""

from __future__ import annotations

import pytest

from mono2ddd.errors import ContractError, DslParseError
from mono2ddd.ingest import (
    accesses_to_json,
    parse_accesses,
    parse_model,
    parse_structure,
    parse_structure_json,
    structure_to_json,
    validate_model,
)
from mono2ddd.model import Access, EntityStructure, Functionality, MonolithModel, Reference


def test_parse_accesses_preserves_order():
    fs = parse_accesses(
        '{"functionalities": [{"name": "f", "trace": [["B", "R"], ["A", "W"], ["B", "W"]]}]}'
    )
    assert [a.entity for a in fs[0].trace] == ["B", "A", "B"]
    assert [a.mode for a in fs[0].trace] == ["R", "W", "W"]


def test_parse_accesses_expands_rw():
    fs = parse_accesses('{"functionalities": [{"name": "f", "trace": [["A", "RW"]]}]}')
    assert fs[0].trace == (Access("A", "R"), Access("A", "W"))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "malformed JSON"),
        ("[]", "expected dict"),
        ('{"functionalities": 3}', "functionalities"),
        ('{"functionalities": [{"trace": [["A","R"]]}]}', "name"),
        ('{"functionalities": [{"name": "f", "trace": []}]}', "empty trace"),
        ('{"functionalities": [{"name": "f", "trace": [["A"]]}]}', "trace[0]"),
        ('{"functionalities": [{"name": "f", "trace": [["A", "X"]]}]}', "unknown access mode"),
        ('{"functionalities": [{"name": "", "trace": [["A", "R"]]}]}', "empty functionality name"),
    ],
)
def test_parse_accesses_rejects_bad_documents(text, fragment):
    with pytest.raises(ContractError) as err:
        parse_accesses(text)
    assert fragment in str(err.value)


def test_parse_accesses_rejects_duplicate_names():
    doc = (
        '{"functionalities": ['
        '{"name": "f", "trace": [["A", "R"]]},'
        '{"name": "f", "trace": [["B", "R"]]}]}'
    )
    with pytest.raises(ContractError) as err:
        parse_accesses(doc)
    assert "duplicate functionality" in str(err.value)


DSL = """\
# two entities
entity Topic extends Content {
    attr name: String;
    ref question -> Question;
}

entity Question { }
"""


def test_parse_structure_dsl():
    entities = parse_structure(DSL)
    assert [e.name for e in entities] == ["Topic", "Question"]
    topic = entities[0]
    assert topic.attributes[0].name == "name"
    assert topic.attributes[0].type == "String"
    kinds = {(r.field, r.target): r.kind for r in topic.references}
    assert kinds[("super", "Content")] == "inheritance"
    assert kinds[("question", "Question")] == "association"


def test_parse_structure_dsl_is_whitespace_insensitive():
    squeezed = parse_structure("entity A{attr x:int;ref y->B;}entity B{}")
    spaced = parse_structure("entity A {\n  attr x : int ;\n  ref y -> B ;\n}\nentity B { }")
    assert squeezed == spaced


DSL_ERRORS = [
    ("entity {", 1, 8, "entity name"),
    ("entity A (", 1, 10, "'{'"),
    ("entity A {\n  attr x int;\n}", 2, 10, "':'"),
    ("entity A {\n  ref x - B;\n}", 2, 9, "'->'"),
    ("entity A {\n  bogus;\n}", 2, 3, "'attr', 'ref'"),
    ("x", 1, 1, "expected 'entity', got 'x'"),
    ("entity A { }\nentity A { }", 2, 8, "duplicate entity"),
    # The name's own line and column, not the keyword's column on it.
    ("entity A { }\n    entity\nA { }", 3, 1, "duplicate entity 'A'"),
    ("entity A {\n  attr x: int;\n  attr x: int;\n}", 1, 1, "duplicate field"),
    ("entity A {\n  attr x: int;\n  ref x -> B;\n}", 1, 1, "duplicate field name 'x' in entity 'A'"),
    # At the end of input an error points at the last token.
    ("entity", 1, 1, "unexpected end of input (expected more input)"),
    ("entity A extends", 1, 10, "unexpected end of input (expected more input)"),
    ("entity A {\n", 1, 10, "unexpected end of input (expected more input)"),
    ("entity A { attr x", 1, 17, "unexpected end of input (expected :)"),
    ("entity A { ref r -> B", 1, 21, "unexpected end of input (expected ;)"),
    ("entity A { # }\n# }\n", 1, 10, "unexpected end of input (expected more input)"),
    # Comments are skipped, and count as lines.
    ("# head\nentity A {\n  attr x: int\n}", 4, 1, "expected ';', got '}'"),
    ("entity A { } # c\n  entity B { ] }", 2, 14, "expected 'attr', 'ref' or '}', got ']'"),
    ("entity A { } #\x0c entity B { ] }", 2, 13, "expected 'attr', 'ref' or '}', got ']'"),
    # Lines end where str.splitlines ends them.
    ("entity A { }\r\nentity B {\r\n  ref r B;\r\n}\r\n", 3, 9, "expected '->', got 'B'"),
    ("entity A { }\u2028entity B {\u2028  attr 1: x;\u2028}", 3, 8,
     "expected attribute name, got '1'"),
    ("entity A {}\x1centity B {\x85attr x: y z;}", 3, 11, "expected ';', got 'z'"),
]


# A case's name leaves its column out, so the cases that checked only the
# line kept their names when the column was added.
@pytest.mark.parametrize(
    "text,line,column,fragment",
    DSL_ERRORS,
    ids=[f"{text}-{line}-{fragment}" for text, line, _, fragment in DSL_ERRORS],
)
def test_parse_structure_dsl_reports_position(text, line, column, fragment):
    with pytest.raises(DslParseError) as err:
        parse_structure(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value).startswith(f"line {line}, column {column}: ")
    assert fragment in str(err.value)


def test_parse_structure_json_rejects_unknown_kind():
    doc = (
        '{"entities": [{"name": "A", "references":'
        ' [{"field": "x", "target": "B", "kind": "composition"}]}]}'
    )
    with pytest.raises(ContractError) as err:
        parse_structure_json(doc)
    assert "unknown reference kind" in str(err.value)


@pytest.mark.parametrize(
    "doc,location",
    [
        ('{"entities": [{"name": "A", "attributes": 5}]}', "entities[0].attributes"),
        ('{"entities": [{"name": "A", "attributes": null}]}', "entities[0].attributes"),
        ('{"entities": [{"name": "A", "attributes": "ab"}]}', "entities[0].attributes"),
        ('{"entities": [{"name": "A", "references": 5}]}', "entities[0].references"),
        ('{"entities": [{"name": "A"}, {"name": "B", "references": null}]}',
         "entities[1].references"),
        ('{"entities": [{"name": "A", "references": {"f": "B"}}]}', "entities[0].references"),
    ],
)
def test_parse_structure_json_rejects_fields_that_are_not_lists(doc, location):
    with pytest.raises(ContractError) as err:
        parse_structure_json(doc)
    assert err.value.location == location
    assert "expected list" in str(err.value)


def test_structure_autodetect_picks_json():
    entities = parse_structure('  {"entities": [{"name": "A"}]}')
    assert entities == [EntityStructure("A")]


def test_validate_model_synthesizes_accessed_entities():
    model = validate_model([Functionality("f", (Access("A", "R"), Access("B", "W")))])
    assert model.entity_names() == ("A", "B")
    assert any("synthesized" in w for w in model.warnings)


def test_validate_model_synthesizes_reference_targets():
    structures = [EntityStructure("A", references=(Reference("x", "Ghost"),))]
    model = validate_model([Functionality("f", (Access("A", "R"),))], structures)
    assert "Ghost" in model.entity_names()


def test_validate_model_synthesizes_each_missing_target_once():
    structures = [
        EntityStructure("A", references=(Reference("x", "Ghost"),)),
        EntityStructure("B", references=(Reference("y", "Ghost"),)),
        EntityStructure("C", references=(Reference("z", "Seen"),)),
    ]
    trace = (Access("A", "R"), Access("Seen", "W"))
    model = validate_model([Functionality("f", trace)], structures)
    assert model.warnings == (
        "entity 'Seen' accessed but not declared; synthesized",
        "entity 'Ghost' referenced by 'A' but not declared; synthesized",
    )
    assert model.entities == (
        *structures,
        EntityStructure("Ghost"),
        EntityStructure("Seen"),
    )


def test_validate_model_keeps_first_duplicate():
    structures = [
        EntityStructure("A", attributes=()),
        EntityStructure("A", references=(Reference("x", "A"),)),
    ]
    model = validate_model([Functionality("f", (Access("A", "R"),))], structures)
    assert model.structure("A").references == ()
    assert any("duplicate entity" in w for w in model.warnings)
    with pytest.raises(KeyError):
        model.structure("Nowhere")


def test_a_model_rejects_two_functionalities_with_one_name():
    f = Functionality("f", (Access("A", "R"),))
    again = Functionality("f", (Access("B", "W"),))
    entities = (EntityStructure("A"), EntityStructure("B"))
    with pytest.raises(ValueError, match="duplicate functionality name 'f'"):
        MonolithModel(entities, (f, Functionality("g", f.trace), again))
    # validate_model keeps the first and says so.
    model = validate_model([f, again], list(entities))
    assert model.functionalities == (f,)
    assert "duplicate functionality 'f' dropped" in model.warnings


def test_validate_model_drops_second_inheritance():
    structures = [
        EntityStructure(
            "A",
            references=(
                Reference("super", "B", "inheritance"),
                Reference("super2", "C", "inheritance"),
            ),
        ),
        EntityStructure("B"),
        EntityStructure("C"),
    ]
    model = validate_model([Functionality("f", (Access("A", "R"),))], structures)
    kinds = [r.kind for r in model.structure("A").references]
    assert kinds.count("inheritance") == 1


def test_validate_model_is_a_fixpoint():
    model = parse_model(
        '{"functionalities": [{"name": "f", "trace": [["A", "R"], ["Z", "W"]]}]}',
        "entity A { ref other -> Missing; }",
    )
    again = validate_model(model.functionalities, model.entities)
    assert again.entities == model.entities
    assert again.functionalities == model.functionalities


def test_serialization_round_trips():
    model = parse_model(
        '{"functionalities": [{"name": "f", "trace": [["A", "RW"], ["B", "R"]]}]}',
        DSL,
    )
    assert parse_accesses(accesses_to_json(model)) == list(model.functionalities)
    reparsed = validate_model(
        model.functionalities, parse_structure(structure_to_json(model))
    )
    assert reparsed.entities == model.entities
