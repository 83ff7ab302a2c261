"""End-to-end command-line behavior, exit codes, and output stability."""

from __future__ import annotations

import gc
import io
import json
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import FIXTURE_A_ACCESSES, TOPIC_QUESTION_ACCESSES, TOPIC_QUESTION_STRUCTURE

from mono2ddd import cli
from mono2ddd import cml as cml_mod

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "accesses.json").write_text(FIXTURE_A_ACCESSES)
    (tmp_path / "tq_accesses.json").write_text(TOPIC_QUESTION_ACCESSES)
    (tmp_path / "tq_structure.dsl").write_text(TOPIC_QUESTION_STRUCTURE)
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_writes_partition(workdir, capsys):
    code, out, err = run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["params"]["n"] == 2
    assert doc["clusters"] == {"Cluster0": ["A", "B"], "Cluster1": ["C", "D"]}


def test_pipeline_decompose_sagas_to_cml(workdir, capsys):
    accesses = str(workdir / "accesses.json")
    dec = workdir / "dec.json"
    sagas = workdir / "sagas.json"

    code, _, err = run(
        capsys, "decompose", "--accesses", accesses, "-n", "2", "-o", str(dec)
    )
    assert code == 0, err

    code, out, err = run(
        capsys,
        "sagas",
        "--accesses",
        accesses,
        "--decomposition",
        str(dec),
        "-o",
        str(sagas),
    )
    assert code == 0, err
    # The reduction table goes to stdout while the JSON goes to the file.
    assert out.splitlines()[0] == "name\tclusters\tCGI\tFGI\treduction%"
    assert "f4\t2\t2\t3\t33.33" in out
    assert json.loads(sagas.read_text())["sagas"]

    code, out, err = run(
        capsys,
        "to-cml",
        "--accesses",
        accesses,
        "--decomposition",
        str(dec),
        "--sagas",
        str(sagas),
    )
    assert code == 0, err
    assert out == (GOLDEN / "fixture_a.cml").read_text()


def test_to_cml_computes_sagas_when_omitted(workdir, capsys):
    dec = workdir / "dec.json"
    run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
        "-o",
        str(dec),
    )
    code, out, err = run(
        capsys,
        "to-cml",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
    )
    assert code == 0, err
    assert out == (GOLDEN / "fixture_a.cml").read_text()


@pytest.mark.parametrize("multi_step", [True, False], ids=["multi-step", "single-step"])
def test_to_cml_rejects_an_unknown_orchestrator(workdir, capsys, multi_step):
    accesses = str(workdir / "accesses.json")
    dec = workdir / "dec.json"
    sagas = workdir / "sagas.json"
    run(capsys, "decompose", "--accesses", accesses, "-n", "2", "-o", str(dec))
    run(capsys, "sagas", "--accesses", accesses, "--decomposition", str(dec), "-o", str(sagas))
    doc = json.loads(sagas.read_text())
    saga = next(s for s in doc["sagas"] if (len(s["steps"]) > 1) == multi_step)
    saga["orchestrator"] = "Nope"
    sagas.write_text(json.dumps(doc))
    code, out, err = run(
        capsys,
        "to-cml",
        "--accesses",
        accesses,
        "--decomposition",
        str(dec),
        "--sagas",
        str(sagas),
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: saga {saga['functionality']!r} names unknown orchestrator 'Nope'\n"
    )


def _sagas_file(workdir, capsys):
    """The sagas of fixture A's two-cluster decomposition, as a JSON document."""
    accesses = str(workdir / "accesses.json")
    dec = workdir / "dec.json"
    sagas = workdir / "sagas.json"
    run(capsys, "decompose", "--accesses", accesses, "-n", "2", "-o", str(dec))
    run(capsys, "sagas", "--accesses", accesses, "--decomposition", str(dec), "-o", str(sagas))
    return json.loads(sagas.read_text())


def _to_cml_with_sagas(workdir, capsys, doc):
    (workdir / "sagas.json").write_text(json.dumps(doc))
    return run(
        capsys,
        "to-cml",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(workdir / "dec.json"),
        "--sagas",
        str(workdir / "sagas.json"),
    )


def test_to_cml_rejects_a_functionality_with_two_sagas(workdir, capsys):
    doc = _sagas_file(workdir, capsys)
    repeated = next(s for s in doc["sagas"] if len(s["steps"]) > 1)
    doc["sagas"].append(repeated)
    code, out, err = _to_cml_with_sagas(workdir, capsys, doc)
    assert (code, out) == (1, "")
    assert err == f"error: functionality {repeated['functionality']!r} has more than one saga\n"


def test_to_cml_rejects_a_saga_for_an_unknown_functionality(workdir, capsys):
    doc = _sagas_file(workdir, capsys)
    ghost = dict(next(s for s in doc["sagas"] if len(s["steps"]) > 1), functionality="ghost")
    doc["sagas"].append(ghost)
    code, out, err = _to_cml_with_sagas(workdir, capsys, doc)
    assert (code, out) == (1, "")
    assert err == "error: saga 'ghost' is for a functionality the model does not have\n"


def test_to_cml_with_structure_matches_golden(workdir, capsys):
    dec = workdir / "dec.json"
    run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "tq_accesses.json"),
        "--structure",
        str(workdir / "tq_structure.dsl"),
        "-n",
        "2",
        "-o",
        str(dec),
    )
    code, out, err = run(
        capsys,
        "to-cml",
        "--accesses",
        str(workdir / "tq_accesses.json"),
        "--structure",
        str(workdir / "tq_structure.dsl"),
        "--decomposition",
        str(dec),
    )
    assert code == 0, err
    assert out == (GOLDEN / "topic_question.cml").read_text()


def _to_cml_then_dot(workdir, capsys, structure, clusters):
    """`to-cml` on the topic/question traces; if it writes a file, `diagram` reads it."""
    (workdir / "kw_structure.dsl").write_text(structure)
    (workdir / "kw_dec.json").write_text(json.dumps({"clusters": clusters}))
    out = workdir / "kw.cml"
    code, _, err = run(
        capsys,
        "to-cml",
        "--accesses",
        str(workdir / "tq_accesses.json"),
        "--structure",
        str(workdir / "kw_structure.dsl"),
        "--decomposition",
        str(workdir / "kw_dec.json"),
        "-o",
        str(out),
    )
    if out.exists():
        dot_code, _, dot_err = run(capsys, "diagram", "--format", "dot", "--cml", str(out))
        assert dot_code == 0, dot_err
    return code, err


def test_to_cml_refuses_a_keyword_attribute_type(workdir, capsys):
    # The reader takes a keyword at the start of an entity member for a block.
    structure = "entity Topic {\n    attr x: Entity;\n}\nentity Question {\n}\n"
    clusters = {"Cluster0": ["Question"], "Cluster1": ["Topic"]}
    code, err = _to_cml_then_dot(workdir, capsys, structure, clusters)
    assert code == 1
    assert "attribute type 'Entity' is a keyword" in err
    assert not (workdir / "kw.cml").exists()


def test_to_cml_refuses_a_keyword_relationship_upstream(workdir, capsys):
    # Topic refers to Question, so Question's cluster is the upstream side.
    structure = "entity Topic {\n    ref question -> Question;\n}\nentity Question {\n}\n"
    clusters = {"contains": ["Question"], "Other": ["Topic"]}
    code, err = _to_cml_then_dot(workdir, capsys, structure, clusters)
    assert code == 1
    assert "context name 'contains' is a keyword" in err
    assert not (workdir / "kw.cml").exists()
    # A keyword elsewhere reads back, so it is written.
    clusters = {"Other": ["Question"], "contains": ["Topic"]}
    code, err = _to_cml_then_dot(workdir, capsys, structure, clusters)
    assert code == 0, err


_REFERENCE_NAMED_STRUCTURE = (
    "entity Topic {\n}\nentity Question {\n}\nentity Question_Reference {\n}\n"
)
_REFERENCE_NAMED_CLUSTERS = {"C0": ["Question"], "C1": ["Topic", "Question_Reference"]}


def test_to_cml_refuses_a_placeholder_named_like_an_entity(workdir, capsys):
    # Topic's reference needs a Question_Reference placeholder in C1, which
    # already holds a real entity of that name.
    structure = _REFERENCE_NAMED_STRUCTURE.replace(
        "entity Topic {\n", "entity Topic {\n    ref question -> Question;\n"
    )
    code, err = _to_cml_then_dot(workdir, capsys, structure, _REFERENCE_NAMED_CLUSTERS)
    assert code == 1
    assert "context 'C1'" in err and "'Question_Reference'" in err
    assert not (workdir / "kw.cml").exists()


def _reference_named_cml(workdir, capsys):
    """A generated document whose real entity Question_Reference is in C1."""
    code, err = _to_cml_then_dot(
        workdir, capsys, _REFERENCE_NAMED_STRUCTURE, _REFERENCE_NAMED_CLUSTERS
    )
    assert code == 0, err
    return str(workdir / "kw.cml")


def test_cml_merge_keeps_a_real_entity_named_like_a_placeholder(workdir, capsys):
    cml = _reference_named_cml(workdir, capsys)
    code, out, err = run(capsys, "cml", "merge", "--in", cml, "-a", "C0", "-b", "C1")
    assert code == 0, err
    merged = cml_mod.parse_document(out).context("C0_C1")
    names = [e.name for agg in merged.aggregates for e in agg.entities]
    assert names == ["Question", "Question_Reference", "Topic"]


@pytest.mark.parametrize("a, b", [("C1", "C2"), ("C2", "C1")])
def test_cml_merge_refuses_a_placeholder_named_like_an_entity(workdir, capsys, a, b):
    # Quiz's reference gives C2 a Question_Reference placeholder, and C1
    # holds a real entity of that name: the merged context would have both.
    structure = _REFERENCE_NAMED_STRUCTURE + "entity Quiz {\n    ref question -> Question;\n}\n"
    clusters = dict(_REFERENCE_NAMED_CLUSTERS, C2=["Quiz"])
    code, err = _to_cml_then_dot(workdir, capsys, structure, clusters)
    assert code == 0, err
    cml = str(workdir / "kw.cml")
    code, out, err = run(capsys, "cml", "merge", "--in", cml, "-a", a, "-b", b)
    assert code == 1
    assert f"context '{a}_{b}'" in err and "'Question_Reference'" in err
    assert out == ""


_TWO_E0_CML = """BoundedContext A {
    Aggregate AAggregate {
        Entity E0 { }
    }
}

BoundedContext B {
    Aggregate BAggregate {
        Entity E0 { }
    }
}
"""


# An aggregate that lists Entity A twice: the parser reads it, and only
# ``validate_document`` reports the duplicate.
_TWICE_A_CML = """BoundedContext C {
    Aggregate G {
        Entity A {
            String x
        }
        Entity A { }
        Entity B { }
    }
}
"""


@pytest.mark.parametrize("a, b", [("A", "B"), ("B", "A")])
def test_cml_merge_refuses_two_real_entities_of_one_name(workdir, capsys, a, b):
    # Each context may hold its own E0; the merged context cannot hold both.
    assert cml_mod.validate_document(cml_mod.parse_document(_TWO_E0_CML)) == []
    cml = workdir / "two.cml"
    cml.write_text(_TWO_E0_CML)
    code, out, err = run(capsys, "cml", "merge", "--in", str(cml), "-a", a, "-b", b)
    assert code == 1
    assert f"context '{a}_{b}'" in err and "'E0'" in err
    assert out == ""


def test_cml_split_refuses_an_aggregate_listing_an_entity_twice(workdir, capsys):
    cml, out = workdir / "twice.cml", workdir / "split.cml"
    cml.write_text(_TWICE_A_CML)
    code, _, err = run(
        capsys, "cml", "split", "--in", str(cml), "--context", "C", "--parts", "A/B",
        "-o", str(out),
    )
    assert code == 1
    assert err == "error: aggregate 'G' lists entity 'A' twice\n"
    assert not out.exists()


def test_cml_split_accepts_a_real_entity_named_like_a_placeholder(workdir, capsys):
    cml = _reference_named_cml(workdir, capsys)
    code, out, err = run(
        capsys, "cml", "split", "--in", cml, "--context", "C1",
        "--parts", "Question_Reference/Topic",
    )
    assert code == 0, err
    parts = cml_mod.parse_document(out).context("C1").aggregates
    assert [[(e.name, e.aggregate_root) for e in a.entities] for a in parts] == [
        [("Question_Reference", True)],
        [("Topic", True)],
    ]


def test_assess_reports_measures(workdir, capsys):
    dec = workdir / "dec.json"
    run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
        "-o",
        str(dec),
    )
    code, out, err = run(
        capsys,
        "assess",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "cluster\tentities\tfunctionalities\tcohesion\tcoupling\tcomplexity"
    assert lines[1] == "Cluster0\t2\t3\t0.833333\t0.500000\t1.333333"
    assert lines[2] == "Cluster1\t2\t3\t0.666667\t0.500000\t1.333333"
    assert lines[3] == "(decomposition)\t4\t\t0.750000\t0.500000\t1.000000"


def test_assess_single_cluster_zero_coupling(workdir, capsys):
    dec = workdir / "dec.json"
    run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "1",
        "-o",
        str(dec),
    )
    code, out, _ = run(
        capsys,
        "assess",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
    )
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[4] == "0.000000"
    assert row[5] == "0.000000"


def test_search_finds_low_coupling_partition(workdir, capsys):
    candidates = workdir / "candidates.tsv"
    code, out, err = run(
        capsys,
        "search",
        "--accesses",
        str(workdir / "accesses.json"),
        "--step",
        "1.0",
        "--n",
        "2",
        "--candidates",
        str(candidates),
    )
    assert code == 0, err
    doc = json.loads(out)
    # Oracle-checked: the write-only weights land complexity 0, which wins
    # the final pick once every candidate fits in the default short list.
    assert doc["params"]["weights"] == [0.0, 1.0, 0.0, 0.0]
    assert doc["clusters"] == {"Cluster0": ["A", "B", "C"], "Cluster1": ["D"]}
    table = candidates.read_text().splitlines()
    assert table[0] == "weights\tn\tcohesion\tcoupling\tcomplexity"
    # Four weight vectors at step 1.0, one n value each.
    assert len(table) == 5


def test_search_top_one_keeps_lowest_coupling(workdir, capsys):
    code, out, err = run(
        capsys,
        "search",
        "--accesses",
        str(workdir / "accesses.json"),
        "--step",
        "1.0",
        "--n",
        "2",
        "--top",
        "1",
    )
    assert code == 0, err
    doc = json.loads(out)
    # Oracle-checked: both coupling-0.5 candidates describe the same split,
    # and the serialized tie-break keeps the sequence-weights one.
    assert doc["params"]["weights"] == [0.0, 0.0, 0.0, 1.0]
    assert doc["clusters"] == {"Cluster0": ["A", "B"], "Cluster1": ["C", "D"]}


def test_search_writes_nothing_when_ranking_fails(workdir, capsys):
    candidates, best = workdir / "c.tsv", workdir / "best.json"
    code, out, err = run(
        capsys, "search", "--accesses", str(workdir / "accesses.json"), "--step", "1.0",
        "--n", "2", "--top", "0", "--candidates", str(candidates), "-o", str(best),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not candidates.exists() and not best.exists()


def test_search_to_one_path_keeps_the_decomposition(workdir, capsys):
    both = workdir / "both.json"
    args = ("search", "--accesses", str(workdir / "accesses.json"), "--step", "1.0", "--n", "2")
    code, out, err = run(capsys, *args)
    assert code == 0, err
    code, _, err = run(capsys, *args, "--candidates", str(both), "-o", str(both))
    assert code == 0, err
    assert both.read_text(encoding="utf-8") == out


def test_search_is_reproducible(workdir, capsys):
    args = (
        "search",
        "--accesses",
        str(workdir / "accesses.json"),
        "--step",
        "0.5",
        "--n",
        "2,3",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second



@pytest.mark.parametrize(
    "command",
    [["assess"], ["sagas"], ["to-cml"], ["to-cml", "--sagas"], ["diagram", "--format", "dot"]],
    ids=["assess", "sagas", "to-cml", "to-cml-sagas", "diagram-dot"],
)
def test_decomposition_missing_a_traced_entity_exits_one(workdir, capsys, command):
    # The handlers leave the fit rule to the library function each calls.
    accesses = str(workdir / "accesses.json")
    if command[-1] == "--sagas":
        # Sagas of a full decomposition with the same cluster names, so the
        # sagas file itself passes.
        full = workdir / "full.json"
        full.write_text('{"clusters": {"Cluster0": ["A", "B"], "Cluster1": ["C", "D"]}}')
        sagas = workdir / "sagas.json"
        code, _, err = run(
            capsys, "sagas", "--accesses", accesses, "--decomposition", str(full), "-o", str(sagas)
        )
        assert code == 0, err
        command = [*command, str(sagas)]
    dec = workdir / "partial.json"
    dec.write_text('{"clusters": {"Cluster0": ["A", "B"], "Cluster1": ["C"]}}')
    code, out, err = run(capsys, *command, "--accesses", accesses, "--decomposition", str(dec))
    assert (code, out) == (1, "")
    assert err == "error: entity 'D' is not mapped to a cluster\n"


_DECOMPOSITION_COMMANDS = {
    "assess": ["assess"],
    "sagas": ["sagas"],
    "to-cml": ["to-cml"],
    "diagram": ["diagram", "--format", "dot"],
}


@pytest.mark.parametrize("command", sorted(_DECOMPOSITION_COMMANDS))
@pytest.mark.parametrize(
    ("clusters", "message"),
    [
        (
            '{"Cluster0": ["A", "B"], "Cluster1": ["C"]}',
            "entity 'D' is not mapped to a cluster",
        ),
        (
            '{"Cluster0": ["A", "B"], "Cluster1": ["C", "D", "Zed"]}',
            "decomposition names entity 'Zed', which the model does not have",
        ),
    ],
    ids=["unmapped-traced-entity", "unknown-entity"],
)
def test_every_subcommand_checks_the_decomposition(
    workdir, capsys, command, clusters, message
):
    dec = workdir / "bad_dec.json"
    dec.write_text(f'{{"clusters": {clusters}}}')
    code, _, err = run(
        capsys,
        *_DECOMPOSITION_COMMANDS[command],
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
    )
    assert code == 1
    assert err == f"error: {message}\n"


# A tab, and line boundaries that str.splitlines knows beyond "\n".
_TSV_BREAKING_NAMES = ("a\tb\nc", "cr\rlf", "form\x0cfeed", "group\x1dsep", "next\x85line", "par\u2029")


@pytest.mark.parametrize("name", _TSV_BREAKING_NAMES)
def test_a_name_that_would_break_a_tsv_row_exits_one(workdir, capsys, name):
    accesses = workdir / "named.json"
    trace = [["A", "R"], ["B", "W"]]
    accesses.write_text(json.dumps({"functionalities": [{"name": name, "trace": trace}]}))
    plain, named = workdir / "plain.json", workdir / "named_dec.json"
    plain.write_text('{"clusters": {"C0": ["A"], "C1": ["B"]}}')
    named.write_text(json.dumps({"clusters": {"C0": ["A"], name: ["B"]}}))
    model = ["--accesses", str(accesses)]
    sagas = workdir / "sagas.json"

    code, out, err = run(capsys, "sagas", *model, "--decomposition", str(plain), "-o", str(sagas))
    assert (code, out) == (1, "")
    assert err == f"error: functionality name {name!r} cannot be a TSV field\n"
    assert not sagas.exists()
    code, out, err = run(capsys, "assess", *model, "--decomposition", str(named))
    assert (code, out) == (1, "")
    assert err == f"error: cluster name {name!r} cannot be a TSV field\n"
    # With the JSON on stdout no table is written, and JSON quotes any name.
    code, out, err = run(capsys, "sagas", *model, "--decomposition", str(plain), "-o", "-")
    assert code == 0, err
    assert json.loads(out)["sagas"][0]["functionality"] == name


@pytest.mark.parametrize(
    ("params", "message"),
    [
        ('{"weights": ["x", 0, 0, 0]}', "params.weights must be a list of four numbers"),
        ('{"weights": [null, 0, 0, 1]}', "params.weights must be a list of four numbers"),
        ("[1, 0, 0, 0]", "'params' must be an object"),
        ('{"weights": [NaN, 0, 0, 1]}', "weight out of range: nan"),
    ],
    ids=["string-weight", "null-weight", "params-not-an-object", "nan-weight"],
)
def test_unusable_decomposition_params_exit_one(workdir, capsys, params, message):
    dec = workdir / "bad_params.json"
    dec.write_text(f'{{"params": {params}, "clusters": {{"C0": ["A", "B", "C", "D"]}}}}')
    code, _, err = run(
        capsys,
        "assess",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
    )
    assert code == 1
    assert err == f"error: {message}\n"


def test_decompose_rejects_nan_weights(workdir, capsys):
    code, out, err = run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "--weights",
        "nan,0,0,1",
        "-n",
        "2",
    )
    assert (code, out) == (1, "")
    assert err == "error: weight out of range: nan\n"


def test_structure_only_entity_left_out_of_decomposition(workdir, capsys):
    # An untraced entity may be left out; to-cml then fails on the
    # reference to it, not on the decomposition check.
    structure = workdir / "extra.dsl"
    structure.write_text(
        "entity Topic {\n    ref extra -> Extra;\n}\n"
        "entity Question {\n    attr title: String;\n}\n"
        "entity Extra {\n    attr note: String;\n}\n"
    )
    dec = workdir / "dec.json"
    dec.write_text('{"clusters": {"Cluster0": ["Topic"], "Cluster1": ["Question"]}}')
    args = [
        "--accesses",
        str(workdir / "tq_accesses.json"),
        "--structure",
        str(structure),
        "--decomposition",
        str(dec),
    ]
    code, _, err = run(capsys, "assess", *args)
    assert code == 0, err
    code, _, err = run(capsys, "to-cml", *args)
    assert code == 1
    assert err == "error: reference target 'Extra' not found in any context\n"


@pytest.mark.parametrize("step", ["nan", "inf", "0.0001"])
def test_search_rejects_unusable_steps(workdir, capsys, step):
    code, _, err = run(
        capsys,
        "search",
        "--accesses",
        str(workdir / "accesses.json"),
        "--step",
        step,
    )
    assert code == 1
    assert err.startswith("error:")

def test_diagram_dot_from_decomposition(workdir, capsys):
    dec = workdir / "dec.json"
    run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
        "-o",
        str(dec),
    )
    code, out, err = run(
        capsys,
        "diagram",
        "--format",
        "dot",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
    )
    assert code == 0, err
    assert '"Cluster0" -- "Cluster1" [label="2"];' in out


def test_diagram_bpmn_from_cml(workdir, capsys):
    cml = workdir / "model.cml"
    cml.write_text((GOLDEN / "fixture_a.cml").read_text())
    code, out, err = run(
        capsys,
        "diagram",
        "--format",
        "bpmn",
        "--cml",
        str(cml),
        "--coordination",
        "f4",
    )
    assert code == 0, err
    assert out == "Cluster1: rC\nCluster0: wA_rB\n"


def test_diagram_dot_requires_a_cml_or_a_decomposition(capsys):
    code, out, err = run(capsys, "diagram", "--format", "dot")
    assert (code, out) == (1, "")
    assert err == "error: --format dot needs either --cml or --accesses with --decomposition\n"


def test_diagram_bpmn_requires_coordination(workdir, capsys):
    cml = workdir / "model.cml"
    cml.write_text((GOLDEN / "fixture_a.cml").read_text())
    code, _, err = run(capsys, "diagram", "--format", "bpmn", "--cml", str(cml))
    assert code == 1
    assert "error:" in err


def test_cml_merge_demotes_single_step_coordinations(workdir, capsys):
    cml = workdir / "model.cml"
    cml.write_text((GOLDEN / "fixture_a.cml").read_text())
    code, out, err = run(
        capsys,
        "cml",
        "merge",
        "--in",
        str(cml),
        "-a",
        "Cluster0",
        "-b",
        "Cluster1",
    )
    assert code == 0, err
    assert "BoundedContext Cluster0_Cluster1 {" in out
    assert "void rA_wC();" in out
    assert "void rC_wA_rB();" in out
    assert "Coordination" not in out


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.cml")))
@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
def test_cml_merge_reads_any_line_ending(workdir, capsys, golden, line_end):
    text = (GOLDEN / golden).read_text()
    # A stray character a few lines down, to compare error positions.
    lines = text.split("\n")
    stray = "\n".join(lines[:5] + ["    @"] + lines[5:])
    results = {}
    for name, ending in (("lf", "\n"), ("other", line_end)):
        for kind, source in (("merge", text), ("stray", stray)):
            path = workdir / f"{kind}_{name}.cml"
            path.write_bytes(source.replace("\n", ending).encode("utf-8"))
            out = workdir / f"{kind}_{name}.out"
            code, _, err = run(
                capsys, "cml", "merge", "--in", str(path),
                "-a", "Cluster0", "-b", "Cluster1", "-o", str(out),
            )
            results[kind, name] = code, err, out.read_bytes() if code == 0 else None
    assert results["merge", "lf"][0] == 0
    assert results["merge", "other"] == results["merge", "lf"]
    assert results["stray", "lf"][:2] == (
        1, "error: line 6, column 5: unexpected character '@'\n"
    )
    assert results["stray", "other"] == results["stray", "lf"]


def test_cml_split_renames_aggregates(workdir, capsys):
    cml = workdir / "model.cml"
    cml.write_text((GOLDEN / "fixture_a.cml").read_text())
    code, out, err = run(
        capsys,
        "cml",
        "split",
        "--in",
        str(cml),
        "--context",
        "Cluster0",
        "--parts",
        "A/B",
    )
    assert code == 0, err
    assert "Aggregate Cluster0Aggregate_1 {" in out
    assert "Aggregate Cluster0Aggregate_2 {" in out


def test_stamp_prepends_comment(workdir, capsys):
    dec = workdir / "dec.json"
    run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
        "-o",
        str(dec),
    )
    code, out, _ = run(
        capsys,
        "to-cml",
        "--accesses",
        str(workdir / "accesses.json"),
        "--decomposition",
        str(dec),
        "--stamp",
    )
    assert code == 0
    assert re.fullmatch(r"// generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", out.split("\n", 1)[0])
    # Everything after the stamp line is the stable document.
    rest = out.split("\n", 1)[1]
    assert rest == (GOLDEN / "fixture_a.cml").read_text()


def test_missing_file_exits_one(capsys):
    code, _, err = run(
        capsys, "decompose", "--accesses", "/nonexistent.json", "-n", "2"
    )
    assert code == 1
    assert err.startswith("error:")


def test_bad_json_exits_one(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "decompose", "--accesses", str(bad), "-n", "2")
    assert code == 1
    assert "error:" in err


# A stray byte, a cut two-byte sequence, and a surrogate encoded as UTF-8 bytes.
_UNDECODABLE = (b"\xff\xfe{}", b'{"functionalities": [\xc3(]}', b'[" \xed\xa0\x80"]')


def _lines_reading(workdir, bad: str):
    """A command line per input option, each reading ``bad`` through that option."""
    accesses = ["--accesses", str(workdir / "accesses.json")]
    decomposition = ["--decomposition", str(workdir / "dec.json")]
    yield ["decompose", "--accesses", bad, "-n", "2"]
    yield ["search", *accesses, "--structure", bad]
    yield ["assess", *accesses, "--decomposition", bad]
    yield ["sagas", *accesses, *decomposition, "--structure", bad]
    yield ["to-cml", *accesses, *decomposition, "--sagas", bad]
    yield ["diagram", "--format", "dot", "--cml", bad]
    yield ["diagram", "--format", "bpmn", "--cml", bad, "--coordination", "f"]
    yield ["cml", "merge", "--in", bad, "-a", "A", "-b", "B"]
    yield ["cml", "split", "--in", bad, "--context", "A", "--parts", "A/B"]


@pytest.mark.parametrize("data", _UNDECODABLE)
def test_an_undecodable_input_file_exits_one(workdir, capsys, data):
    dec = workdir / "dec.json"
    assert run(capsys, "decompose", "--accesses", str(workdir / "accesses.json"), "-n", "2",
               "-o", str(dec))[0] == 0
    bad = workdir / "bad"
    bad.write_bytes(data)
    for argv in _lines_reading(workdir, str(bad)):
        code, out, err = run(capsys, *argv, "-o", str(workdir / "out"))
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode"), err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (workdir / "out").exists()


def test_undecodable_stdin_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), "utf-8"))
    code, out, err = run(capsys, "decompose", "--accesses", "-", "-n", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read -: 'utf-8' codec can't decode byte 0xff")


def _surrogate_inputs(workdir):
    """An accesses file whose first functionality is named with a lone
    surrogate, and two decompositions, one with such a cluster name."""
    trace = [["A", "R"], ["B", "W"]]
    doc = {"functionalities": [{"name": "f\ud800", "trace": trace}, {"name": "g", "trace": trace}]}
    (workdir / "lone.json").write_text(json.dumps(doc))
    (workdir / "plain_dec.json").write_text('{"clusters": {"C0": ["A"], "C1": ["B"]}}')
    (workdir / "lone_dec.json").write_text('{"clusters": {"C0": ["A"], "C\\ud800": ["B"]}}')
    return ["--accesses", str(workdir / "lone.json")]


@pytest.mark.parametrize(
    "command", [["assess"], ["diagram", "--format", "dot"]], ids=["assess", "diagram"]
)
def test_an_unencodable_name_exits_one_and_writes_no_file(workdir, capsys, command):
    model = _surrogate_inputs(workdir)
    argv = [*command, *model, "--decomposition", str(workdir / "lone_dec.json")]
    out_file = workdir / "out"
    code, out, err = run(capsys, *argv, "-o", str(out_file))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {out_file}: 'utf-8' codec can't encode")
    assert not out_file.exists()
    # Stdout, strict UTF-8 under capture, refuses the name before anything is written.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write stdout: 'utf-8' codec can't encode")


def test_sagas_writes_no_json_when_stdout_refuses_the_table(workdir, capsys):
    model = _surrogate_inputs(workdir)
    sagas = workdir / "sagas.json"
    dec = ["--decomposition", str(workdir / "plain_dec.json")]
    code, out, err = run(capsys, "sagas", *model, *dec, "-o", str(sagas))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write stdout: 'utf-8' codec can't encode")
    assert not sagas.exists()
    # The JSON escapes the name, so on its own it is written.
    code, out, err = run(capsys, "sagas", *model, *dec, "-o", "-")
    assert code == 0, err
    assert json.loads(out)["sagas"][0]["functionality"] == "f\ud800"


def test_unknown_flag_exits_one(workdir, capsys):
    code, _, err = run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
        "--frobnicate",
    )
    assert code == 1
    assert "usage" in err.lower() or "unrecognized" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, "transmogrify")
    assert code == 1
    code, out, err = run(capsys, "cml", "bogus")
    assert (code, out) == (1, "")
    assert err.startswith("mono2ddd cml: argument cml_command: invalid choice: 'bogus'")
    assert "\nusage: mono2ddd cml " in err


def test_internal_fault_exits_two(workdir, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(cli, "_cmd_decompose", boom)
    code, _, err = run(
        capsys,
        "decompose",
        "--accesses",
        str(workdir / "accesses.json"),
        "-n",
        "2",
    )
    assert code == 2
    assert err.startswith("internal error:")


# (decompose arguments, fault the handler raises, exit code or exception)
EXIT_PATHS = [
    pytest.param(["accesses.json", "-n", "2"], None, 0, id="success"),
    pytest.param(["accesses.json", "-n", "x"], None, 1, id="usage-error"),
    pytest.param(["missing.json", "-n", "2"], None, 1, id="bad-input"),
    pytest.param(["accesses.json", "-n", "2"], RuntimeError("synthetic fault"), 2,
                 id="internal-fault"),
    pytest.param(["accesses.json", "-n", "2"], BrokenPipeError(), 0, id="broken-pipe"),
    pytest.param(["accesses.json", "-n", "2"], KeyboardInterrupt(), KeyboardInterrupt,
                 id="interrupt"),
]


@pytest.mark.parametrize("collector_on", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("args, fault, expected", EXIT_PATHS)
def test_main_pauses_the_collector_and_restores_it(
    workdir, capsys, monkeypatch, collector_on, args, fault, expected
):
    handler_saw = []
    real_handler = cli._cmd_decompose

    def handler(namespace):
        handler_saw.append(gc.isenabled())
        if fault is not None:
            raise fault
        return real_handler(namespace)

    monkeypatch.setattr(cli, "_cmd_decompose", handler)
    monkeypatch.chdir(workdir)
    argv = ["decompose", "--accesses", *args]
    if not collector_on:
        gc.disable()
    try:
        if expected is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
        else:
            assert cli.main(argv) == expected
        assert gc.isenabled() is collector_on
    finally:
        gc.enable()
    capsys.readouterr()
    # A usage error is refused before any handler runs.
    assert handler_saw == ([] if args[-1] == "x" else [False])


def test_console_script_runs_in_subprocess(workdir):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "mono2ddd.cli",
            "decompose",
            "--accesses",
            str(workdir / "accesses.json"),
            "-n",
            "2",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["params"]["n"] == 2
