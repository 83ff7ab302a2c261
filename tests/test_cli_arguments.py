"""The pipeline subcommands exit 0 or 1 on a mutated argument, never 2.

The CLI maps `Mono2DddError` and usage errors to exit 1 and anything else
to exit 2, so an exit 2 here is an argument or input file that crashes the
CLI. Each example writes the well-formed files of a seeded model (accesses,
structure DSL, decomposition, sagas and the generated `.cml`) and may
mutate one value or name: `decompose --weights` or `-n`; `search --step`,
`--n` or `--top`; a cluster member or name of the decomposition that
`assess`, `sagas`, `to-cml` and `diagram` read; a saga's step cluster or
orchestrator; `--orchestrator`, `--naming` or `--map-name`; or `diagram
--coordination`. An unmutated line must exit 0. The runs are derandomized,
so every run and every CI leg sees the same examples.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_model, random_partition

from mono2ddd import cli
from mono2ddd.cml import emit_document
from mono2ddd.dddmap import build_ddd_model
from mono2ddd.decompose import decomposition_to_json
from mono2ddd.saga import refactor_model, sagas_to_json

_LINES = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _structure_dsl(model) -> str:
    lines = []
    for entity in model.entities:
        lines.append(f"entity {entity.name} {{")
        lines += [f"    attr {a.name}: {a.type};" for a in entity.attributes]
        lines += [f"    ref {r.field} -> {r.target};" for r in entity.references]
        lines.append("}")
    return "\n".join(lines) + "\n"


def _scenario(seed: int) -> dict:
    """The well-formed input files of one seeded model, the JSON ones as values."""
    rng = random.Random(seed)
    model = random_model(rng, with_structure=True)
    names = sorted(model.entity_names())
    decomposition = random_partition(rng, names, rng.randint(2, min(3, len(names))))
    sagas = [saga for saga, _ in refactor_model(model, decomposition)]
    doc = build_ddd_model(model, decomposition, sagas)
    functionalities = [
        {"name": f.name, "trace": [[a.entity, a.mode] for a in f.trace]}
        for f in model.functionalities
    ]
    return {
        "entities": names,
        "accesses": {"functionalities": functionalities},
        "structure": _structure_dsl(model),
        "decomposition": json.loads(decomposition_to_json(decomposition)),
        "sagas": json.loads(sagas_to_json(sagas)),
        "cml": emit_document(doc),
        "coordinations": [c.name for ctx in doc.contexts for c in ctx.coordinations],
    }


SCENARIOS = [_scenario(seed) for seed in range(12)]

# Values that a number option or a name may be mutated to.
_VALUES = st.sampled_from(
    ["0", "1", "-1", "2", "0.5", "1.5", "-0.5", "nan", "inf", "-inf", "1e308", "1e-300"]
    + ["", " ", "x", "1,2", "0x1", "1_0", "A", "Cluster0", "a b", "Entity", "9a", "-"]
)
_NAMES = st.sampled_from(["", "Nowhere", "a b", "Entity", "9a", "Cluster0", "A", "-", "x\ty"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-lines")


_FILES = ("accesses", "structure", "decomposition", "sagas", "cml")
# The model options of every call; the decomposition may list entities
# that only the structure declares.
_MODEL = ["--accesses", "{accesses}", "--structure", "{structure}"]


def _run(workdir, scenario, argv, mutated):
    """Write the scenario's files, run ``mono2ddd <argv>`` on them, check the exit code.

    An argument ``{name}`` is the path of the file ``name``.
    """
    paths = {f"{{{name}}}": str(workdir / name) for name in (*_FILES, "out")}
    for name in _FILES:
        text = scenario[name]
        text = text if isinstance(text, str) else json.dumps(text)
        (workdir / name).write_text(text, encoding="utf-8")
    argv = [paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if not mutated:
        assert code == 0, (argv, err.getvalue())


@st.composite
def _decomposition_mutated(draw, scenario):
    """The scenario with a cluster member or name of its decomposition mutated."""
    decomposition = scenario["decomposition"]
    clusters = {name: list(members) for name, members in decomposition["clusters"].items()}
    name = draw(st.sampled_from(sorted(clusters)))
    members = clusters[name]
    mutation = draw(st.sampled_from(["rename member", "drop member", "move member", "rename"]))
    if mutation == "rename member":
        members[draw(st.integers(0, len(members) - 1))] = draw(_NAMES)
    elif mutation == "drop member":
        members.pop(draw(st.integers(0, len(members) - 1)))
    elif mutation == "move member":
        other = draw(st.sampled_from(sorted(clusters)))
        clusters[other].append(members.pop(draw(st.integers(0, len(members) - 1))))
    else:
        new = draw(_NAMES)
        clusters[new] = clusters.pop(name) + clusters.get(new, [])
    return {**scenario, "decomposition": {**decomposition, "clusters": clusters}}


@st.composite
def _scenarios(draw, mutable):
    """A scenario, and which of ``mutable`` is mutated (None for none)."""
    return draw(st.sampled_from(SCENARIOS)), draw(st.none() | st.sampled_from(mutable))


@_LINES
@given(data=st.data())
def test_decompose_exits_0_or_1(workdir, data):
    draw = data.draw
    scenario, mutation = draw(_scenarios(("--weights", "-n")))
    weights = draw(st.sampled_from(["1,0,0,0", "0.5,0.5,0,0", "0,0.25,0.25,0.5", "0,0,0,1"]))
    n = str(draw(st.integers(1, len(scenario["entities"]))))
    if mutation == "--weights":
        parts = weights.split(",")
        at = draw(st.integers(0, len(parts)))
        kind = draw(st.sampled_from(["replace", "insert", "drop"]))
        if kind == "replace" and at < len(parts):
            parts[at] = draw(_VALUES)
        elif kind == "insert":
            parts.insert(at, draw(_VALUES))
        elif at < len(parts):
            parts.pop(at)
        weights = ",".join(parts)
    elif mutation == "-n":
        n = draw(_VALUES | st.integers(-3, 10**6).map(str))
    argv = ["decompose", *_MODEL, "--weights", weights, "-n", n, "-o", "{out}"]
    _run(workdir, scenario, argv, mutation)


@_LINES
@given(data=st.data())
def test_search_exits_0_or_1(workdir, data):
    draw = data.draw
    scenario, mutation = draw(_scenarios(("--step", "--n", "--top")))
    step = draw(st.sampled_from(["1", "0.5", "0.25"]))
    counts = range(1, len(scenario["entities"]) + 1)
    n = ",".join(map(str, draw(st.lists(st.sampled_from(counts), min_size=1, max_size=3))))
    top = str(draw(st.integers(1, 200)))
    if mutation == "--step":
        step = draw(_VALUES | st.sampled_from(["0.3", "0.1", "1e-9", "5e-324", "0.5.5", "1/3"]))
    elif mutation == "--n":
        n = draw(_VALUES | st.sampled_from([",", "2,", ",2", "2,,3", "2,x", "0,2", "2,99", "-2"]))
    elif mutation == "--top":
        top = draw(_VALUES | st.integers(-3, 10**9).map(str))
    argv = ["search", *_MODEL, "--step", step, "--n", n, "--top", top]
    argv += ["--candidates", "{out}", "-o", "{out}"]
    _run(workdir, scenario, argv, mutation)


@_LINES
@given(data=st.data())
def test_assess_exits_0_or_1(workdir, data):
    draw = data.draw
    scenario, mutation = draw(_scenarios(("decomposition",)))
    if mutation:
        scenario = draw(_decomposition_mutated(scenario))
    argv = ["assess", *_MODEL, "--decomposition", "{decomposition}", "-o", "{out}"]
    _run(workdir, scenario, argv, mutation)


@_LINES
@given(data=st.data())
def test_sagas_exits_0_or_1(workdir, data):
    draw = data.draw
    scenario, mutation = draw(_scenarios(("decomposition", "--orchestrator")))
    orchestrator = draw(st.sampled_from(["first", "max-accesses"]))
    if mutation == "decomposition":
        scenario = draw(_decomposition_mutated(scenario))
    elif mutation == "--orchestrator":
        orchestrator = draw(_NAMES | st.sampled_from(["First", "max_accesses", "last"]))
    argv = ["sagas", *_MODEL, "--decomposition", "{decomposition}"]
    argv += ["--orchestrator", orchestrator, "-o", draw(st.sampled_from(["{out}", "-"]))]
    _run(workdir, scenario, argv, mutation)


@_LINES
@given(data=st.data())
def test_to_cml_exits_0_or_1(workdir, data):
    draw = data.draw
    mutable = ("decomposition", "saga cluster", "saga orchestrator", "--naming", "--map-name")
    scenario, mutation = draw(_scenarios(mutable))
    naming = draw(st.sampled_from(["generic", "full-trace", "ignore-types", "ignore-order"]))
    map_name = draw(st.sampled_from(["Decomposition", "Shop", "M_1"]))
    sagas = draw(st.booleans()) or mutation in ("saga cluster", "saga orchestrator")
    if mutation == "decomposition":
        scenario = draw(_decomposition_mutated(scenario))
    elif mutation in ("saga cluster", "saga orchestrator"):
        doc = json.loads(json.dumps(scenario["sagas"]))
        saga = draw(st.sampled_from(doc["sagas"]))
        clusters = sorted(scenario["decomposition"]["clusters"])
        name = draw(_NAMES | st.sampled_from(clusters))
        if mutation == "saga orchestrator":
            saga["orchestrator"] = name
        else:
            draw(st.sampled_from(saga["steps"]))["cluster"] = name
        scenario = {**scenario, "sagas": doc}
    elif mutation == "--naming":
        naming = draw(_NAMES | st.sampled_from(["Generic", "full_trace", "none"]))
    elif mutation == "--map-name":
        map_name = draw(_VALUES | _NAMES | st.sampled_from(["ContextMap", "contains", "_", "a-b"]))
    argv = ["to-cml", *_MODEL, "--decomposition", "{decomposition}"]
    argv += ["--sagas", "{sagas}"] if sagas else []
    argv += ["--naming", naming, "--map-name", map_name, "-o", "{out}"]
    _run(workdir, scenario, argv, mutation)


@_LINES
@given(data=st.data())
def test_diagram_exits_0_or_1(workdir, data):
    draw = data.draw
    scenario, mutation = draw(_scenarios(("decomposition", "--coordination")))
    view = draw(st.sampled_from(["bpmn", "dot from cml", "dot from decomposition"]))
    if mutation == "decomposition":
        view = "dot from decomposition"
        scenario = draw(_decomposition_mutated(scenario))
    elif mutation == "--coordination":
        view = "bpmn"
    coordinations = scenario["coordinations"]
    if view == "bpmn" and (mutation or coordinations):
        coordination = draw(st.sampled_from(coordinations)) if coordinations else ""
        if mutation:
            near = [f"{coordination}x", coordination.lower()]
            coordination = draw(_NAMES | st.sampled_from(near))
        argv = ["diagram", "--format", "bpmn", "--cml", "{cml}", "--coordination", coordination]
    elif view == "dot from decomposition":
        argv = ["diagram", "--format", "dot", *_MODEL]
        argv += ["--decomposition", "{decomposition}"]
    else:
        argv = ["diagram", "--format", "dot", "--cml", "{cml}"]
    _run(workdir, scenario, [*argv, "-o", "{out}"], mutation)
