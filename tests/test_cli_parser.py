"""The command-line parser against a literal copy of an earlier one.

`cli.build_parser` builds the whole `argparse` tree from `_add_arguments`,
the one declaration of each subcommand's options. `eager_build_parser`
below is the parser as it was written before that declaration existed,
with every option spelled out. Help text, usage errors, exit codes and
parsed namespaces must be the same from both. `cli._quick_args`,
which reads a plain command line without `argparse`, must give the eager
parser's namespace whenever it gives one. The benchmark chains' real calls
also run here, to check that no successful call makes a reference cycle.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono2ddd import cli
from mono2ddd.cli import (
    _cmd_assess,
    _cmd_cml_merge,
    _cmd_cml_split,
    _cmd_decompose,
    _cmd_diagram,
    _cmd_sagas,
    _cmd_search,
    _cmd_to_cml,
)
from mono2ddd.dddmap import NAMING_HEURISTICS
from mono2ddd.saga import ORCHESTRATOR_POLICIES

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _add_model_arguments(parser, structure_required=False):
    parser.add_argument("--accesses", required=True, help="accesses JSON file")
    parser.add_argument(
        "--structure",
        required=structure_required,
        help="entity structure file (JSON or the mini DSL)",
    )


# The parser class `build_parser` uses, whose usage errors raise `_UsageError`.
PARSER = cli._parser_class()


def eager_build_parser() -> argparse.ArgumentParser:
    parser = PARSER(prog="mono2ddd", description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="cluster entities into one decomposition")
    _add_model_arguments(p)
    p.add_argument("--weights", default="1,0,0,0", help="access,write,read,sequence")
    p.add_argument("-n", type=int, required=True, help="number of clusters")
    p.add_argument("-o", "--output", default="-", help="decomposition JSON ('-' = stdout)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("search", help="grid-search weights and pick the best candidate")
    _add_model_arguments(p)
    p.add_argument("--step", type=float, default=0.5, help="weight grid step")
    p.add_argument("--n", default="2,3", help="comma-separated cluster counts")
    p.add_argument("--top", type=int, default=100, help="short-list size for the pick")
    p.add_argument("--candidates", help="optional TSV dump of every scored candidate")
    p.add_argument("-o", "--output", default="-", help="winning decomposition JSON")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("assess", help="measure a decomposition (TSV)")
    _add_model_arguments(p)
    p.add_argument("--decomposition", required=True, help="decomposition JSON file")
    p.add_argument("-o", "--output", default="-", help="TSV output")
    p.add_argument("--stamp", action="store_true", help="prepend a timestamp line")
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("sagas", help="refactor functionalities into sagas")
    _add_model_arguments(p)
    p.add_argument("--decomposition", required=True)
    p.add_argument(
        "--orchestrator",
        choices=ORCHESTRATOR_POLICIES,
        default="first",
        help="orchestrator pick: first step's cluster, or the most-accessed one",
    )
    p.add_argument(
        "-o",
        "--output",
        help="sagas JSON file; the reduction TSV prints to stdout ('-' = JSON to stdout)",
    )
    p.add_argument("--stamp", action="store_true", help="prepend a timestamp line")
    p.set_defaults(func=_cmd_sagas)

    p = sub.add_parser("to-cml", help="generate the DSL document")
    _add_model_arguments(p)
    p.add_argument("--decomposition", required=True)
    p.add_argument("--sagas", help="sagas JSON (computed on the fly when omitted)")
    p.add_argument("--naming", choices=NAMING_HEURISTICS, default="full-trace")
    p.add_argument("--orchestrator", choices=ORCHESTRATOR_POLICIES, default="first")
    p.add_argument("--map-name", default="Decomposition", help="ContextMap identifier")
    p.add_argument("-o", "--output", default="-", help=".cml output")
    p.add_argument("--stamp", action="store_true", help="prepend a timestamp comment")
    p.set_defaults(func=_cmd_to_cml)

    p = sub.add_parser("diagram", help="render a context map (dot) or saga lanes (bpmn)")
    p.add_argument("--format", choices=("dot", "bpmn"), required=True)
    p.add_argument("--accesses", help="accesses JSON (dot from a decomposition)")
    p.add_argument("--structure", help="entity structure file")
    p.add_argument("--decomposition", help="decomposition JSON (dot view)")
    p.add_argument("--cml", help=".cml document (dot from relationships, bpmn)")
    p.add_argument("--coordination", help="coordination name (bpmn)")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--stamp", action="store_true", help="prepend a timestamp comment")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("cml", help="refactor an existing .cml document")
    cml_sub = p.add_subparsers(dest="cml_command", required=True)

    m = cml_sub.add_parser("merge", help="merge two bounded contexts")
    m.add_argument("--in", dest="input", required=True, help=".cml input")
    m.add_argument("-a", required=True, help="first context (kept position)")
    m.add_argument("-b", required=True, help="second context")
    m.add_argument("-o", "--output", default="-")
    m.add_argument("--stamp", action="store_true")
    m.set_defaults(func=_cmd_cml_merge)

    s = cml_sub.add_parser("split", help="split a context's aggregate")
    s.add_argument("--in", dest="input", required=True, help=".cml input")
    s.add_argument("--context", required=True)
    s.add_argument(
        "--parts",
        required=True,
        help="partition: entity names comma-separated, parts '/'-separated (A,B/C)",
    )
    s.add_argument("-o", "--output", default="-")
    s.add_argument("--stamp", action="store_true")
    s.set_defaults(func=_cmd_cml_split)

    return parser


def run_main(monkeypatch, capsys, build, argv):
    """``cli.main(argv)`` with ``build`` as its parser: exit code, stdout, stderr."""
    monkeypatch.setattr(cli, "build_parser", build)
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SUBCOMMANDS = ["decompose", "search", "assess", "sagas", "to-cml", "diagram", "cml"]
HELP_ARGV = (
    [["--help"], ["-h"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [["cml", "merge", "--help"], ["cml", "split", "-h"]]
)


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_is_unchanged(monkeypatch, capsys, argv):
    expected = run_main(monkeypatch, capsys, eager_build_parser, argv)
    assert expected[0] == 0 and expected[1] and not expected[2]
    assert run_main(monkeypatch, capsys, cli.build_parser, argv) == expected


BAD_ARGV = [
    [],
    ["nope"],
    ["cml"],
    ["cml", "nope"],
    ["decompose", "--accesses", "a.json"],
    ["cml", "merge", "--in", "x.cml", "-a", "A"],
    ["diagram", "--format", "x"],
    ["decompose", "--accesses", "a.json", "-n", "x"],
    ["search", "--accesses", "a.json", "--top", "many"],
    ["assess", "--accesses", "a.json", "--decomposition", "d.json", "--bogus"],
    ["cml", "split", "--in", "x.cml", "--context", "C", "--parts", "A/B", "--bogus", "1"],
    ["--bogus"],
    ["sagas", "--accesses", "a.json", "--decomposition", "d.json", "--orchestrator", "last"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda argv: " ".join(argv) or "none")
def test_usage_errors_are_unchanged(monkeypatch, capsys, argv):
    expected = run_main(monkeypatch, capsys, eager_build_parser, argv)
    assert expected[0] == 1 and not expected[1] and "usage: mono2ddd" in expected[2]
    assert run_main(monkeypatch, capsys, cli.build_parser, argv) == expected


def benchmark_plans(root: pathlib.Path, run_setup_job):
    """Yield each benchmark workload's seed-0 plan and its rep directory.

    The workload generators write their inputs under ``root``; the
    ``cml-refactor`` one calls ``run_setup_job`` to make the document it
    refactors. The working directory is the plan's rep directory until the
    next plan is made, as in a benchmark chain.
    """
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    cwd = os.getcwd()
    try:
        for name, make_plan in workloads.WORKLOADS.items():
            inputs, rep = root / name / "inputs", root / name / "rep"
            inputs.mkdir(parents=True)
            rep.mkdir()
            os.chdir(rep)
            yield rep, make_plan(random.Random(f"{name}:0"), inputs, run_setup_job)
    finally:
        os.chdir(cwd)


def run_setup_job(setup_argv):
    assert cli.main(setup_argv) == 0


def benchmark_argv(root: pathlib.Path) -> list[list[str]]:
    """The argv of every call of the four benchmark chains, seed 0."""
    argv = []
    for rep, plan in benchmark_plans(root, run_setup_job):
        # The BPMN call names the first multi-step saga of the chain's sagas file.
        saga = {"functionality": "f0", "steps": [{}, {}]}
        (rep / "sagas.json").write_text(json.dumps({"sagas": [saga]}), encoding="utf-8")
        argv += [op.args(rep) for op in plan.ops]
    return argv


def test_benchmark_chains_make_no_reference_cycle(tmp_path, capsys):
    """No successful call leaves cyclic garbage.

    ``cli.main`` pauses the cyclic collector for a call on the strength of
    this, so a change that makes a cycle on a success path must fail here
    rather than leak in every command-line call. Each chain runs its real
    calls in order, so the BPMN call reads the sagas file the chain wrote;
    the set-up call that makes the ``cml-refactor`` document is checked too.
    """
    calls = []

    def call(argv):
        gc.collect()
        gc.disable()
        assert cli.main(argv) == 0, argv
        assert gc.collect() == 0, argv
        capsys.readouterr()
        calls.append(argv)

    try:
        # Closed on a failure too, so the working directory is restored at once.
        with contextlib.closing(benchmark_plans(tmp_path, call)) as plans:
            for rep, plan in plans:
                for op in plan.ops:
                    call(op.args(rep))
    finally:
        gc.enable()
    assert len(calls) == 28  # the 27 chain calls and the cml-refactor set-up's to-cml


def test_benchmark_argv_parse_to_equal_namespaces(tmp_path):
    argv = benchmark_argv(tmp_path)
    assert {a[0] for a in argv} == {"search", "decompose", "assess", "sagas", "to-cml",
                                    "diagram", "cml"}
    assert {a[1] for a in argv if a[0] == "cml"} == {"merge", "split"}
    for args in argv:
        lazy = cli.build_parser().parse_args(args)
        eager = eager_build_parser().parse_args(args)
        assert type(lazy) is argparse.Namespace
        assert vars(lazy) == vars(eager), args


HANDLERS = ["_cmd_decompose", "_cmd_search", "_cmd_assess", "_cmd_sagas", "_cmd_to_cml",
            "_cmd_diagram", "_cmd_cml_merge", "_cmd_cml_split"]


def test_benchmark_chains_never_reach_argparse(tmp_path, monkeypatch):
    argv = benchmark_argv(tmp_path)

    def no_argparse():
        raise AssertionError("argparse reached")

    seen = []
    monkeypatch.setattr(cli, "build_parser", no_argparse)
    for name in HANDLERS:
        monkeypatch.setattr(cli, name, lambda args, name=name: seen.append((name, args)) or 0)
    for args in argv:
        assert cli.main(list(args)) == 0, args
        name, quick = seen.pop()
        eager = eager_build_parser().parse_args(args)
        assert name == eager.func.__name__, args
        assert {**vars(quick), "func": eager.func} == vars(eager), args


COMMANDS = [["decompose"], ["search"], ["assess"], ["sagas"], ["to-cml"], ["diagram"],
            ["cml", "merge"], ["cml", "split"]]


def recorded_spec(command: list[str]) -> cli._Spec:
    spec = cli._Spec()
    cli._add_arguments(spec, " ".join(command))
    return spec


NOT_EXACT = ["--bogus", "-h", "--", "--acc", "--accesses=a.json"]
CHOICES = sorted({choice for command in COMMANDS
                  for _, _, _, choices in recorded_spec(command).options.values()
                  for choice in choices or ()})
VALUES = ["-", "-1", "--x", "", " 4", "4_0", "nan", "inf", "-a b", "a.json", "2", "0.5",
          *CHOICES]
PLAIN_VALUES = [value for value in VALUES if not value.startswith("-")]


@st.composite
def command_lines(draw):
    """A command, its recorded spec and a line of its option strings and pool values."""
    command = draw(st.sampled_from(COMMANDS))
    spec = recorded_spec(command)
    options = sorted(spec.options) * 3 + NOT_EXACT  # mostly exact, so many lines are valid
    tokens = []
    if draw(st.booleans()):  # the required options first
        for dest in spec.required:
            flag = next(f for f, option in spec.options.items() if option[0] == dest)
            tokens += [flag, draw(st.sampled_from(PLAIN_VALUES))]
    for _ in range(draw(st.integers(0, 3))):
        tokens.append(draw(st.sampled_from(options)))
        count = draw(st.sampled_from((0, 1, 1, 1, 2)))
        tokens += draw(st.lists(st.sampled_from(VALUES), min_size=count, max_size=count))
    return command, spec, tokens


def eager_parse(argv):
    """The eager parser's namespace for ``argv``, or None if it refuses or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return eager_build_parser().parse_args(argv)
    except (cli._UsageError, SystemExit):
        return None


def same_value(a, b) -> bool:
    nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return nan or a == b


@settings(max_examples=600, derandomize=True, deadline=None)
@given(command_lines())
def test_quick_args_agrees_with_eager_parser(line):
    command, spec, tokens = line
    argv = command + tokens
    quick = cli._quick_args(argv)
    eager = eager_parse(argv)
    if quick is not None:
        assert eager is not None, argv
        assert list(vars(quick)) == list(vars(eager)), argv
        assert all(same_value(v, getattr(eager, k)) for k, v in vars(quick).items()), argv
    plain = all(token in spec.options or not token.startswith("-") for token in tokens)
    if eager is not None and plain:
        assert quick is not None, argv
