"""What one command line loads.

The package binds its public names on first use, and `cli` imports
`argparse`, `saga`, `dddmap` and `diagrams` only where they run: in the
handler of a command that needs them, in the branch of `_add_arguments`
that reads their `choices`, and in `build_parser`. Each check starts a
fresh interpreter, because this test process has already imported every
module.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from conftest import FIXTURE_A_ACCESSES
from helpers import run_fresh

from mono2ddd import cli

# Loaded only by the commands and forms that run them.
LAZY = ("argparse", "gettext", "mono2ddd.saga", "mono2ddd.dddmap", "mono2ddd.diagrams")

# One call of `cli.main` with the collector paused, as in a first call of a
# process; prints its exit code, what `gc.collect()` then finds and which
# of `LAZY` are loaded.
CALL = """\
import gc, json, sys
from mono2ddd import cli
gc.collect()
gc.disable()
code = cli.main(sys.argv[2:])
lazy = json.loads(sys.argv[1])
print(json.dumps([code, gc.collect(), [m for m in lazy if m in sys.modules]]))
"""


def _fresh_call(argv: list[str], cwd: pathlib.Path) -> tuple[int, int, list[str]]:
    """Exit code, cyclic garbage found after it, and the `LAZY` modules loaded."""
    last = run_fresh(CALL, json.dumps(LAZY), *argv, cwd=cwd).splitlines()[-1]
    return tuple(json.loads(last))


@pytest.fixture
def inputs(tmp_path, monkeypatch, capsys):
    """Fixture A's accesses, a decomposition, its sagas and its document."""
    (tmp_path / "accesses.json").write_text(FIXTURE_A_ACCESSES, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    model = ["--accesses", "accesses.json"]
    dec = ["--decomposition", "dec.json"]
    assert cli.main(["decompose", *model, "-n", "2", "-o", "dec.json"]) == 0
    assert cli.main(["sagas", *model, *dec, "-o", "sagas.json"]) == 0
    assert cli.main(["to-cml", *model, *dec, "-o", "model.cml"]) == 0
    capsys.readouterr()
    return tmp_path


PLAIN = {
    "search": ["search", "--accesses", "accesses.json", "--n", "2", "-o", "best.json"],
    "decompose": ["decompose", "--accesses", "accesses.json", "-n", "2", "-o", "d.json"],
    "assess": ["assess", "--accesses", "accesses.json", "--decomposition", "dec.json",
               "-o", "assess.tsv"],
    "cml merge": ["cml", "merge", "--in", "model.cml", "-a", "Cluster0", "-b", "Cluster1",
                  "-o", "merged.cml"],
    "cml split": ["cml", "split", "--in", "model.cml", "--context", "Cluster0", "--parts", "A/B",
                  "-o", "split.cml"],
}


@pytest.mark.parametrize("command", PLAIN)
def test_a_plain_call_loads_neither_argparse_nor_the_modules_it_does_not_run(inputs, command):
    assert _fresh_call(PLAIN[command], inputs) == (0, 0, [])


def test_the_cli_import_loads_the_readers_of_the_setup_probe():
    # The benchmark's set-up probe takes `ingest` and `cml` from `sys.modules`
    # after `import mono2ddd.cli`.
    code = (
        "import json, sys, mono2ddd.cli\n"
        "modules = json.loads(sys.argv[1])\n"
        "print(json.dumps([m for m in modules if m in sys.modules]))\n"
    )
    modules = [*LAZY, "mono2ddd.ingest", "mono2ddd.cml"]
    loaded = json.loads(run_fresh(code, json.dumps(modules)))
    assert loaded == ["mono2ddd.ingest", "mono2ddd.cml"]


FIRST = {
    "sagas": (["sagas", "--accesses", "accesses.json", "--decomposition", "dec.json",
               "-o", "again.json"], ["mono2ddd.saga"]),
    "to-cml --sagas": (["to-cml", "--accesses", "accesses.json", "--decomposition", "dec.json",
                        "--sagas", "sagas.json", "-o", "again.cml"],
                       ["mono2ddd.saga", "mono2ddd.dddmap"]),
    "to-cml": (["to-cml", "--accesses", "accesses.json", "--decomposition", "dec.json",
                "-o", "again.cml"], ["mono2ddd.saga", "mono2ddd.dddmap"]),
    "diagram bpmn": (["diagram", "--format", "bpmn", "--cml", "model.cml", "--coordination",
                      "f3", "-o", "flow.bpmn"], ["mono2ddd.diagrams"]),
}


@pytest.mark.parametrize("command", FIRST)
def test_a_first_call_that_imports_in_main_makes_no_reference_cycle(inputs, command):
    # The imports run inside `main` with the collector paused; whatever they
    # build must stay reachable, so the paused collector misses nothing.
    argv, loaded = FIRST[command]
    assert _fresh_call(argv, inputs) == (0, 0, loaded)


# Two calls of a form `_quick_args` leaves to `argparse`, with the collector
# paused; prints the exit codes, whether cyclic garbage was found and the
# names of the classes among it.
FALLBACK = """\
import gc, json, sys
from mono2ddd import cli
gc.collect()
gc.disable()
codes = [cli.main(sys.argv[1:]), cli.main(sys.argv[1:])]
gc.set_debug(gc.DEBUG_SAVEALL)
found = gc.collect()
print(json.dumps([codes, found > 0, [o.__name__ for o in gc.garbage if isinstance(o, type)]]))
"""


def test_calls_that_argparse_parses_leave_no_class_behind(inputs):
    # An `argparse` parser sits in cycles of its own (its help formatter and
    # the formatter's sections), which the collector frees once it runs
    # again. The parser class is made once, so it is never among them.
    argv = ["search", "--accesses", "accesses.json", "--n=2", "-o", "best.json"]
    last = run_fresh(FALLBACK, *argv, cwd=inputs).splitlines()[-1]
    assert json.loads(last) == [[0, 0], True, []]
