"""The benchmark's tracer still reads what the package's functions return.

`perfbench/tracer.py` wraps every public function of the package from
outside, and a few wrappers derive counts from a function's arguments or
result. When a result changes shape, that hook breaks and the benchmark
leaves the layer's counts out of its result without failing. The tracer
rebinds module globals, so it runs in a child process, never in the test
process; the child loads it from its file and writes no bytecode next to it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from conftest import FIXTURE_A_ACCESSES

ROOT = pathlib.Path(__file__).resolve().parent.parent

_CHILD = r"""
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

from mono2ddd import cli

recorder = tracer.Tracer()
recorder.install()
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
summary = recorder.summary()
print(json.dumps({
    "codes": codes,
    "broken_hooks": summary["broken_hooks"],
    "calls": {name: row[0] for name, row in summary["functions"].items()},
    "counted": sorted(set(tracer._COUNTED.values())),
    "metrics": tracer.layer_metrics(tracer.merge_summaries([summary])),
    "spec": [metric["name"] for metric in tracer.per_layer_spec()],
}))
"""


# C refers to A across the two clusters, so the document holds a placeholder.
_STRUCTURE = "entity A {\n}\nentity B {\n}\nentity C {\n    ref a -> A;\n}\nentity D {\n}\n"


def test_tracer_hooks_read_every_traced_result(tmp_path):
    (tmp_path / "accesses.json").write_text(FIXTURE_A_ACCESSES)
    (tmp_path / "structure.dsl").write_text(_STRUCTURE)
    model = ["--accesses", "accesses.json", "--structure", "structure.dsl"]
    calls = [
        ["decompose", *model, "-n", "2", "-o", "dec.json"],
        ["assess", *model, "--decomposition", "dec.json", "-o", "assess.tsv"],
        ["sagas", *model, "--decomposition", "dec.json", "-o", "sagas.json"],
        ["to-cml", *model, "--decomposition", "dec.json", "--sagas", "sagas.json",
         "-o", "model.cml"],
        ["diagram", "--format", "dot", "--cml", "model.cml", "-o", "model.dot"],
        ["diagram", "--format", "bpmn", "--cml", "model.cml", "--coordination", "f4",
         "-o", "flow.bpmn"],
        ["cml", "split", "--in", "model.cml", "--context", "Cluster0", "--parts", "A/B",
         "-o", "split.cml"],
        ["cml", "merge", "--in", "split.cml", "-a", "Cluster0", "-b", "Cluster1",
         "-o", "merged.cml"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD, str(ROOT / "perfbench" / "tracer.py"),
         json.dumps(calls)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(calls), child.stderr
    assert result["broken_hooks"] == []
    assert result["counted"]
    for name in result["counted"]:
        assert result["calls"].get(name, 0) > 0, name
    # Every per-layer metric is reported; trace.* come from the harness.
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(n for n in result["spec"] if not n.startswith("trace."))
    placeholders = (tmp_path / "model.cml").read_text().count("// generated reference to ")
    assert placeholders == 1
    assert metrics["dddmap.placeholders"] == placeholders
    assert metrics["dddmap.relationships"] == 1
