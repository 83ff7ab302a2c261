"""The four workloads: seeded inputs plus the CLI chain each one times.

Sizes are fixed here; `WORKLOADS.md` records why each workload exists and
which layer it is meant to load. An `Op` is one CLI call. Its `argv` may be
a function of the rep directory when an argument depends on an earlier
call's output (the BPMN coordination name does).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

INPUTS = "../inputs"  # the rep directories sit next to the inputs directory


@dataclass
class Op:
    name: str
    argv: list[str] | Callable[[Path], list[str]]
    outputs: tuple[str, ...] = ()
    stdout: str | None = None
    check: str | None = None  # name of the output check in checks.py

    def args(self, rep_dir: Path) -> list[str]:
        return self.argv(rep_dir) if callable(self.argv) else list(self.argv)

    def artifacts(self) -> tuple[str, ...]:
        return self.outputs + ((self.stdout,) if self.stdout else ())


@dataclass
class Plan:
    setup_kind: str  # "model": parse accesses (+ structure); "cml": parse a .cml
    primary: list[str]  # set-up inputs, relative to a rep directory
    ops: list[Op]
    accesses: str | None = None
    structure: str | None = None
    facts: dict = field(default_factory=dict)  # what the checks need to know


def _write(inputs: Path, name: str, text: str) -> str:
    (inputs / name).write_text(text, encoding="utf-8")
    return f"{INPUTS}/{name}"


def search(rng: random.Random, inputs: Path, run_setup_job) -> Plan:
    """Grid search, accesses only: 105 candidates on one model."""
    entities = gen.entity_names(28)
    acc = _write(inputs, "accesses.json", gen.accesses_doc(rng, entities, 72, 30))
    facts = {"step": 0.25, "n": (3, 5, 8)}
    op = Op(
        "search",
        ["search", "--accesses", acc, "--step", str(facts["step"]),
         "--n", ",".join(map(str, facts["n"])),
         "--candidates", "candidates.tsv", "-o", "best.json"],
        outputs=("candidates.tsv", "best.json"),
        check="search",
    )
    return Plan("model", [acc], [op], accesses=acc, facts=facts)


def _first_coordination(rep_dir: Path) -> str:
    """The first saga with more than one step names a coordination."""
    sagas = json.loads((rep_dir / "sagas.json").read_text(encoding="utf-8"))["sagas"]
    for saga in sagas:
        if len(saga["steps"]) > 1:
            return saga["functionality"]
    return sagas[0]["functionality"]


def _chain(rng, inputs, entities, functionalities, max_trace, n, modules=1, foreign=0) -> Plan:
    """decompose -> assess -> sagas -> to-cml -> dot and bpmn diagrams."""
    names = gen.entity_names(entities)
    acc = _write(
        inputs,
        "accesses.json",
        gen.accesses_doc(rng, names, functionalities, max_trace, modules, foreign),
    )
    st = _write(inputs, "structure.dsl", gen.structure_dsl(rng, names))
    model = ["--accesses", acc, "--structure", st]
    ops = [
        Op("decompose", ["decompose", *model, "-n", str(n), "-o", "dec.json"],
           outputs=("dec.json",)),
        Op("assess", ["assess", *model, "--decomposition", "dec.json", "-o", "assess.tsv"],
           outputs=("assess.tsv",), check="assess"),
        Op("sagas", ["sagas", *model, "--decomposition", "dec.json", "-o", "sagas.json"],
           outputs=("sagas.json",), stdout="sagas.tsv", check="sagas"),
        Op("to-cml", ["to-cml", *model, "--decomposition", "dec.json",
                      "--sagas", "sagas.json", "-o", "model.cml"],
           outputs=("model.cml",), check="cml"),
        Op("dot", ["diagram", "--format", "dot", "--cml", "model.cml", "-o", "model.dot"],
           outputs=("model.dot",), check="dot"),
        Op("bpmn", lambda rep: ["diagram", "--format", "bpmn", "--cml", "model.cml",
                                "--coordination", _first_coordination(rep), "-o", "flow.bpmn"],
           outputs=("flow.bpmn",), check="bpmn"),
    ]
    return Plan("model", [acc, st], ops, accesses=acc, structure=st)


def pipeline_wide(rng: random.Random, inputs: Path, run_setup_job) -> Plan:
    """The post-search chain on a wide model: one large `cluster` call."""
    return _chain(rng, inputs, 120, 160, 40, 8)


def sagas_long(rng: random.Random, inputs: Path, run_setup_job) -> Plan:
    """The same chain on few, very long traces over a modular model."""
    return _chain(rng, inputs, 40, 20, 1900, 5, modules=5, foreign=6)


def cml_refactor(rng: random.Random, inputs: Path, run_setup_job) -> Plan:
    """Twelve `cml merge` calls, one `cml split` and a DOT view of a large document."""
    from mono2ddd.cml import parse_document

    names = gen.entity_names(320)
    acc = _write(inputs, "accesses.json", gen.accesses_doc(rng, names, 160, 20))
    st = _write(inputs, "structure.dsl", gen.structure_dsl(rng, names))
    dec = _write(inputs, "partition.json", gen.random_partition_doc(rng, names, 30))
    base = f"{INPUTS}/base.cml"
    run_setup_job(["to-cml", "--accesses", acc, "--structure", st,
                   "--decomposition", dec, "-o", base])
    doc = parse_document((inputs / "base.cml").read_text(encoding="utf-8"))

    def local(ctx):
        return [e.name for agg in ctx.aggregates for e in agg.entities
                if not e.name.endswith("_Reference")]

    eligible = sorted(c.name for c in doc.contexts if len(local(c)) >= 2)
    target = doc.context(rng.choice(eligible))
    entities = [e.name for agg in target.aggregates for e in agg.entities]
    own = local(target)
    refs = [e for e in entities if e not in own]
    cut = len(own) // 2
    parts = [own[:cut] + refs[::2], own[cut:] + refs[1::2]]

    current = sorted(c.name for c in doc.contexts if c.name != target.name)
    ops = []
    source = base
    for i in range(1, 13):
        a, b = rng.sample(current, 2)
        current = sorted(set(current) - {a, b} | {f"{a}_{b}"})
        out = f"merge{i:02d}.cml"
        ops.append(Op(f"merge{i:02d}", ["cml", "merge", "--in", source, "-a", a, "-b", b, "-o", out],
                      outputs=(out,), check="cml"))
        source = out
    ops.append(Op("split", ["cml", "split", "--in", source, "--context", target.name,
                            "--parts", "/".join(",".join(p) for p in parts), "-o", "split.cml"],
                  outputs=("split.cml",), check="cml"))
    ops.append(Op("dot", ["diagram", "--format", "dot", "--cml", "split.cml", "-o", "split.dot"],
                  outputs=("split.dot",), check="dot"))
    return Plan("cml", [base], ops)


WORKLOADS = {
    "search": search,
    "pipeline-wide": pipeline_wide,
    "sagas-long": sagas_long,
    "cml-refactor": cml_refactor,
}
