"""Regenerate `pinned.json`: artifact digests for seeds 0-39.

    python3 perfbench/pin.py [WORKLOAD...]

Run from the repository root, after an intended change of output bytes. For
each named workload (default: all) and each seed in `checks.PINNED_SEEDS` it
runs the chain once, untraced, and replaces that workload's pins. It refuses
to pin a seed whose chain fails a call or an independent check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def pin_one(workload: str, seed: int) -> dict[str, str]:
    args = SimpleNamespace(workload=workload, seed=seed)
    work = harness.WORK / f"pin-{workload}-{seed}"
    try:
        plan, jobs = harness.prepare(args, work)
        chain = harness.run_chain(plan, jobs, work / "rep0", trace=False, hash_seed=0)
        if not chain["ok"]:
            raise SystemExit(f"{workload} seed {seed}: a call failed: {chain['jobs']}")
        checker = checks.Checker(work / "rep0", plan)
        problems = [p for op in plan.ops if op.check for p in checker.run(op)]
        if problems:
            raise SystemExit(f"{workload} seed {seed}: {problems[:5]}")
        return chain["digests"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD", help="default: all")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    table = json.loads(checks.PINNED.read_text(encoding="utf-8")) if checks.PINNED.exists() else {}
    for workload in args.workloads or workloads.WORKLOADS:
        table[workload] = {str(seed): pin_one(workload, seed) for seed in checks.PINNED_SEEDS}
    checks.PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
