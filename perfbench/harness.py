"""One benchmark run: inputs, timed chains, output checks, metrics.

The seed generates the workload's inputs; the program only sees the
generated files. Every CLI call runs in a fresh single-threaded job process
(`job.py`), and the workload's chain of calls repeats until `--seconds`
have passed. Chain k runs its jobs with `PYTHONHASHSEED=k`, so comparing
every chain's digests with the pinned ones (taken with hash seed 0) also
catches output that depends on the order of string hashes. With
`--trace 0` the result reports the end-to-end metrics. With `--trace 1`
untraced and traced chains alternate, and the result reports the per-layer
metrics of the traced ones plus the tracing overhead.
Outputs are checked after the timed loop (see `checks.py`); a failed call or
check counts in `failed`.

The last stdout line is the result; the line before it is the run record:
machine state, chain timings and the problems found. Work files go to
`.bench_work/` under the checkout and are removed at exit, apart from
`runs.jsonl` (one record per run) and the last traced chain's summary.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_PLAIN_CHAINS = 3  # medians need a few chains even when one outlasts --seconds
MIN_TRACED_CHAINS = 2
SETUP_PROBES = 2  # least number of set-up-only jobs around each untraced chain
# An untraced chain with fewer calls gets more set-up probes, so that its speed
# correction takes the median of at least this many calibration times.
CAL_SAMPLES = 10
# Reference time of job.calibrate(). End-to-end times are reported at this
# speed: a chain's times are scaled by CAL_REF_S over the median of the
# calibration times its jobs and probes measured.
CAL_REF_S = 0.03
JOB_TIMEOUT_S = 150


def machine_state() -> dict:
    steal = None
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return {"loadavg": list(os.getloadavg()), "steal_s": steal}


class Jobs:
    """Starts job processes in a clean environment: one process, one thread,
    a given hash seed."""

    def __init__(self, kind: str, primary: list[str]):
        self.kind = kind
        self.primary = primary
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "MONO2DDD_"))}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        )
        self.env = env

    def warm(self, cwd: Path) -> None:
        """Compile the package's bytecode once, outside any timing."""
        subprocess.run([sys.executable, "-c", "import mono2ddd.cli"], cwd=cwd,
                       env=dict(self.env, PYTHONHASHSEED="0"), check=True, timeout=JOB_TIMEOUT_S)

    def run(self, argv: list[str], cwd: Path, trace: bool, stdout: str | None, tag: str,
            hash_seed: int) -> dict:
        record = cwd / f".{tag}.record.json"
        err_path = cwd / f".{tag}.stderr"
        cmd = [sys.executable, str(HERE / "job.py"), str(record), "1" if trace else "0",
               self.kind, *self.primary, "--", *argv]
        try:
            with open(err_path, "wb") as err, \
                    open(cwd / stdout if stdout else os.devnull, "wb") as out:
                proc = subprocess.run(cmd, cwd=cwd, stdout=out, stderr=err,
                                      env=dict(self.env, PYTHONHASHSEED=str(hash_seed)),
                                      timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"exit": "timeout"}
        if proc.returncode != 0 or not record.exists():
            detail = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
            return {"exit": proc.returncode or "no record", "stderr": detail}
        return json.loads(record.read_text(encoding="utf-8"))


def run_chain(plan, jobs: Jobs, rep_dir: Path, trace: bool, hash_seed: int) -> dict:
    rep_dir.mkdir()
    count = 0 if trace else max(SETUP_PROBES, CAL_SAMPLES - len(plan.ops))

    def run_probes(tags):  # half the probes run before the calls, half after
        return [jobs.run([], rep_dir, False, None, f"probe{i}", hash_seed) for i in tags]

    before = run_probes(range(count // 2))
    results = [
        jobs.run(op.args(rep_dir), rep_dir, trace, op.stdout, f"{i:02d}", hash_seed)
        for i, op in enumerate(plan.ops)
    ]
    probes = before + run_probes(range(count // 2, count))
    chain = {"trace": trace, "jobs": results, "probes": probes,
             "ok": all(r["exit"] == 0 for r in results + probes)}
    if chain["ok"]:
        scale = CAL_REF_S / statistics.median(r["cal_s"] for r in results + probes)
        chain["raw_wall_s"] = sum(r["main_s"] for r in results)
        chain["wall_s"] = chain["raw_wall_s"] * scale
        chain["setup_s"] = [probe["setup_s"] * scale for probe in probes]
        chain["peak_rss_mib"] = max(r["maxrss_kib"] for r in results) / 1024
    chain["digests"] = {
        name: checks.digest(rep_dir / name) if (rep_dir / name).exists() else None
        for op in plan.ops
        for name in op.artifacts()
    }
    return chain


def prepare(args, work: Path):
    """Write the seeded inputs; returns the plan and its job starter."""
    inputs = work / "inputs"
    setup_dir = work / "setup"  # a sibling of inputs, like the rep directories
    inputs.mkdir(parents=True)
    setup_dir.mkdir()
    setup_jobs = Jobs("none", [])
    setup_jobs.warm(setup_dir)

    def run_setup_call(argv: list[str]) -> None:
        result = setup_jobs.run(argv, setup_dir, False, None, "setup", hash_seed=0)
        if result["exit"] != 0:
            raise RuntimeError(f"set-up call {argv} failed: {result}")

    rng = random.Random(f"{args.workload}:{args.seed}")
    plan = workloads.WORKLOADS[args.workload](rng, inputs, run_setup_call)
    return plan, Jobs(plan.setup_kind, plan.primary)


def check_outputs(args, plan, chains, rep0: Path) -> tuple[int, int, list[str], bool]:
    """Count attempted and failed jobs. A CLI call fails on a non-zero exit,
    on a digest other than the pinned one (or rep 0's when the seed has no
    pin), or on a failed independent check of its rep-0 artifacts; a set-up
    probe fails on a non-zero exit."""
    expected = checks.pinned(args.workload, args.seed)
    pinned = expected is not None
    if not pinned:
        expected = chains[0]["digests"]
    problems: list[str] = []
    bad_ops = set()
    checker = checks.Checker(rep0, plan)
    for op, result in zip(plan.ops, chains[0]["jobs"]):
        if op.check and result["exit"] == 0:
            found = checker.run(op)
            if found:
                bad_ops.add(op.name)
                problems += found
    attempted = failed = 0
    for k, chain in enumerate(chains):
        for probe in chain["probes"]:
            attempted += 1
            if probe["exit"] != 0:
                failed += 1
                problems.append(f"chain {k} set-up probe: exit {probe['exit']} {probe.get('stderr', '')}")
        for op, result in zip(plan.ops, chain["jobs"]):
            attempted += 1
            wrong = [n for n in op.artifacts() if chain["digests"][n] != expected.get(n)]
            if result["exit"] != 0:
                problems.append(f"chain {k} {op.name}: exit {result['exit']} {result.get('stderr', '')}")
            elif wrong:
                problems.append(f"chain {k} {op.name}: digest differs for {', '.join(wrong)}")
            if result["exit"] != 0 or wrong or op.name in bad_ops:
                failed += 1
    return attempted, failed, problems, pinned


def end_to_end(plain: list[dict]) -> dict:
    setups = [setup for c in plain for setup in c["setup_s"]]
    return {
        "wall_s": {"value": statistics.median(c["wall_s"] for c in plain), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(c["peak_rss_mib"] for c in plain),
                         "unit": "MiB"},
    }


def per_layer(args, plain: list[dict], traced: list[dict]) -> dict:
    summaries = [tracer.merge_summaries([job["trace"] for job in c["jobs"]]) for c in traced]
    per_chain = [tracer.layer_metrics(s) for s in summaries]
    units = {m["name"]: m["unit"] for m in tracer.per_layer_spec()}
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_chain), "unit": units[name]}
        for name in per_chain[0]
    }
    traced_wall = statistics.median(c["raw_wall_s"] for c in traced)
    plain_wall = statistics.median(c["raw_wall_s"] for c in plain)
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1, "unit": "ratio"}
    metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    last = dict(summaries[-1], wrapped=sorted(summaries[-1]["wrapped"]),
                broken_hooks=sorted(summaries[-1]["broken_hooks"]))
    (WORK / f"last-trace-{args.workload}.json").write_text(
        json.dumps(last, indent=1, sort_keys=True), encoding="utf-8")
    return metrics


def run(args) -> int:
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    before = machine_state()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan, jobs = prepare(args, work)
        chains = []
        deadline = time.perf_counter() + args.seconds
        while True:
            plain = sum(1 for c in chains if not c["trace"])
            traced = len(chains) - plain
            if (time.perf_counter() >= deadline and plain >= MIN_PLAIN_CHAINS
                    and (not args.trace or traced >= MIN_TRACED_CHAINS)):
                break
            trace = bool(args.trace) and len(chains) % 2 == 1
            rep_dir = work / f"rep{len(chains)}"
            chains.append(run_chain(plan, jobs, rep_dir, trace, hash_seed=len(chains)))
            if len(chains) > 1:  # rep 0 stays for the independent checks
                shutil.rmtree(rep_dir)
        after = machine_state()
        attempted, failed, problems, pinned = check_outputs(args, plan, chains, work / "rep0")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [c for c in chains if not c["trace"] and c["ok"]]
    traced = [c for c in chains if c["trace"] and c["ok"]]
    metrics = {}
    if plain and not args.trace:
        metrics = end_to_end(plain)
    elif plain and traced:
        metrics = per_layer(args, plain, traced)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_before": before["loadavg"],
        "loadavg_after": after["loadavg"],
        "steal_delta_s": (after["steal_s"] - before["steal_s"]
                          if before["steal_s"] is not None else None),
        "pinned_digests": pinned,
        "chains": [{"trace": c["trace"], "wall_s": c.get("wall_s"),
                    "raw_wall_s": c.get("raw_wall_s"),
                    "cpu_s": sum(job.get("cpu_s", 0.0) for job in c["jobs"]),
                    "cal_s": [job.get("cal_s") for job in c["jobs"] + c["probes"]],
                    "raw_setup_s": [probe.get("setup_s") for probe in c["probes"]]}
                   for c in chains],
        "problems": problems[:50],
    }
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
