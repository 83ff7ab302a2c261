"""One fresh process: a CLI call as a user runs it, or a set-up probe.

    python3 job.py RECORD TRACE KIND PRIMARY [STRUCTURE] -- [CLI-ARGS...]

With CLI-ARGS the job times `mono2ddd.cli.main(CLI-ARGS)`; with TRACE 1 the
outside-in tracer is installed first. Without CLI-ARGS the job is a set-up
probe: it times importing `mono2ddd.cli` plus one parse of the workload's
primary input, which every CLI call pays. KIND says what that input is:
`model` (the accesses file with its optional structure file) or `cml` (a
`.cml` document). The record written to RECORD holds the timings, the exit
code, `ru_maxrss` and, when traced, the trace summary.

Every job also times a fixed pure-Python calibration loop before the import
and after its work, and records the mean as `cal_s`. The host this was
written on ran Python up to 1.8 times slower for stretches of 10 to 30
seconds; the harness scales each chain's times by its calibration times to
correct for that (see WORKLOADS.md).

Only `gc`, `sys` and `time` are imported before the import clock starts, so
the set-up time includes every module the package pulls in.
"""

import gc
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed mix of dict, tuple, float, sort and string work.

    The cyclic collector is off meanwhile, so the heap the program left
    behind does not change the time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(100_000):
            key = ("e", i % 700)
            table[key] = table.get(key, 0.0) + i * 0.5
        ordered = sorted(table.items(), key=lambda item: item[1])
        {f"{key[1]}:{int(value)}" for key, value in ordered}
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> None:
    cal_before = calibrate()
    start = time.perf_counter()
    import mono2ddd.cli

    imported = time.perf_counter()

    import json
    import resource

    split = sys.argv.index("--")
    record_path, trace, kind, *primary = sys.argv[1:split]
    cli_args = sys.argv[split + 1 :]
    record = {"import_s": imported - start, "exit": 0}

    if cli_args:
        tracer = None
        if trace == "1":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        main_start = time.perf_counter()
        cpu_start = time.process_time()
        record["exit"] = mono2ddd.cli.main(cli_args)
        record["main_s"] = time.perf_counter() - main_start
        record["cpu_s"] = time.process_time() - cpu_start
        sys.stdout.flush()
        if tracer is not None:
            record["trace"] = tracer.summary()
    else:
        parse_start = time.perf_counter()
        texts = []
        for path in primary:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        if kind == "model":
            sys.modules["mono2ddd.ingest"].parse_model(*texts)
        else:
            sys.modules["mono2ddd.cml"].parse_document(*texts)
        record["setup_s"] = record["import_s"] + time.perf_counter() - parse_start

    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["cal_s"] = (cal_before + calibrate()) / 2
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
