"""Outside-in benchmark of the mono2ddd command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `harness.py` describes a run. This entry
point only checks that the checkout holds the package sources and the test
oracles, and exits 2 without a result when it does not.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches next to the checkout's files

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/mono2ddd/cli.py", "tests/oracles.py", "tests/dotcheck.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so a running job is killed and waited for
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
