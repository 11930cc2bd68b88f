"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh interpreter whose PYTHONHASHSEED is derived
from the workload and seed, so set iteration order repeats and set-up time
and peak memory belong to that workload alone.  The last line of standard
output is the run's JSON result; the exit code is the worker's.
"""

import os
import subprocess
import sys
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 175


sys.path.insert(0, ROOT)
from perfbench.worker import parse_args  # noqa: E402


def hash_seed(workload: str, seed: int) -> str:
    """PYTHONHASHSEED in 1..2**32-1 (0 would switch hash randomization off)."""
    return str(zlib.crc32(f"{workload}:{seed}".encode()) % 4294967295 + 1)


def main() -> int:
    argv = sys.argv[1:]
    args = parse_args(argv)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed(args.workload, args.seed))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *argv], cwd=ROOT, env=env, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
