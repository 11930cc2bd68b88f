"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads wordproblem,closure-build \
        --seeds 1-10 [--seconds 20] [--trace 0] [--out runs.json]

For every metric: median, quartiles (statistics.quantiles, n=4) and the
quartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list:
    """'1-10' or '3,3,3'."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, args.trace) for s in seed_list(args.seeds)]
        report[workload] = {}
        print(f"{workload}: {len(runs)} runs of {seconds:g} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "values": values, "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:42s} median {med:12.6g}  spread {spread:7.2%}"
                  + ("" if bound is None else f"  bound {bound:.0%}") + flag)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
