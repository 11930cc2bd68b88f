"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with PYTHONHASHSEED derived from the seed.  Prints a
human-readable summary, then as its last line one JSON object with the
keys correct, attempted, failed and metrics.  Exit code 0 on success, 1 on
a wrong answer, on an op that raised an exception its workload does not
tolerate, or when the library's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wordproblem", "closure-build", "closure-query")
CLI_REPEATS = 5  # cli.subprocess_s: median of this many calls per command


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import nestword from the checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nestword", "__init__.py")):
        raise SystemExit(f"error: no nestword sources under {src}")
    sys.path.insert(0, src)
    import nestword

    if not os.path.abspath(nestword.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: nestword imported from {nestword.__file__}, not {src}")


def metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name, seed, workdir, tracer):
    if name == "wordproblem":
        from .wordproblem import Workload
    elif name == "closure-build":
        from .closure_build import Workload
    else:
        from .closure_query import Workload
    return Workload(seed, workdir, tracer)


def measure(wl, seconds: float, tracer, harness) -> tuple:
    """End-to-end metrics, measured with tracing off, and their raw values."""
    speed = harness.HostSpeed()
    raw_setup, setup_s = harness.median_setup(wl.setup, speed)
    setup_rss_mb = harness.peak_rss_mb()
    loop = harness.closed_loop(wl, wl.blocks(), seconds, tracer, speed)
    lat, raw = loop.latencies, loop.raw_latencies
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": loop.ops_per_s(),
        "latency_p50_ms": 1e3 * harness.percentile(lat, 0.50),
        "latency_p95_ms": 1e3 * harness.percentile(lat, 0.95),
        "output_transitions": float(wl.output_transitions),
        "setup_rss_mb": setup_rss_mb,
    }
    raw_metrics = {
        "setup_s": raw_setup,
        "ops_per_s": loop.ops_per_s(raw=True),
        "latency_p50_ms": 1e3 * harness.percentile(raw, 0.50),
        "latency_p95_ms": 1e3 * harness.percentile(raw, 0.95),
    }
    return metrics, raw_metrics, [loop]


def cli_seconds(wl, harness, speed) -> float:
    """Mean over the workload's CLI commands of each one's median time over
    CLI_REPEATS subprocess calls; every call's exit code and output are
    checked."""
    per_command = []
    for argv, expected_code, check_stdout in wl.cli_calls():
        runs = [speed.timed(harness.run_cli, ROOT, argv) for _ in range(CLI_REPEATS)]
        for _, _, proc in runs:
            harness.expect(proc.returncode == expected_code,
                           f"`nestword {argv[0]}` exited {proc.returncode}, expected {expected_code}")
            if check_stdout:
                check_stdout(proc.stdout)
        per_command.append(statistics.median(c for _, c, _ in runs))
    return statistics.fmean(per_command)


def trace(wl, seconds: float, tracer, harness, names) -> tuple:
    """Per-layer metrics from spans, and the CLI's subprocess time.

    After one untraced warm-up block, each block runs twice in a row,
    untraced and then traced, until `seconds` have passed; the tracing
    overhead is the ratio of the two passes' op times.
    """
    speed = harness.HostSpeed()
    with tracer.root("setup"):
        wl.setup()
    blocks = wl.blocks()
    tracer.enabled = False
    warmup = harness.closed_loop(wl, blocks, 0, tracer, speed, max_blocks=1)
    loops = {False: [], True: []}
    start = harness.perf_counter()
    for block in blocks:
        for enabled in (False, True):
            tracer.enabled = enabled
            loops[enabled].append(harness.closed_loop(wl, [block], 0, tracer, speed))
        if harness.perf_counter() - start >= seconds:
            break
    plain, traced = loops[False], loops[True]
    wl.trace_extra()
    metrics = harness.layer_metrics(
        names, tracer, sum(lp.attempted for lp in traced), wl.shallow_max, wl.deep_min)
    metrics["trace.overhead_ratio"] = (
        sum(sum(lp.latencies) for lp in traced) / sum(sum(lp.latencies) for lp in plain))
    metrics["trace.coverage_ratio"] = harness.coverage_ratio(tracer)
    metrics["cli.subprocess_s"] = cli_seconds(wl, harness, speed)
    return metrics, {}, [warmup] + plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    from . import harness

    spec = metric_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = harness.Tracer(bool(args.trace))
    loops = []
    try:
        wl = make_workload(args.workload, args.seed, workdir, tracer)
        harness.freeze_inputs()
        if args.trace:
            values, raw, loops = trace(wl, args.seconds, tracer, harness, list(units))
            tracer.write(os.path.join(
                ROOT, ".perfbench_out", f"trace-{args.workload}-{args.seed}.txt"))
        else:
            values, raw, loops = measure(wl, args.seconds, tracer, harness)
    except harness.WrongAnswer as exc:
        failed = int(isinstance(exc, harness.OpRaised))
        what = "unexpected exception" if failed else "wrong answer"
        print(f"{what} in {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"error: metrics out of step with BENCHMARK.json: {sorted(missing)}")
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for lp in loops:
        for name, (count, tb) in lp.failures.items():
            print(f"{count} ops raised {name}; first traceback:\n{tb}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {attempted} ops in "
          f"{sum(lp.blocks for lp in loops)} blocks, failed_ratio={failed / max(attempted, 1):.4g}")
    for name in units:
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {values[name]:.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
