"""Closed-loop runner, span tracer and metric derivation shared by the workloads."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager

from nestword import closures

perf_counter = time.perf_counter
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups


class WrongAnswer(AssertionError):
    """The library gave an answer that the benchmark's oracle contradicts."""


class OpRaised(WrongAnswer):
    """An op raised an exception that a healthy run of its workload never raises."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around the benchmark's calls into the library.

    A span is [name, start, end, op id, parent index, attrs].  Spans stay
    in memory and are written out once, at exit.  A closed span becomes a
    tuple, which the collector stops tracking once it has seen it, so the
    spans of earlier ops do not lengthen the collections inside later
    ones.  A disabled tracer calls straight through and records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open: list = []
        self.op = None

    def call(self, name: str, fn, *args, **attrs):
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self.op, self._open[-1] if self._open else -1, attrs]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args)
        except Exception:
            attrs["failed"] = True
            raise
        finally:
            span[2] = perf_counter()
            self.spans[idx] = tuple(span)
            self._open.pop()

    def note(self, **attrs) -> None:
        """Attach attributes (output sizes) to the span that finished last."""
        if self.enabled:
            self.spans[-1][5].update(attrs)

    @contextmanager
    def root(self, name: str, op=None):
        """A benchmark-side span that parents the layer spans inside it."""
        if not self.enabled:
            yield
            return
        self.op = op
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, op, -1, {}]
        self.spans.append(span)
        self._open.append(idx)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.spans[idx] = tuple(span)
            self._open.pop()
            self.op = None

    def self_times(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, op, parent, attrs in self.spans:
                fh.write(repr((name, t0, t1, op, parent, attrs)) + "\n")


# ---------------------------------------------------------------------------
# host speed

# Nominal duration of one reference probe: timings are reported as if each
# probe had taken this long.
REFERENCE_S = 1.6e-3
PROBE_WINDOW = 5  # recent probes whose median corrects an op
PROBE_EVERY_S = 0.2  # an op is preceded by a probe at most this often


def _reference_work() -> str:
    """Fixed interpreter work of the library's kind: tuple keys, dicts, sets,
    string formatting, JSON."""
    table, seen = {}, set()
    for i in range(1500):
        key = (i % 50, "q%d" % i)
        table[key] = (i, key[1][1:])
        seen.add(key)
    return json.dumps([list(k) for k in list(table)[:200]])


class HostSpeed:
    """Corrects measured intervals for the host's drifting speed.

    The benchmark shares its machine: a fixed pure-Python loop timed in
    10 s windows varies by about 10% (quartile distance over median), and
    the whole machine runs up to 1.9x slower for minutes at a time.  A
    probe times `_reference_work` (collector paused); an interval measured
    next to probes is scaled by REFERENCE_S over the median of the recent
    probes.  Probes are never part of an interval they correct.
    """

    def __init__(self):
        self.samples: deque = deque(maxlen=PROBE_WINDOW)
        self.last = -math.inf

    def probe(self) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _reference_work()
            self.samples.append(perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()
        self.last = perf_counter()

    def due(self) -> None:
        """Probe if the last probe is more than PROBE_EVERY_S old."""
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)

    def timed(self, fn, *args) -> tuple:
        """(raw seconds, corrected seconds, result) of fn(*args), with three
        probes on either side."""
        for _ in range(3):
            self.probe()
        t0 = perf_counter()
        result = fn(*args)
        raw = perf_counter() - t0
        before = list(self.samples)[-3:]
        for _ in range(3):
            self.probe()
        ref = statistics.median(before + list(self.samples)[-3:])
        return raw, raw * REFERENCE_S / ref, result


# ---------------------------------------------------------------------------
# the closed loop


class LoopResult:
    def __init__(self):
        self.latencies: list = []  # corrected seconds, one per completed op
        self.raw_latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}  # exception type -> (count, first traceback)
        self.blocks = 0
        self.block_rates: list = []  # ops per corrected second of op time, per block
        self.raw_block_rates: list = []

    def ops_per_s(self, raw: bool = False) -> float:
        """Median over blocks of the block's throughput.

        A single query whose configuration set explodes can take longer
        than all other ops of a run together; the median over blocks keeps
        such an op from deciding the run's throughput, while the
        percentiles and the per-layer deep-run metrics still show it.
        """
        return statistics.median(self.raw_block_rates if raw else self.block_rates)


def closed_loop(wl, blocks, seconds: float, tracer: Tracer, speed: HostSpeed,
                max_blocks: int | None = None) -> LoopResult:
    """One client: each op starts after the previous one and its check end.

    Whole blocks run until `seconds` have passed (or `max_blocks` blocks),
    so every run samples each block's strata in full.  Only the library
    calls inside `wl.run_op` are timed; the oracle check is not.  An op
    that raises one of `wl.tolerated` is counted as failed and left out of
    the latencies; any other exception fails the run as OpRaised.
    """
    res = LoopResult()
    start = perf_counter()
    for block in blocks:
        first = len(res.latencies)
        for item in block:
            res.attempted += 1
            speed.due()
            with tracer.root("op", res.attempted):
                t0 = perf_counter()
                try:
                    out = wl.run_op(item)
                except wl.tolerated as exc:  # counted and reported, never dropped
                    res.failed += 1
                    count, tb = res.failures.get(type(exc).__name__, (0, traceback.format_exc()))
                    res.failures[type(exc).__name__] = (count + 1, tb)
                    continue
                except WrongAnswer:
                    raise
                except Exception as exc:
                    traceback.print_exc()
                    raise OpRaised(f"{wl.label(item)} raised {type(exc).__name__}: {exc}") from exc
                elapsed = perf_counter() - t0
            res.raw_latencies.append(elapsed)
            res.latencies.append(elapsed * speed.factor())
            wl.check(item, out)
            del out  # the next op's collections must not traverse this op's output
        done = res.latencies[first:]
        if done:
            res.block_rates.append(len(done) / sum(done))
            res.raw_block_rates.append(len(done) / sum(res.raw_latencies[first:]))
        res.blocks += 1
        if perf_counter() - start >= seconds or res.blocks == max_blocks:
            break
    return res


def freeze_inputs() -> None:
    """Collect, then move every live object out of the collector's view.

    Called once, after the workload has made its inputs and oracle tables
    and before any set-up: frozen, they no longer lengthen the collections
    that the library's allocations trigger inside timed ops.  What the
    library builds or keeps from then on stays in the collector's view.
    """
    gc.collect()
    gc.freeze()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_setup(setup, speed: HostSpeed) -> tuple:
    """Run set-up SETUP_REPEATS times, collecting the previous one's garbage
    in between; median (raw, corrected) seconds."""
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        r, c, _ = speed.timed(setup)
        raw.append(r)
        corrected.append(c)
    return statistics.median(raw), statistics.median(corrected)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(root: str, argv: list) -> subprocess.CompletedProcess:
    """`python -m nestword argv` from the checkout, library from its src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run(
        [sys.executable, "-m", "nestword", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )


# ---------------------------------------------------------------------------
# per-layer metrics from spans

QUANTITIES = {
    "us_per_sym", "ms", "out_states", "out_transitions", "failed", "bytes",
    "sparse_s", "dense_s", "self_ms_per_op",
}
SHORT_MAX, LONG_MIN = 64, 1024


def _band_filter(band: str | None, shallow_max, deep_min):
    """Short and long are word lengths; shallow and deep are nesting depths,
    whose thresholds each workload sets (None: no such band)."""
    if band is None:
        return lambda a: True
    return {
        "short": lambda a: a.get("n", 0) <= SHORT_MAX,
        "long": lambda a: a.get("n", 0) >= LONG_MIN,
        "shallow": lambda a: shallow_max is not None and a.get("depth", 0) <= shallow_max,
        "deep": lambda a: deep_min is not None and a.get("depth", 0) >= deep_min,
    }[band]


def layer_metrics(names, tracer: Tracer, ops: int, shallow_max, deep_min) -> dict:
    """Value of each per-layer metric name, derived from the recorded spans.

    A name reads `<span name>.<quantity>[.<band>]`, except
    `<layer>.self_ms_per_op` (self time of the layer's spans inside ops)
    and `serialize.bytes` (mean size of a dumps output).  A metric whose
    span never ran in this workload reads 0.
    """
    own = tracer.self_times()
    spans = tracer.spans
    out = {}
    for metric in names:
        parts = metric.split(".")
        if parts[0] == "trace" or metric == "cli.subprocess_s":
            continue  # measured by the caller, not from spans
        if metric == "serialize.bytes":
            span_name, quantity, band = "serialize.dumps", "bytes", None
        else:
            qi = next(i for i, p in enumerate(parts) if p in QUANTITIES)
            span_name = ".".join(parts[:qi])
            quantity = parts[qi]
            band = parts[qi + 1] if qi + 1 < len(parts) else None
        if quantity == "self_ms_per_op":
            total = sum(
                own[i] for i, s in enumerate(spans)
                if s[0].split(".")[0] == span_name and s[3] is not None
            )
            out[metric] = 1e3 * total / max(ops, 1)
            continue
        keep = _band_filter(band, shallow_max, deep_min)
        picked = [
            (own[i], s[5]) for i, s in enumerate(spans)
            if s[0] == span_name and keep(s[5])
            and (quantity not in ("sparse_s", "dense_s") or s[5].get("case") == quantity[:-2])
        ]
        if quantity == "failed":
            out[metric] = float(sum(1 for _, a in picked if a.get("failed")))
        elif not picked:
            out[metric] = 0.0
        elif quantity == "us_per_sym":
            syms = sum(a.get("n", 0) for _, a in picked)
            out[metric] = 1e6 * sum(t for t, _ in picked) / max(syms, 1)
        elif quantity == "ms":
            out[metric] = 1e3 * statistics.fmean(t for t, _ in picked)
        elif quantity in ("sparse_s", "dense_s"):
            out[metric] = statistics.fmean(t for t, _ in picked)
        else:
            key = {"out_states": "states", "out_transitions": "transitions"}.get(quantity, quantity)
            out[metric] = statistics.fmean(a.get(key, 0) for _, a in picked)
    return out


def coverage_ratio(tracer: Tracer) -> float:
    """Share of the ops' wall time that layer spans cover."""
    op_time = layer_time = 0.0
    for s in tracer.spans:
        if s[0] == "op":
            op_time += s[2] - s[1]
        elif s[3] is not None and s[4] >= 0 and tracer.spans[s[4]][0] == "op":
            layer_time += s[2] - s[1]
    return layer_time / op_time if op_time else 0.0


def machine_size(m) -> tuple:
    """(states, transitions) of an Fsa, Vpa or Nvpa; one per nondeterministic choice."""
    if hasattr(m, "delta_c"):
        total = 0
        for table in (m.delta_c, m.delta_i, m.delta_r):
            for v in table.values():
                total += len(v) if isinstance(v, frozenset) else 1
        return len(m.states), total
    return len(m.states), len(m.delta)


def sizes(m) -> dict:
    """machine_size as span attributes."""
    states, transitions = machine_size(m)
    return {"states": states, "transitions": transitions}


# closure kind -> the nestword.closures function that builds it
CLOSURES = {
    "union": "vpl_union",
    "intersection": "vpl_intersection",
    "complement": "vpl_complement",
    "concat": "vpl_concat",
    "star": "vpl_star",
    "reverse": "vpl_reverse",
    "shuffle": "shuffle",
    "relabel": "relabel_image",
}


def build_closure(tracer: Tracer, kind: str, ms: list):
    """One traced closure construction on the input machines `ms`.

    `compcomp` is the complement of the complement; `prefix` is the
    PrefixDecider, whose span notes the sizes of the machine it decides for.
    """
    if kind == "prefix":
        out = tracer.call("closures.PrefixDecider", closures.PrefixDecider, ms[0])
        tracer.note(**sizes(ms[0]))
        return out
    if kind == "compcomp":
        kind, ms = "complement", [build_closure(tracer, "complement", ms)]
    name = CLOSURES[kind]
    out = tracer.call("closures." + name, getattr(closures, name), *ms)
    tracer.note(**sizes(out))
    return out
