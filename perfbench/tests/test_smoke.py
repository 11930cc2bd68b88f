"""Smoke test of the benchmark itself: python3 -m pytest perfbench/tests

Each workload runs one block (--seconds 0) with and without tracing and
must print every metric named in BENCHMARK.json with its unit.  A library
function patched to give a wrong verdict, or to raise where a healthy run
never raises, must make the run fail.
"""

import importlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import worker  # noqa: E402

worker.load_library()
from perfbench.closure_build import BUILDER_FNS  # noqa: E402

WORKLOADS = ("wordproblem", "closure-build", "closure-query")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, workload, trace):
    code = worker.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(capsys, workload, trace):
    code, result = run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _wrong_is_identity(spec, word):
    from nestword.groups import is_identity

    return not is_identity(spec, word)


def _wrong_nvpa_run(m, tw, *args):
    from nestword.machines import nvpa_run

    return not nvpa_run(m, tw, *args)


def _wrong_union(m1, m2):
    from nestword.closures import vpl_intersection

    return vpl_intersection(m1, m2)


@pytest.mark.parametrize("workload, module, name, fake", [
    ("wordproblem", "perfbench.wordproblem", "is_identity", _wrong_is_identity),
    ("closure-query", "perfbench.closure_query", "nvpa_run", _wrong_nvpa_run),
    ("closure-build", "nestword.closures", "vpl_union", _wrong_union),
])
def test_wrong_verdict_fails_the_run(capsys, monkeypatch, workload, module, name, fake):
    monkeypatch.setattr(importlib.import_module(module), name, fake)
    code, result = run(capsys, workload, 0)
    assert code != 0
    assert result["correct"] is False


def _raising_semidirect(n, m):
    raise RuntimeError("injected")


def test_raised_op_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(importlib.import_module("perfbench.closure_build"), "BUILDER_FNS",
                        {**BUILDER_FNS, "build_semidirect": _raising_semidirect})
    code, result = run(capsys, "closure-build", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
