"""Checks on the end-to-end benchmark itself (``benchmarks/e2e``).

The traffic generators must be pure functions of the seed, the metric
vocabulary must match ``BENCHMARK.json``, and a tiny run of two
workloads must pass its own correctness checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import compare
import harness
from compare import judge
from workloads import WORKLOADS, request_key

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SMOKE_TUNE = {
    op: dict(n_samples=300, epochs=3, generative_target=40, seed=0)
    for op in ("gemm", "conv", "bgemm")
}


def _keys(name: str, seed: int, n: int = 400) -> list[str]:
    return [request_key(r) for r in islice(WORKLOADS[name].traffic(seed), n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traffic_is_a_function_of_the_seed(name):
    assert _keys(name, 3) == _keys(name, 3)
    assert _keys(name, 3) != _keys(name, 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quality_set_is_fixed_and_served_first(name):
    """``kernel_speedup_vs_vendor`` is taken over a set that every seed
    sends before any other shape."""
    quality = [request_key(r) for r in WORKLOADS[name].quality()]
    assert quality == [request_key(r) for r in WORKLOADS[name].quality()]
    for seed in (3, 4):
        first = []
        for key in _keys(name, seed, 20000):
            if key not in first:
                first.append(key)
            if len(first) == len(quality):
                break
        assert sorted(first) == sorted(quality)


def test_benchmark_json_names_the_workloads():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


def test_rounds_are_whole_blocks():
    """A round is one block with its repeats: every shape of the round is
    sent ``repeats`` times within it, and no shape spans two rounds."""
    for wl in WORKLOADS.values():
        keys = _keys(wl.name, 3, 2 * wl.round_n)
        for r in (keys[:wl.round_n], keys[wl.round_n:]):
            assert len(r) == len(set(r)) * wl.repeats
        assert not set(keys[:wl.round_n]) & set(keys[wl.round_n:])


def test_smoke_cold_mixed(tmp_path):
    res = harness.run("cold-mixed", 1, 0.5, False, tune=SMOKE_TUNE,
                      setup_repeats=1, scratch=tmp_path)
    assert res["correct"] and res["failed"] == 0
    assert res["info"]["misses"] > 0
    for metric in SPEC["end_to_end"]:
        assert res["values"][metric["name"]] > 0, metric["name"]


def test_smoke_cold_gemm_traced(tmp_path):
    res = harness.run("cold-gemm", 1, 0.5, True, tune=SMOKE_TUNE,
                      setup_repeats=1, scratch=tmp_path)
    assert res["correct"] and res["failed"] == 0
    layers = res["layers"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    assert layers["search.top_k_ms_per_shape.p50"] > 0
    assert layers["topk.pairs_benchmarked"] > 0
    assert 0.9 <= layers["miss_breakdown.coverage"] <= 1.0


def test_run_fails_without_the_service_source(tmp_path):
    """A checkout holding only the benchmark must fail, printing no result."""
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold-gemm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _summary(values):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "q1": ordered[0],
            "q3": ordered[-1], "values": values}


@pytest.mark.parametrize("base, new, better, verdict", [
    ([100, 101, 102], [100, 101, 102], "lower", "within bound"),
    ([100, 101, 102], [120, 121, 122], "lower", "worse"),
    ([100, 101, 102], [120, 121, 122], "higher", "better"),
    ([50, 100, 150], [60, 110, 160], "lower", "unresolved"),
    ([50, 100, 150], [10, 20, 30], "lower", "better"),
])
def test_compare_verdicts(base, new, better, verdict):
    assert judge(_summary(base), _summary(new), better, 0.1) == verdict


def _result_file(path, workload, online, speedup):
    summary = {m["name"]: {"median": 1.0, "q1": 1.0, "q3": 1.0,
                           "values": [1.0]} for m in SPEC["end_to_end"]}
    summary["kernel_speedup_vs_vendor"] = {
        "median": speedup, "q1": speedup, "q3": speedup, "values": [speedup]}
    meta = {"workload": workload, "trace": 0, "commit": "c", "dirty": False,
            "params": {"online": online}}
    path.write_text(json.dumps(
        {"results": [{"meta": meta, "summary": summary, "runs": []}]}))
    return str(path)


@pytest.mark.parametrize("online, exit_code", [(False, 1), (True, 0)])
def test_compare_holds_frozen_kernel_quality_exactly(tmp_path, online,
                                                     exit_code):
    """A 0.1% drop in kernel speedup is a regression wherever the model is
    frozen, and within the bound where it learns online."""
    base = _result_file(tmp_path / "a.json", "w", online, 3.0)
    new = _result_file(tmp_path / "b.json", "w", online, 2.997)
    assert compare.main([base, new]) == exit_code
