"""Macrobenchmark: the batched offline pipeline vs the per-sample loop.

The paper's offline phase benchmarks hundreds of thousands of random legal
kernels on the device, and its runtime phase re-benchmarks a top-k
shortlist.  Before the batched simulator, both walked the analytic model
chain one (config, shape) pair at a time in pure Python; now dataset
generation is sample-shapes-then-batch-evaluate (vectorized rejection
sampling + one ``benchmark_many`` array pass), and re-ranking prices the
whole shortlist in one call.

This bench measures both against their per-sample references and asserts:

* dataset-generation throughput is >= 10x the per-sample loop
  (REPRO_BENCH_SMOKE=1 shrinks budgets and relaxes the floor to 3x for CI);
* shortlist re-ranking beats the per-candidate loop;
* batched measurements are *bit-identical* to the scalar simulator chain
  (spot-checked here; tests/test_simulator_batched.py holds the full bar).

With ``--json`` the numbers also land in results/BENCH_offline_throughput.json.
"""

import os
import time

import numpy as np

from repro.core.ops import get_op
from repro.core.types import DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.inference.search import Prediction
from repro.inference.topk import rerank
from repro.sampling.dataset import (
    _sample_legal_configs,
    fit_generative_models,
    generate_dataset,
)
from tests.oracles import SCALAR_BENCHMARK, generate_dataset_loop

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
N_BATCHED = int(os.environ.get(
    "REPRO_OFFLINE_BENCH_N", "600" if SMOKE else "6000"
))
N_LOOP = max(50, N_BATCHED // 10)
SPEEDUP_FLOOR = 3.0 if SMOKE else 10.0
SHORTLIST = 100
RERANK_REPS = 3


def test_bench_offline_throughput(results_recorder):
    device = TESLA_P100
    spec = get_op("gemm")
    rng = np.random.default_rng(0)
    samplers = fit_generative_models(
        device, op="gemm", dtypes=(DType.FP32,), rng=rng,
        target_accepted=200,
    )

    # --- dataset generation: batched pipeline vs per-sample loop --------
    generate_dataset(  # warm-up (imports, caches)
        device, "gemm", 100, np.random.default_rng(1),
        samplers=samplers, dtypes=(DType.FP32,),
    )
    t0 = time.perf_counter()
    generate_dataset(
        device, "gemm", N_BATCHED, np.random.default_rng(2),
        samplers=samplers, dtypes=(DType.FP32,),
    )
    batched_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    generate_dataset_loop(
        device, "gemm", N_LOOP, np.random.default_rng(2),
        samplers=samplers, dtypes=(DType.FP32,),
    )
    loop_s = time.perf_counter() - t0
    batched_rate = N_BATCHED / batched_s
    loop_rate = N_LOOP / loop_s
    speedup = batched_rate / loop_rate

    # --- bit-identity spot check: batched == scalar chain ---------------
    shape_sampler = spec.make_shape_sampler((DType.FP32,))
    check_rng = np.random.default_rng(3)
    shapes = [shape_sampler(check_rng) for _ in range(40)]
    cfgs = _sample_legal_configs(
        device, spec, samplers[DType.FP32], DType.FP32, len(shapes),
        check_rng,
    )
    many = spec.benchmark_pairs(device, cfgs, shapes, reps=RERANK_REPS)
    scalar = np.array([
        SCALAR_BENCHMARK[spec.name](device, c, s, reps=RERANK_REPS)
        for c, s in zip(cfgs, shapes)
    ])
    bit_identical = bool(np.array_equal(many, scalar))
    assert bit_identical, "batched results diverge from the scalar chain"

    # --- shortlist re-ranking: one batched call vs per-candidate loop ---
    shape = GemmShape(1024, 1024, 1024, DType.FP32, False, True)
    shortlist_cfgs = _sample_legal_configs(
        device, spec, samplers[DType.FP32], DType.FP32, SHORTLIST,
        np.random.default_rng(4),
    )
    cands = [
        Prediction(config=c, predicted_tflops=1.0) for c in shortlist_cfgs
    ]
    rerank(device, shape, cands, reps=RERANK_REPS)  # warm-up
    t0 = time.perf_counter()
    ranked = rerank(device, shape, cands, reps=RERANK_REPS)
    rerank_batched_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    loop_vals = sorted(
        (
            SCALAR_BENCHMARK[spec.name](device, c, shape, reps=RERANK_REPS)
            for c in shortlist_cfgs
        ),
        reverse=True,
    )
    rerank_loop_s = time.perf_counter() - t0
    assert [r.measured_tflops for r in ranked] == loop_vals
    rerank_speedup = rerank_loop_s / rerank_batched_s

    lines = [
        "Offline throughput: batched simulator vs per-sample loop "
        f"(gemm fp32, {device.name})",
        f"{'stage':>28s} {'batched':>12s} {'loop':>12s} {'speedup':>8s}",
        f"{'dataset generation':>28s} {batched_rate:9.0f}/s "
        f"{loop_rate:9.0f}/s {speedup:7.1f}x",
        f"{'rerank {} candidates'.format(SHORTLIST):>28s} "
        f"{rerank_batched_s * 1e3:10.1f}ms {rerank_loop_s * 1e3:10.1f}ms "
        f"{rerank_speedup:7.1f}x",
        f"bit-identical to scalar chain: {bit_identical}"
        f"   (n_batched={N_BATCHED}, n_loop={N_LOOP}, smoke={SMOKE})",
    ]
    results_recorder(
        "offline_throughput",
        "\n".join(lines),
        data={
            "device": device.name,
            "op": "gemm",
            "n_batched": N_BATCHED,
            "n_loop": N_LOOP,
            "smoke": SMOKE,
            "dataset_batched_samples_per_s": batched_rate,
            "dataset_loop_samples_per_s": loop_rate,
            "dataset_speedup": speedup,
            "rerank_candidates": SHORTLIST,
            "rerank_batched_ms": rerank_batched_s * 1e3,
            "rerank_loop_ms": rerank_loop_s * 1e3,
            "rerank_speedup": rerank_speedup,
            "bit_identical": bit_identical,
        },
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"dataset generation only {speedup:.1f}x over the per-sample loop "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    assert rerank_speedup >= 2.0, (
        f"re-ranking only {rerank_speedup:.1f}x over the per-candidate loop"
    )
