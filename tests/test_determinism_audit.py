"""Deterministic-seed audit: the whole offline pipeline, twice, bit-equal.

PR 3 vectorized the offline pipeline under an explicit RNG-stream
contract: for a given seed, batched dataset generation draws exactly the
same samples, the MLP fit consumes exactly the same stream, and the
simulated device's noise is a pure function of its inputs.  Everything
downstream — the saved fits, the profile caches, and the deterministic
parts of every BENCH_*.json smoke number (speedups are wall-clock;
configs, measurements and bit-identity flags are not) — leans on that
contract.

This audit runs the smoke-scale pipeline twice, end to end, and asserts
bit-identical artifacts at every stage: dataset tensors, fitted weights,
validation MSE, searched top-k lists, re-ranked measurements, and the
engine replies built from them.  If an RNG stream is ever reordered (the
exact regression batching could have introduced), this is the test that
names the stage.
"""

import numpy as np

from repro.core.tuner import Isaac
from repro.core.types import DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.sampling.dataset import fit_generative_models, generate_dataset
from tests.oracles import SCALAR_BENCHMARK

N_SAMPLES = 500
SEED = 123
QUERY = GemmShape(384, 384, 768, DType.FP32, False, True)


def _tuned() -> Isaac:
    tuner = Isaac(TESLA_P100, op="gemm", dtypes=(DType.FP32,))
    tuner.tune(n_samples=N_SAMPLES, seed=SEED, epochs=8,
               generative_target=80)
    return tuner


def test_offline_pipeline_is_bit_reproducible():
    first = _tuned()
    second = _tuned()

    # Stage 1 — data generation: identical sample tensors.
    assert np.array_equal(first.dataset.x, second.dataset.x)
    assert np.array_equal(first.dataset.y, second.dataset.y)

    # Stage 2 — regression: identical fit, not merely similar.
    assert first.fit_result.val_mse == second.fit_result.val_mse
    for a, b in zip(first.fit_result.model.layers,
                    second.fit_result.model.layers):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)
    assert np.array_equal(first.fit_result.x_scaler.mean_,
                          second.fit_result.x_scaler.mean_)
    assert np.array_equal(first.fit_result.x_scaler.scale_,
                          second.fit_result.x_scaler.scale_)

    # Stage 3 — runtime: identical shortlists and identical winner.
    top_a = first.top_k(QUERY, 20)
    top_b = second.top_k(QUERY, 20)
    assert [p.config for p in top_a] == [p.config for p in top_b]
    assert [p.predicted_tflops for p in top_a] == [
        p.predicted_tflops for p in top_b
    ]
    best_a = first.best_kernel(QUERY, k=20, reps=3)
    best_b = second.best_kernel(QUERY, k=20, reps=3)
    assert best_a.config == best_b.config
    assert best_a.measured_tflops == best_b.measured_tflops


def test_batched_dataset_stream_matches_seeded_rerun():
    """generate_dataset with an equal-state rng is bit-stable on its own
    (the tuner-level audit above could mask a compensating pair of
    divergences; this pins the stage in isolation)."""
    device = TESLA_P100
    samplers = fit_generative_models(
        device, op="gemm", dtypes=(DType.FP32,),
        rng=np.random.default_rng(9), target_accepted=80,
    )
    runs = [
        generate_dataset(
            device, "gemm", 300, np.random.default_rng(42),
            samplers=samplers, dtypes=(DType.FP32,),
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].x, runs[1].x)
    assert np.array_equal(runs[0].y, runs[1].y)


def test_simulated_measurements_are_pure():
    """The BENCH smoke numbers' measurement side: same (config, shape,
    reps) in, bit-identical TFLOPS out, batched or repeated."""
    from repro.core.ops import get_op
    from repro.sampling.dataset import _sample_legal_configs

    device = TESLA_P100
    spec = get_op("gemm")
    rng = np.random.default_rng(5)
    sampler = fit_generative_models(
        device, op="gemm", dtypes=(DType.FP32,), rng=rng,
        target_accepted=80,
    )[DType.FP32]
    shapes = [spec.make_shape_sampler((DType.FP32,))(rng)
              for _ in range(24)]
    cfgs = _sample_legal_configs(
        device, spec, sampler, DType.FP32, len(shapes), rng
    )
    once = spec.benchmark_pairs(device, cfgs, shapes, reps=3)
    again = spec.benchmark_pairs(device, cfgs, shapes, reps=3)
    assert np.array_equal(once, again)
    scalar = np.array([
        SCALAR_BENCHMARK[spec.name](device, c, s, reps=3)
        for c, s in zip(cfgs, shapes)
    ])
    assert np.array_equal(once, scalar)
