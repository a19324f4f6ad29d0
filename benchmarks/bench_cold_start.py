"""Macrobenchmark: cold-start candidate supply, scalar vs array-native.

Before this pipeline, the first query of a (device, dtype) walked GEMM's
~2M-point product space one dict at a time through scalar ``is_legal``
(seconds), and *every new CONV query shape* projected / factorized /
legality-checked the whole GEMM tile set in a Python loop.  The candidate
supply is now array-native end to end: ``ParamSpace.grid`` materializes
X̂ as struct-of-arrays columns, ``legal_mask`` filters it in one pass,
the log-feature matrix is built straight from the surviving columns,
CONV candidates come from one vectorized base per (device, dtype) from
which each tile-factorization bucket derives only its six split
columns, and config *objects* stay lazy (``LazyConfigList``) — only the
top-k rows a search touches are ever constructed.  The timed sections
therefore measure exactly what a first query pays; the parity asserts
materialize everything afterwards.

This bench times both paths and asserts:

* GEMM enumeration (``legal_configs``) is >= 10x the scalar walk
  (REPRO_BENCH_SMOKE=1 relaxes the floor to 4x for noisy CI runners);
* first-query CONV candidate generation (configs + feature matrix:
  the (device, dtype) base plus its first bucket) is >= 5x the scalar
  loop (2.5x under smoke);
* a new bucket once the base exists (a shape in a second tile
  factorization) is >= 3x faster than that first query (2x under
  smoke), so a return to generating every bucket from the GEMM set
  fails;
* the candidate sets and feature matrices are **bit-identical** to the
  scalar reference, in identical order;
* a warmed :class:`~repro.core.candidate_store.CandidateStore` serves the
  same sets with zero product-space enumeration.

With ``--json`` the numbers land in ``BENCH_cold_start.json`` (repo root
and benchmarks/results/), the machine-readable trajectory CI tracks.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.candidate_store import CandidateStore
from repro.core.space import ParamSpace
from repro.core.types import ConvShape, DType
from repro.gpu.device import TESLA_P100
from repro.inference import conv_search
from repro.inference.search import (
    clear_cache,
    legal_configs,
    legal_configs_reference,
)
from repro.sampling.features import conv_config_matrix

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
GEMM_FLOOR = 4.0 if SMOKE else 10.0
CONV_FLOOR = 2.5 if SMOKE else 5.0
NEW_BUCKET_FLOOR = 2.0 if SMOKE else 3.0

CONV_SHAPE = ConvShape.from_output(n=4, p=14, q=14, k=64, c=128, r=3, s=3)
#: A shape in another tile factorization than CONV_SHAPE's.
NEW_BUCKET_SHAPE = ConvShape.from_output(
    n=32, p=7, q=7, k=64, c=64, r=3, s=3
)


def test_bench_cold_start(results_recorder):
    device = TESLA_P100
    dtype = DType.FP32

    # --- GEMM enumeration: scalar walk vs gridded legal_mask ------------
    t0 = time.perf_counter()
    ref_cfgs, ref_mat = legal_configs_reference(device, dtype, "gemm")
    scalar_s = time.perf_counter() - t0

    clear_cache()
    t0 = time.perf_counter()
    cfgs, mat = legal_configs(device, dtype, "gemm")
    vector_s = time.perf_counter() - t0
    gemm_speedup = scalar_s / vector_s

    gemm_identical = cfgs == ref_cfgs and np.array_equal(mat, ref_mat)
    assert gemm_identical, "vectorized enumeration diverges from scalar"

    # --- CONV first-query candidate generation --------------------------
    # Scalar path cost per new shape: the candidate loop plus the
    # config-feature matrix build the search needs (GEMM set warm).
    t0 = time.perf_counter()
    ref_conv = conv_search.conv_candidates(device, CONV_SHAPE)
    ref_conv_mat = conv_config_matrix(ref_conv, log=True)
    conv_scalar_s = time.perf_counter() - t0

    conv_search.clear_bucket_cache()
    t0 = time.perf_counter()
    conv_cfgs, conv_mat = conv_search.conv_candidates_batch(
        device, CONV_SHAPE
    )
    conv_vector_s = time.perf_counter() - t0
    conv_speedup = conv_scalar_s / conv_vector_s

    # A new bucket once the base exists: only its split columns.  Timed
    # before the parity checks, which build every config object.
    assert conv_search.conv_bucket_key(
        device, NEW_BUCKET_SHAPE
    ) != conv_search.conv_bucket_key(device, CONV_SHAPE)
    t0 = time.perf_counter()
    new_cfgs, new_mat = conv_search.conv_candidates_batch(
        device, NEW_BUCKET_SHAPE
    )
    new_bucket_s = time.perf_counter() - t0
    new_bucket_speedup = conv_vector_s / new_bucket_s

    ref_new = conv_search.conv_candidates(device, NEW_BUCKET_SHAPE)
    conv_identical = (
        conv_cfgs == ref_conv
        and np.array_equal(conv_mat, ref_conv_mat)
        and new_cfgs == ref_new
        and np.array_equal(new_mat, conv_config_matrix(ref_new, log=True))
    )
    assert conv_identical, "vectorized CONV generation diverges from scalar"

    # Repeat shapes in the same bucket skip generation entirely.
    same_bucket = ConvShape.from_output(
        n=3, p=20, q=14, k=32, c=64, r=3, s=3
    )
    t0 = time.perf_counter()
    conv_search.conv_candidates_batch(device, same_bucket)
    bucket_hit_ms = (time.perf_counter() - t0) * 1e3

    # --- Candidate store: a warmed directory never re-enumerates --------
    with tempfile.TemporaryDirectory() as tmp:
        store = CandidateStore(Path(tmp) / "candidates")
        store.save()
        clear_cache()
        store.load()
        orig_grid = ParamSpace.grid
        orig_iter = ParamSpace.iter_points

        def _forbidden(self, *a, **k):
            raise AssertionError("store hit must not enumerate")

        ParamSpace.grid = _forbidden
        ParamSpace.iter_points = _forbidden
        try:
            t0 = time.perf_counter()
            stored_cfgs, stored_mat = legal_configs(device, dtype, "gemm")
            store_s = time.perf_counter() - t0
        finally:
            ParamSpace.grid = orig_grid
            ParamSpace.iter_points = orig_iter
        assert stored_cfgs == ref_cfgs and np.array_equal(
            stored_mat, ref_mat
        ), "store round-trip diverges"

    text = "\n".join([
        "Cold-start candidate supply: array-native vs scalar "
        f"(fp32, {device.name})",
        f"{'stage':>38s} {'scalar':>10s} {'vector':>10s} {'speedup':>8s}",
        f"{'GEMM enumeration (~1.9M points)':>38s} {scalar_s:9.2f}s "
        f"{vector_s:9.2f}s {gemm_speedup:7.1f}x",
        f"{'CONV first-query candidates':>38s} {conv_scalar_s:9.2f}s "
        f"{conv_vector_s:9.2f}s {conv_speedup:7.1f}x",
        f"{'CONV same-bucket repeat':>38s} {'—':>10s} "
        f"{bucket_hit_ms:7.2f}ms {'':>8s}",
        f"{'CONV new bucket (vs first query)':>38s} "
        f"{conv_vector_s * 1e3:8.1f}ms {new_bucket_s * 1e3:8.1f}ms "
        f"{new_bucket_speedup:7.1f}x",
        f"{'store-warmed cold start':>38s} {'—':>10s} "
        f"{store_s:9.2f}s {'':>8s}",
        f"candidates: gemm={len(cfgs)}, conv={len(conv_cfgs)}; "
        f"bit-identical to scalar: {gemm_identical and conv_identical} "
        f"(smoke={SMOKE})",
    ])
    results_recorder(
        "cold_start",
        text,
        data={
            "device": device.name,
            "dtype": dtype.name,
            "smoke": SMOKE,
            "gemm_candidates": len(cfgs),
            "gemm_scalar_s": scalar_s,
            "gemm_vectorized_s": vector_s,
            "gemm_speedup": gemm_speedup,
            "conv_candidates": len(conv_cfgs),
            "conv_scalar_s": conv_scalar_s,
            "conv_vectorized_s": conv_vector_s,
            "conv_speedup": conv_speedup,
            "conv_bucket_hit_ms": bucket_hit_ms,
            "conv_new_bucket_s": new_bucket_s,
            "conv_new_bucket_speedup": new_bucket_speedup,
            "store_cold_start_s": store_s,
            "bit_identical": bool(gemm_identical and conv_identical),
        },
    )

    assert gemm_speedup >= GEMM_FLOOR, (
        f"GEMM enumeration only {gemm_speedup:.1f}x over the scalar walk "
        f"(floor {GEMM_FLOOR}x)"
    )
    assert conv_speedup >= CONV_FLOOR, (
        f"CONV generation only {conv_speedup:.1f}x over the scalar loop "
        f"(floor {CONV_FLOOR}x)"
    )
    assert bucket_hit_ms < 50.0, "bucket hit should be (sub-)millisecond"
    assert new_bucket_speedup >= NEW_BUCKET_FLOOR, (
        f"a new CONV bucket only {new_bucket_speedup:.1f}x faster than "
        f"the first conv query (floor {NEW_BUCKET_FLOOR}x)"
    )


if __name__ == "__main__":
    class _Echo:
        def __call__(self, exp_id, text, data=None):
            print(text)

    test_bench_cold_start(_Echo())
