"""Macrobenchmark: cold-start candidate supply, scalar vs array-native.

Before this pipeline, the first query of a (device, dtype) walked GEMM's
~2M-point product space one dict at a time through scalar ``is_legal``
(seconds), and *every new CONV query shape* projected / factorized /
legality-checked the whole GEMM tile set in a Python loop.  The candidate
supply is now array-native end to end: ``ParamSpace.grid`` materializes
X̂ as struct-of-arrays columns, ``legal_mask`` filters it in one pass,
the log-feature matrix is built straight from the surviving columns,
CONV candidates come from one vectorized base per (device, dtype) from
which each tile-factorization bucket derives only its split rows (one
per tile), and config *objects* stay lazy (``LazyConfigList``) — only the
top-k rows a search touches are ever constructed.  The timed sections
therefore measure exactly what a first query pays: a CONV bucket is
timed as the search derives it, a record without its log-feature
matrix; the parity asserts derive the matrices and materialize
everything afterwards.

This bench times both paths and asserts:

* GEMM enumeration (``legal_configs``) is >= GEMM_FLOOR x the scalar
  walk (REPRO_BENCH_SMOKE=1 relaxes the floor for noisy CI runners);
* first-query CONV candidate generation (the (device, dtype) base plus
  its first bucket's record) is >= CONV_FLOOR x the scalar loop and its
  feature matrix (10x under smoke), so a 10x slower base build fails;
* a new bucket's record once the base exists (a shape in a second tile
  factorization) is >= NEW_BUCKET_FLOOR x faster than that first query,
  so deriving a bucket's columns or matrix again fails;
* with a tiny-budget CONV fit and its cascade, the first search in a
  new bucket takes at most NEW_SEARCH_CEILING x a search in a warm one
  (the median over buckets the fit's calibration did not touch): a new
  bucket derives its split rows and its split term, never a matrix or
  a first-layer term of its own, so a return to either fails;
* the candidate sets and feature matrices are **bit-identical** to the
  scalar oracles in ``tests/oracles.py``, in identical order;
* a warmed :class:`~repro.core.candidate_store.CandidateStore` serves the
  same sets with zero product-space enumeration.

With ``--json`` the numbers land in ``BENCH_cold_start.json`` (repo root
and benchmarks/results/), the machine-readable trajectory CI tracks.
"""

import gc
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.candidate_store import CandidateStore
from repro.core.space import ParamSpace
from repro.core.tuner import Isaac
from repro.core.types import ConvShape, DType
from repro.gpu.device import TESLA_P100
from repro.inference import conv_search
from repro.inference.search import clear_cache, legal_configs
from repro.sampling.features import conv_config_matrix
from tests.oracles import conv_candidates, legal_configs_reference

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: Five full runs on a 2-CPU Xeon host read 54.6-61.0x.
GEMM_FLOOR = 10.0 if SMOKE else 25.0
CONV_FLOOR = 10.0 if SMOKE else 45.0
#: Five full runs read 269-417x: a new bucket's record takes ~0.1 ms,
#: against ~14 ms to derive its matrix again.
NEW_BUCKET_FLOOR = 20.0 if SMOKE else 50.0
#: Ceiling on (first search in a new bucket) / (search in a warm one);
#: five full runs read 1.01-1.09x (median over ten buckets).
NEW_SEARCH_CEILING = 2.2
#: Buckets the search ratio's median runs over.
N_SEARCH_BUCKETS = 10

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
    ref_conv = conv_candidates(device, CONV_SHAPE)
    ref_conv_mat = conv_config_matrix(ref_conv, log=True)
    conv_scalar_s = time.perf_counter() - t0

    conv_search.clear_bucket_cache()
    t0 = time.perf_counter()
    conv_rec = conv_search.conv_candidates_batch(device, CONV_SHAPE)
    conv_vector_s = time.perf_counter() - t0
    conv_speedup = conv_scalar_s / conv_vector_s

    # A new bucket once the base exists: only its split rows.  Timed
    # before the parity checks, which derive the matrices and build
    # every config object.
    assert conv_search.conv_bucket_key(
        device, NEW_BUCKET_SHAPE
    ) != conv_search.conv_bucket_key(device, CONV_SHAPE)
    t0 = time.perf_counter()
    new_rec = conv_search.conv_candidates_batch(device, NEW_BUCKET_SHAPE)
    new_bucket_s = time.perf_counter() - t0
    new_bucket_speedup = conv_vector_s / new_bucket_s

    conv_cfgs, conv_mat = conv_rec.configs, conv_rec.matrix
    new_cfgs, new_mat = new_rec.configs, new_rec.matrix
    ref_new = conv_candidates(device, NEW_BUCKET_SHAPE)
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

    # --- First search in a new bucket vs a search in a warm one ---------
    # A tiny-budget fit, its cascade calibrated; each timed bucket is one
    # neither the calibration nor the sections above touched, so its
    # first search derives the bucket and its split term.
    tuner = Isaac(device, op="conv", dtypes=(dtype,))
    tuner.tune(n_samples=700, seed=5, epochs=12, generative_target=80)
    search = tuner.searcher
    seen = set(search._sets) | set(conv_search._BUCKET_CACHE.snapshot())
    new_ms, warm_ms = [], []
    for n, q in _bucket_extents():
        shape = ConvShape.from_output(n=n, p=7, q=q, k=64, c=64, r=3, s=3)
        if conv_search.conv_bucket_key(device, shape) in seen:
            continue
        warm = ConvShape.from_output(n=n, p=9, q=q, k=32, c=128, r=3, s=3)
        for target, times in ((shape, new_ms), (warm, warm_ms)):
            gc.collect()
            t0 = time.perf_counter()
            tuner.top_k(target, 50)
            times.append((time.perf_counter() - t0) * 1e3)
        if len(new_ms) == N_SEARCH_BUCKETS:
            break
    stats = search.cascade_stats
    assert len(new_ms) == N_SEARCH_BUCKETS
    assert stats.cascade_queries == 2 * N_SEARCH_BUCKETS, stats
    ratios = np.array(new_ms) / np.array(warm_ms)
    search_ratio = float(np.median(ratios))

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
        f"{conv_vector_s * 1e3:8.1f}ms {new_bucket_s * 1e3:8.3f}ms "
        f"{new_bucket_speedup:7.1f}x",
        f"{'store-warmed cold start':>38s} {'—':>10s} "
        f"{store_s:9.2f}s {'':>8s}",
        f"{'CONV search, new bucket vs warm':>38s} "
        f"{np.median(new_ms):8.1f}ms {np.median(warm_ms):8.1f}ms "
        f"{search_ratio:7.2f}x (median of {len(ratios)} buckets, "
        f"max {ratios.max():.2f}x)",
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
            "conv_new_bucket_search_ms": new_ms,
            "conv_warm_bucket_search_ms": warm_ms,
            "conv_new_bucket_search_ratio": search_ratio,
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
    assert search_ratio <= NEW_SEARCH_CEILING, (
        f"a search in a new CONV bucket takes {search_ratio:.2f}x one in "
        f"a warm bucket (median; ceiling {NEW_SEARCH_CEILING}x)"
    )


def _bucket_extents():
    """Batch and width extents, one per tile factorization, spread
    over the 45 buckets of the shipped spaces."""
    pairs = [(1 << a, 1 << b) for a in range(9) for b in range(9 - a)]
    return pairs[::3] + pairs[1::3] + pairs[2::3]


# Run from the repo root with ``PYTHONPATH=src:.``: the scalar oracles
# come from ``tests/oracles.py``, so the root must be on the path too
# (``PYTHONPATH=src:. python benchmarks/bench_cold_start.py``).
if __name__ == "__main__":
    class _Echo:
        def __call__(self, exp_id, text, data=None):
            print(text)

    test_bench_cold_start(_Echo())
