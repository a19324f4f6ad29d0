"""Tests for exhaustive search, top-k re-ranking and CONV candidates."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.batched import BatchedGemmShape
from repro.core.config import GemmConfig
from repro.core.legality import is_legal_conv, is_legal_gemm
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import GTX_980_TI, TESLA_P100
from repro.gpu.simulator import benchmark_gemm
from repro.inference.conv_search import (
    conv_bucket_key,
    conv_candidates,
    conv_candidates_batch,
    conv_config_from_gemm,
    factorize_tile,
)
from repro.inference import partition
from repro.inference.search import (
    _CASCADE_CHUNK,
    _CHUNK_ROWS,
    ExhaustiveSearch,
    _Cascade,
    legal_configs,
    legal_configs_reference,
)
from repro.inference.topk import best_after_rerank, rerank
from repro.mlp.crossval import fit_regressor
from repro.sampling.dataset import generate_gemm_dataset


class TestLegalConfigs:
    def test_tiny_space_enumeration(self, tiny_space):
        configs, matrix = legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert len(configs) > 10
        assert matrix.shape == (len(configs), 10)
        assert all(
            is_legal_gemm(c, DType.FP32, GTX_980_TI) for c in configs[:50]
        )

    def test_cache_returns_same_object(self, tiny_space):
        a = legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        b = legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        assert a[0] is b[0]

    def test_conv_requires_per_shape_path(self):
        with pytest.raises(ValueError, match="CONV"):
            legal_configs(GTX_980_TI, DType.FP32, "conv")

    def test_vectorized_matches_scalar_reference(self, tiny_space):
        """Grid + legal_mask must equal the point-by-point walk, bit for
        bit and in identical (iter_points) order."""
        configs, matrix = legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        ref_configs, ref_matrix = legal_configs_reference(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert configs == ref_configs
        assert np.array_equal(matrix, ref_matrix)

    def test_concurrent_enumeration_builds_once(self, tiny_space,
                                                monkeypatch):
        """Racing threads on one cold key elect a single enumerator."""
        import repro.inference.search as search

        search.clear_cache()
        calls: list[int] = []
        barrier = threading.Barrier(6)
        orig = search._enumerate_record

        def counting(spec, device, dtype, space):
            calls.append(1)
            return orig(spec, device, dtype, space)

        monkeypatch.setattr(search, "_enumerate_record", counting)

        def query():
            barrier.wait()
            return search.legal_configs(
                GTX_980_TI, DType.FP32, "gemm", tiny_space
            )

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = [f.result() for f in
                       [pool.submit(query) for _ in range(6)]]
        assert len(calls) == 1
        assert all(r[0] is results[0][0] for r in results)
        search.clear_cache()


@pytest.fixture(scope="module")
def tiny_fit():
    """A quick regressor trained on the tiny space for search tests."""
    rng = np.random.default_rng(3)
    from repro.sampling.dataset import fit_generative_models

    samplers = fit_generative_models(
        TESLA_P100, op="gemm", dtypes=(DType.FP32,), rng=rng,
        target_accepted=200,
    )
    ds = generate_gemm_dataset(
        TESLA_P100, 5000, rng, samplers=samplers, dtypes=(DType.FP32,)
    )
    tr_x, tr_y = ds.x[:4500], ds.y[:4500]
    va_x, va_y = ds.x[4500:], ds.y[4500:]
    return fit_regressor(
        tr_x, tr_y, va_x, va_y, hidden=(32, 64, 32), epochs=40
    )


class TestExhaustiveSearch:
    def test_top_k_sorted_and_sized(self, tiny_fit, tiny_space):
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=tiny_space
        )
        shape = GemmShape(1024, 1024, 1024, DType.FP32, False, True)
        top = search.top_k(shape, k=20)
        assert len(top) == 20
        preds = [t.predicted_tflops for t in top]
        assert preds == sorted(preds, reverse=True)
        assert all(p > 0 for p in preds)

    def test_model_ranking_beats_random(self, tiny_fit, tiny_space, rng):
        """The model's top pick should outperform the median random legal
        config by a wide margin — the whole point of the system."""
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=tiny_space
        )
        shape = GemmShape(2560, 16, 2560, DType.FP32, False, False)
        top = search.top_k(shape, k=10)
        best_measured = max(
            benchmark_gemm(TESLA_P100, t.config, shape) for t in top
        )
        configs, _ = legal_configs(TESLA_P100, DType.FP32, "gemm", tiny_space)
        sample = [configs[i] for i in rng.integers(len(configs), size=30)]
        random_measured = np.median(
            [benchmark_gemm(TESLA_P100, c, shape) for c in sample]
        )
        assert best_measured > random_measured

    def test_rejects_unknown_op(self, tiny_fit):
        with pytest.raises(ValueError):
            ExhaustiveSearch(tiny_fit, TESLA_P100, "sort")


class TestRerank:
    def test_rerank_orders_by_measured(self, tiny_fit, tiny_space):
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=tiny_space
        )
        shape = GemmShape(512, 512, 4096, DType.FP32, False, True)
        ranked = rerank(TESLA_P100, shape, search.top_k(shape, 10))
        measured = [r.measured_tflops for r in ranked]
        assert measured == sorted(measured, reverse=True)

    def test_best_is_first(self, tiny_fit, tiny_space):
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=tiny_space
        )
        shape = GemmShape(512, 512, 4096, DType.FP32, False, True)
        cands = search.top_k(shape, 10)
        best = best_after_rerank(TESLA_P100, shape, cands)
        assert best.measured_tflops == max(
            r.measured_tflops for r in rerank(TESLA_P100, shape, cands)
        )

    def test_rerank_beats_model_argmax_on_average(self, tiny_fit, tiny_space):
        """§6: re-evaluating the top-k on the device smooths model noise."""
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=tiny_space
        )
        reordered = 0
        shapes = [
            GemmShape(512, 512, 512, DType.FP32, False, True),
            GemmShape(2560, 16, 2560, DType.FP32, False, False),
            GemmShape(64, 64, 30000, DType.FP32, False, True),
            GemmShape(1024, 256, 1024, DType.FP32, True, False),
        ]
        for shape in shapes:
            cands = search.top_k(shape, 15)
            argmax_measured = benchmark_gemm(
                TESLA_P100, cands[0].config, shape, reps=3
            )
            ranked = rerank(TESLA_P100, shape, cands, reps=3)
            # The device winner is never worse than the model's argmax...
            assert ranked[0].measured_tflops >= argmax_measured * 0.999
            # ...and measured order disagrees with predicted order somewhere
            # (the disagreement is exactly what re-ranking corrects).
            predicted_order = [id(c.config) for c in cands]
            measured_order = [id(r.config) for r in ranked]
            if predicted_order != measured_order:
                reordered += 1
        assert reordered >= 1


class TestConvFactorization:
    SHAPE = ConvShape.from_output(n=4, p=14, q=14, k=64, c=128, r=3, s=3)

    def test_factorize_products_preserved(self):
        out = factorize_tile(64, 8, self.SHAPE)
        assert out is not None
        nb, pb, qb, nt, pt, qt = out
        assert nb * pb * qb == 64
        assert nt * pt * qt == 8
        assert nt <= nb and pt <= pb and qt <= qb

    def test_batch_first(self):
        nb, *_ = factorize_tile(64, 4, self.SHAPE)
        assert nb == 4  # covers the whole batch before spatial dims

    def test_small_batch_not_overpadded(self):
        shape = ConvShape.from_output(n=1, p=32, q=32, k=64, c=64, r=3, s=3)
        nb, pb, qb, *_ = factorize_tile(128, 8, shape)
        assert nb == 1

    def test_conv_config_from_gemm_legal_tiles(self):
        g = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=2, db=2)
        cfg = conv_config_from_gemm(g, self.SHAPE)
        assert cfg is not None
        assert cfg.block_m == 64 and cfg.block_n == 64
        assert cfg.threads == g.threads

    def test_conv_candidates_all_legal(self):
        cands = conv_candidates(GTX_980_TI, self.SHAPE, max_candidates=500)
        assert len(cands) > 50
        assert all(
            is_legal_conv(c, DType.FP32, GTX_980_TI) for c in cands[:100]
        )

    def test_conv_candidates_unique(self):
        cands = conv_candidates(GTX_980_TI, self.SHAPE, max_candidates=300)
        keys = {tuple(c.as_dict().values()) for c in cands}
        assert len(keys) == len(cands)


class TestConvBuckets:
    """The vectorized CONV supply and its pow2-bucket cache."""

    SHAPE = ConvShape.from_output(n=4, p=14, q=14, k=64, c=128, r=3, s=3)

    def test_batch_matches_scalar_bit_for_bit(self):
        from repro.inference.conv_search import clear_bucket_cache
        from repro.sampling.features import conv_config_matrix

        clear_bucket_cache()
        batch_cfgs, batch_mat = conv_candidates_batch(
            GTX_980_TI, self.SHAPE
        )
        scalar_cfgs = conv_candidates(GTX_980_TI, self.SHAPE)
        assert batch_cfgs == scalar_cfgs
        assert np.array_equal(
            batch_mat, conv_config_matrix(scalar_cfgs, log=True)
        )

    def test_key_reads_pow2_extents_and_dtype_only(self):
        # Same next_pow2(n) / next_pow2(q): p, k, c, r, s are free.
        a = ConvShape.from_output(n=4, p=14, q=14, k=64, c=128, r=3, s=3)
        b = ConvShape.from_output(n=3, p=64, q=16, k=32, c=16, r=1, s=1)
        assert conv_bucket_key(GTX_980_TI, a) == conv_bucket_key(
            GTX_980_TI, b
        )
        for other in (
            ConvShape.from_output(n=8, p=14, q=14, k=64, c=128, r=3, s=3),
            ConvShape.from_output(n=4, p=14, q=32, k=64, c=128, r=3, s=3),
            ConvShape.from_output(
                n=4, p=14, q=14, k=64, c=128, r=3, s=3, dtype=DType.FP16
            ),
        ):
            assert conv_bucket_key(GTX_980_TI, other) != conv_bucket_key(
                GTX_980_TI, a
            )
        assert conv_bucket_key(TESLA_P100, a) != conv_bucket_key(
            GTX_980_TI, a
        )

    def test_same_bucket_shares_candidate_set(self):
        same = ConvShape.from_output(n=3, p=20, q=13, k=32, c=64, r=3, s=3)
        first, _ = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        second, _ = conv_candidates_batch(GTX_980_TI, same)
        assert second is first  # cache hit, not a regeneration

    def test_different_buckets_generate_independently(self):
        bigger_n = ConvShape.from_output(
            n=32, p=14, q=14, k=64, c=128, r=3, s=3
        )
        a, _ = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        b, _ = conv_candidates_batch(GTX_980_TI, bigger_n)
        assert a is not b
        # A different batch extent really changes the factorization.
        assert a != b

    def test_cached_equals_freshly_generated(self):
        from repro.inference.conv_search import clear_bucket_cache

        cached, cached_mat = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        clear_bucket_cache()
        fresh, fresh_mat = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        assert cached is not fresh
        assert cached == fresh
        assert np.array_equal(cached_mat, fresh_mat)

    def test_search_groups_bucket_shapes_together(self, tiny_fit):
        """ExhaustiveSearch keys CONV candidate sets by bucket, so shapes
        in one bucket share the candidate set (and its h0 fold)."""
        search = ExhaustiveSearch(tiny_fit, TESLA_P100, "conv")
        same = ConvShape.from_output(n=3, p=9, q=13, k=32, c=64, r=3, s=3)
        a = search.candidates(self.SHAPE)
        b = search.candidates(same)
        assert a[0] is b[0]


# ----------------------------------------------------------------------
# Row-partitioned scoring: every width gives the serial numbers
# ----------------------------------------------------------------------

_OP_SHAPES = {
    "gemm": [
        GemmShape(2560, 16, 2560, DType.FP32, False, False),
        GemmShape(512, 512, 512, DType.FP32, False, True),
        GemmShape(48, 512, 128, DType.FP32, False, True),
    ],
    "conv": [
        ConvShape.from_output(n=4, p=12, q=12, k=64, c=32, r=3, s=3),
        ConvShape.from_output(n=2, p=6, q=6, k=16, c=8, r=3, s=3),
    ],
    "bgemm": [
        BatchedGemmShape(batch=16, base=GemmShape(64, 64, 128)),
        BatchedGemmShape(batch=64, base=GemmShape(128, 96, 256)),
    ],
}

_OP_TUNERS = {
    "gemm": "trained_gemm_tuner",
    "conv": "small_conv_tuner",
    "bgemm": "small_bgemm_tuner",
}


@pytest.fixture
def force_width(monkeypatch):
    """Pin the scoring width (the BLAS budget stays the host's)."""

    def force(width: int) -> None:
        monkeypatch.setattr(partition, "scoring_width", lambda: width)

    return force


@pytest.fixture
def blas_budget():
    """A known BLAS thread budget (2) for the test; the host's after."""
    before = partition.blas_threads()
    if before is None:  # no runtime control: nothing to pin or restore
        yield None
        return
    partition.set_blas_threads(2)
    try:
        yield 2
    finally:
        partition.set_blas_threads(before)


def _scoring_inputs(tuner, shapes):
    """A searcher's candidate set for ``shapes[0]`` and shape vectors."""
    search = tuner.searcher
    cs = search._candidate_set(shapes[0])
    key = search.spec.candidate_cache_key(
        search._device, shapes[0], search._space
    )
    h0_lo = search._ensure_lowres(key, cs)
    vecs = [search.spec.shape_vector(s, log=True) for s in shapes]
    return search, cs, h0_lo, vecs


def _tops(preds):
    return [(p.config, p.predicted_tflops) for p in preds]


@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_partitioned_scoring_is_bit_identical(op, request, force_width):
    """Widths 2 and 3 reproduce width 1 exactly, on sets smaller than a
    chunk, between chunk multiples, and whole."""
    tuner = request.getfixturevalue(_OP_TUNERS[op])
    search, cs, h0_lo, vecs = _scoring_inputs(tuner, _OP_SHAPES[op])
    folded = search._folded
    cas = _Cascade(folded, {})
    n = len(cs.configs)
    sizes = {1, 7, _CASCADE_CHUNK - 1, 3 * _CASCADE_CHUNK + 5,
             _CHUNK_ROWS + 1, n}
    for rows in sorted(r for r in sizes if r <= n):
        results = {}
        for width in (1, 2, 3):
            force_width(width)
            results[width] = (
                cas.scores_many(h0_lo[:rows], vecs),
                cas.scores(h0_lo[:rows], vecs[0]),
                folded.predict_batch(cs.h0[:rows], vecs),
                folded.predict(cs.h0[:rows], vecs[0]),
            )
        for width in (2, 3):
            for serial, parted in zip(results[1], results[width]):
                assert np.array_equal(serial, parted), (op, rows, width)


@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_calibration_margins_do_not_depend_on_width(
    op, request, force_width
):
    tuner = request.getfixturevalue(_OP_TUNERS[op])
    margins = {}
    for width in (1, 2):
        force_width(width)
        calib = tuner.searcher.calibrate_cascade(
            (DType.FP32,), n_shapes=2, seed=11
        )
        margins[width] = calib.margins
    assert margins[1] == margins[2]


def test_concurrent_tuners_share_the_pool(
    trained_gemm_tuner, small_bgemm_tuner, force_width, blas_budget
):
    """Two tuners batch-searching at once through the shared pool (more
    scoring threads than CPUs) get exactly their serial answers, and the
    last call to finish restores the BLAS budget."""
    jobs = {
        "gemm": (trained_gemm_tuner, _OP_SHAPES["gemm"]),
        "bgemm": (small_bgemm_tuner, _OP_SHAPES["bgemm"]),
    }
    force_width(1)
    want = {
        name: [_tops(t) for t in tuner.top_k_batch(shapes, 25)]
        for name, (tuner, shapes) in jobs.items()
    }
    force_width(2)
    barrier = threading.Barrier(len(jobs))

    def search(tuner, shapes):
        barrier.wait(timeout=60)
        return [
            [_tops(t) for t in tuner.top_k_batch(shapes, 25)]
            for _ in range(3)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = {
                name: pool.submit(search, tuner, shapes)
                for name, (tuner, shapes) in jobs.items()
            }
            got = {name: f.result(timeout=300) for name, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    for name, rounds in got.items():
        assert all(r == want[name] for r in rounds), name
    assert partition.blas_threads() == blas_budget


def test_ranges_are_chunk_aligned_and_cover_every_row(force_width):
    force_width(3)
    seen = []
    lock = threading.Lock()

    def record(lo, hi):
        with lock:
            seen.append((lo, hi))

    partition.map_rows(73, 10, record)
    seen.sort()
    assert len(seen) == 3
    assert seen[0][0] == 0 and seen[-1][1] == 73
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))
    assert all(lo % 10 == 0 for lo, _ in seen)


def test_partition_error_waits_for_every_range(force_width, blas_budget):
    """The caller sees a range's exception only after the others ended,
    and the one-thread BLAS cap is lifted."""
    force_width(3)
    finished = []
    lock = threading.Lock()

    def score(lo, hi):
        if lo == 0:
            raise RuntimeError("range 0 failed")
        time.sleep(0.2)
        with lock:
            finished.append(lo)

    with pytest.raises(RuntimeError, match="range 0 failed"):
        partition.map_rows(30, 10, score)
    assert sorted(finished) == [10, 20]
    assert partition.blas_threads() == blas_budget


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_pool(force_width):
    """A child forked after the pool exists must not wait on the
    parent's threads, which did not survive the fork."""
    force_width(2)
    # Both ranges wait for each other, so the pool has started both of
    # its threads, which then sit idle: a stale pool in the child would
    # hand them work and never start new ones.
    gate = threading.Barrier(2)
    partition.map_rows(4, 2, lambda lo, hi: gate.wait(timeout=30))
    pid = os.fork()
    if pid == 0:  # the child: report through the exit code only
        code = 1
        try:
            out = np.zeros(4)

            def fill(lo, hi):
                out[lo:hi] = (np.ones((2, 2)) @ np.ones((2, 2)))[0, 0]

            partition.map_rows(4, 1, fill)
            code = 0 if out.tolist() == [2.0] * 4 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on the parent's pool")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


# ----------------------------------------------------------------------
# Stage 2's gathered re-scoring equals exhaustive scoring, bit for bit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_gathered_predict_equals_full_predict(op, request):
    tuner = request.getfixturevalue(_OP_TUNERS[op])
    search, cs, _, vecs = _scoring_inputs(tuner, _OP_SHAPES[op])
    full = search._folded.predict(cs.h0, vecs[0])
    rng = np.random.default_rng(5)
    n = len(full)
    for size in (1, 2, 3, 31, 300, _CHUNK_ROWS + 1):
        for _ in range(3):
            if size > n:
                continue
            rows = np.sort(rng.choice(n, size, replace=False))
            gathered = search._folded.predict(
                np.ascontiguousarray(cs.h0[rows]), vecs[0]
            )
            assert np.array_equal(gathered, full[rows]), (op, size)


def test_cascade_parity_on_the_rounding_shape(trained_gemm_tuner):
    """The shape whose cascade top-300 once differed from the exhaustive
    one: stage 2 re-scored a gathered row 1 ulp off."""
    shape = GemmShape(48, 512, 128, DType.FP32, ta=False, tb=True)
    search = trained_gemm_tuner.searcher
    stats = search.cascade_stats
    try:
        search.set_cascade(True)
        served = stats.cascade_queries
        cascade = trained_gemm_tuner.top_k(shape, 300)
        cascade_batch = trained_gemm_tuner.top_k_batch([shape], 300)[0]
        assert stats.cascade_queries == served + 2  # no fallback
        search.set_cascade(False)
        exhaustive = trained_gemm_tuner.top_k(shape, 300)
    finally:
        search.set_cascade(True)
    assert _tops(cascade) == _tops(exhaustive)
    assert _tops(cascade_batch) == _tops(exhaustive)
