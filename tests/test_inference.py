"""Tests for exhaustive search, top-k re-ranking and CONV candidates."""

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.core.batched import BatchedGemmShape
from repro.core.config import ConvConfig, GemmConfig
from repro.core.legality import is_legal_conv, is_legal_gemm
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import GTX_980_TI, TESLA_P100
from repro.gpu.simulator import benchmark_gemm
from repro.inference.conv_search import (
    conv_bucket_key,
    conv_candidates_batch,
    factorize_tile,
)
from repro.inference import partition
from repro.inference.search import (
    _CHUNK_ROWS,
    ExhaustiveSearch,
    _Cascade,
    legal_configs,
)
from repro.inference.topk import best_after_rerank, rerank
from repro.mlp.crossval import fit_regressor
from repro.sampling.dataset import generate_gemm_dataset
from tests.oracles import (
    conv_candidates,
    conv_config_from_gemm,
    legal_configs_reference,
    predictions_reference,
)


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

    def test_refuses_a_fit_without_a_hidden_layer(self):
        """The search folds the first layer and scores the rest, so a
        linear fit has nothing to score: it is refused when the search
        is built, not served by a second path."""
        ds = generate_gemm_dataset(
            TESLA_P100, 120, np.random.default_rng(5), dtypes=(DType.FP32,)
        )
        fit = fit_regressor(
            ds.x[:100], ds.y[:100], ds.x[100:], ds.y[100:],
            hidden=(), epochs=2,
        )
        with pytest.raises(ValueError, match="hidden layer"):
            ExhaustiveSearch(fit, TESLA_P100, "gemm")


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
        bucket = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        batch_cfgs, batch_mat = bucket.configs, bucket.matrix
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

    def test_canonical_key_keeps_every_factorization(self):
        """For every GEMM tile (ml, ms) and every pow2 batch and width up
        to 4096, a shape factorizes exactly as the canonical
        representative of its key does; the keys reached are the
        (n', q') pairs with n' <= L and q' <= L // n', L the largest ml."""
        from repro.core.space import GEMM_SPACE

        def conv(n, q):
            return ConvShape.from_output(n=n, p=7, q=q, k=64, c=64, r=3, s=3)

        extents = [1 << e for e in range(13)]
        top = max(GEMM_SPACE.values("ml"))
        reached = set()
        for n in extents:
            for q in extents:
                shape = conv(n, q)
                *_, n_c, q_c = conv_bucket_key(GTX_980_TI, shape)
                reached.add((n_c, q_c))
                canon = conv(n_c, q_c)
                for ml in GEMM_SPACE.values("ml"):
                    for ms in GEMM_SPACE.values("ms"):
                        assert factorize_tile(ml, ms, shape) == (
                            factorize_tile(ml, ms, canon)
                        ), (n, q, ml, ms)
        assert reached == {
            (a, b) for a in extents if a <= top
            for b in extents if b <= top // a
        }
        assert len(reached) == 45

    def test_one_factorization_one_record(self):
        """n=32 leaves room for a width of 256 // 32 = 8 at most, so
        q=8 and q=128 share one record, equal to the scalar reference.
        The record derives its matrix on each call, never caching it."""
        from repro.inference.conv_search import clear_bucket_cache
        from repro.sampling.features import conv_config_matrix

        narrow = ConvShape.from_output(n=32, p=14, q=8, k=64, c=128, r=3, s=3)
        wide = ConvShape.from_output(n=32, p=14, q=128, k=64, c=128, r=3, s=3)
        clear_bucket_cache()
        first_rec = conv_candidates_batch(GTX_980_TI, narrow)
        second_rec = conv_candidates_batch(GTX_980_TI, wide)
        first, first_mat = first_rec.configs, first_rec.matrix
        second, second_mat = second_rec.configs, second_rec.matrix
        assert second_rec is first_rec
        assert second is first and second_mat is not first_mat
        assert np.array_equal(
            second_mat.view(np.uint64), first_mat.view(np.uint64)
        )
        scalar = conv_candidates(GTX_980_TI, wide)
        assert first == scalar
        assert np.array_equal(first_mat, conv_config_matrix(scalar, log=True))

    def test_same_bucket_shares_candidate_set(self):
        same = ConvShape.from_output(n=3, p=20, q=13, k=32, c=64, r=3, s=3)
        first = conv_candidates_batch(GTX_980_TI, self.SHAPE).configs
        second = conv_candidates_batch(GTX_980_TI, same).configs
        assert second is first  # cache hit, not a regeneration

    def test_different_buckets_generate_independently(self):
        bigger_n = ConvShape.from_output(
            n=32, p=14, q=14, k=64, c=128, r=3, s=3
        )
        a = conv_candidates_batch(GTX_980_TI, self.SHAPE).configs
        b = conv_candidates_batch(GTX_980_TI, bigger_n).configs
        assert a is not b
        # A different batch extent really changes the factorization.
        assert a != b

    def test_cached_equals_freshly_generated(self):
        from repro.inference.conv_search import clear_bucket_cache

        cached_rec = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        cached, cached_mat = cached_rec.configs, cached_rec.matrix
        clear_bucket_cache()
        fresh_rec = conv_candidates_batch(GTX_980_TI, self.SHAPE)
        fresh, fresh_mat = fresh_rec.configs, fresh_rec.matrix
        assert cached is not fresh
        assert cached == fresh
        assert np.array_equal(cached_mat, fresh_mat)

    def test_search_groups_bucket_shapes_together(self, small_conv_tuner):
        """ExhaustiveSearch keys CONV candidate sets by bucket, so shapes
        in one bucket share the candidate set (and its first-layer term)."""
        search = ExhaustiveSearch(
            small_conv_tuner.fit_result, TESLA_P100, "conv"
        )
        same = ConvShape.from_output(n=3, p=9, q=13, k=32, c=64, r=3, s=3)
        a = search.candidates(self.SHAPE)
        b = search.candidates(same)
        assert a[0] is b[0]


def _generated_per_bucket(device, shape):
    """One bucket as it was generated before the (device, dtype) base:
    cg membership, the batch-first factorization, the packed-exponent
    dedup and conv_legal_mask, all over the whole GEMM survivor set.
    Kept as the oracle the derived buckets must equal."""
    from repro.core.config import ConvConfig
    from repro.core.legality import conv_legal_mask
    from repro.core.ops import get_op
    from repro.core.space import CONV_SPACE
    from repro.inference.search import legal_record

    g = legal_record(device, shape.dtype, "gemm").params
    cg_vals = np.asarray(CONV_SPACE.values("cg"), dtype=np.int64)
    ok = np.isin(g["kg"], cg_vals)
    np2n = 1 << max(0, (shape.n - 1).bit_length())
    np2q = 1 << max(0, (shape.q - 1).bit_length())
    nb = np.minimum(np2n, g["ml"])
    rest = g["ml"] // nb
    qb = np.minimum(np2q, rest)
    pb = rest // qb
    ok &= nb * pb * qb == g["ml"]
    nt = np.minimum(g["ms"], nb)
    rest_t = g["ms"] // nt
    qt = np.minimum(rest_t, qb)
    pt = rest_t // qt
    ok &= (nt * pt * qt == g["ms"]) & (pt <= pb)
    vi = np.flatnonzero(ok)
    cols = {
        "kt": g["ns"][vi], "pt": pt[vi], "qt": qt[vi], "nt": nt[vi],
        "kb": g["nl"][vi], "pb": pb[vi], "qb": qb[vi], "nb": nb[vi],
        "u": g["u"][vi], "cs": g["ks"][vi], "cl": g["kl"][vi],
        "cg": g["kg"][vi], "vec": g["vec"][vi], "db": g["db"][vi],
    }
    names = ConvConfig.param_names()
    key = np.zeros(len(vi), dtype=np.int64)
    for n in names:
        assert ((cols[n] & (cols[n] - 1)) == 0).all()
        assert cols[n].max() <= 1 << 15  # packs into 4 bits
        key = (key << 4) | np.log2(cols[n]).astype(np.int64)
    _, first = np.unique(key, return_index=True)
    first.sort()
    deduped = {n: c[first] for n, c in cols.items()}
    li = np.flatnonzero(conv_legal_mask(device, deduped, shape.dtype))
    params = {n: np.ascontiguousarray(deduped[n][li]) for n in names}
    return params, get_op("conv").config_matrix_from_params(params, log=True)


def _conv(n, q, dtype=DType.FP32):
    return ConvShape.from_output(
        n=n, p=7, q=q, k=64, c=64, r=3, s=3, dtype=dtype
    )


#: The 45 canonical (n', q') extents of L = 256.
_EXTENTS = [
    (1 << a, 1 << b) for a in range(9) for b in range(9) if a + b <= 8
]


class TestConvBase:
    """Buckets derived from the (device, dtype) base, held to the old
    per-bucket generation and the scalar reference."""

    @staticmethod
    def _assert_equal_the_old_generation(device, dtype, extents):
        from repro.inference.conv_search import _generate_bucket

        def check(extent):
            shape = _conv(*extent, dtype)
            rec = _generate_bucket(device, shape).materialize()
            derived, derived_matrix = rec.params, rec.matrix
            params, matrix = _generated_per_bucket(device, shape)
            assert list(derived) == list(params)
            for name, col in params.items():
                assert derived[name].dtype == col.dtype
                assert np.array_equal(derived[name], col), (extent, name)
            assert derived_matrix.dtype == matrix.dtype
            assert derived_matrix.shape == matrix.shape
            assert derived_matrix.flags.c_contiguous
            assert np.array_equal(
                derived_matrix.view(np.uint64), matrix.view(np.uint64)
            ), extent
            # The configs view reads the same rows.
            assert rec.configs[0] == ConvConfig(
                *(int(params[n][0]) for n in params)
            )
            assert rec.configs[-1] == ConvConfig(
                *(int(params[n][-1]) for n in params)
            )

        # numpy releases the GIL in the heavy passes, so two threads
        # take ~40% off the wall time on two CPUs.
        with ThreadPoolExecutor(2) as pool:
            list(pool.map(check, extents, timeout=600))

    def test_every_p100_fp32_bucket_equals_the_old_generation(self):
        assert len(_EXTENTS) == 45
        self._assert_equal_the_old_generation(
            TESLA_P100, DType.FP32, _EXTENTS
        )

    @pytest.mark.parametrize(
        "device,dtype",
        [
            pytest.param(device, dtype, id=f"{arch}-{dtype.name}")
            for arch, device in (("maxwell", GTX_980_TI),
                                 ("pascal", TESLA_P100))
            for dtype in DType
            if (device, dtype) != (TESLA_P100, DType.FP32)
        ],
    )
    def test_other_pairs_equal_the_old_generation(self, device, dtype):
        self._assert_equal_the_old_generation(
            device, dtype, [(1, 256), (8, 8), (256, 1)]
        )

    def test_bucket_derived_after_the_base_matches_scalar(self):
        from repro.inference.conv_search import clear_bucket_cache
        from repro.sampling.features import conv_config_matrix

        clear_bucket_cache()
        # FP64: the smallest set, so the scalar loop stays short.
        conv_candidates_batch(GTX_980_TI, _conv(1, 1, DType.FP64))  # base
        shape = _conv(16, 4, DType.FP64)
        bucket = conv_candidates_batch(GTX_980_TI, shape)
        cfgs, matrix = bucket.configs, bucket.matrix
        scalar = conv_candidates(GTX_980_TI, shape)
        assert cfgs == scalar
        assert np.array_equal(matrix, conv_config_matrix(scalar, log=True))

    def test_buckets_share_the_gemm_derived_columns(self):
        """Two buckets hold only their own split rows; the columns they
        derive share the base's eight and differ in the split."""
        from repro.inference.conv_search import _SPLIT, _generate_bucket

        a = _generate_bucket(GTX_980_TI, _conv(1, 1))
        b = _generate_bucket(GTX_980_TI, _conv(32, 8))
        assert a.base is b.base
        a_cols, b_cols = a.params, b.params
        for name in ("kt", "kb", "u", "cs", "cl", "cg", "vec", "db"):
            assert np.shares_memory(a_cols[name], b_cols[name]), name
        for name in ("nb", "pb", "qb", "nt", "pt", "qt"):
            assert not np.shares_memory(a_cols[name], b_cols[name])
        assert not np.array_equal(a_cols["nb"], b_cols["nb"])
        for rec in (a, b):
            assert rec.split.shape == rec.split_logs.shape == (
                len(a.base.tiles), len(_SPLIT)
            )

    def test_concurrent_first_requests_build_the_base_once(
        self, monkeypatch
    ):
        from repro.inference import conv_search

        calls = []
        build = conv_search._build_base

        def spy(device, dtype):
            calls.append((device.name, dtype.name))
            time.sleep(0.05)  # hold the build open while the other waits
            return build(device, dtype)

        monkeypatch.setattr(conv_search, "_build_base", spy)
        conv_search.clear_bucket_cache()
        # More threads than CPUs, one new bucket each.
        shapes = [_conv(1, 2), _conv(2, 2), _conv(16, 1), _conv(64, 4)]
        barrier = threading.Barrier(len(shapes), timeout=30)

        def first_request(shape):
            barrier.wait()
            return conv_candidates_batch(GTX_980_TI, shape).matrix

        with ThreadPoolExecutor(len(shapes)) as pool:
            mats = list(pool.map(first_request, shapes, timeout=120))
        assert calls == [(GTX_980_TI.name, "FP32")]
        for i, a in enumerate(mats):
            for b in mats[i + 1:]:
                assert not np.array_equal(a, b)

    def test_non_power_of_two_space_value_makes_the_base_raise(
        self, monkeypatch
    ):
        from dataclasses import replace

        from repro.core.space import GEMM_SPACE
        from repro.inference import conv_search

        # ml = 48 with ms = 3 keeps GEMM-legal rows (48 = 3 * 16).
        npot = {"ml": (48,), "ms": (3,)}
        edited = replace(
            GEMM_SPACE,
            name="gemm-npot",
            params=tuple((n, npot.get(n, v)) for n, v in GEMM_SPACE.params),
        )
        monkeypatch.setattr(conv_search, "GEMM_SPACE", edited)
        with pytest.raises(ValueError, match="powers of two"):
            conv_candidates_batch(GTX_980_TI, _conv(4, 4))


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
    """The term ``shapes[0]``'s set scores and every shape's first-layer
    constants (each from its own set: the sets of one op and dtype
    share the term)."""
    search = tuner.searcher
    sets = [search._candidate_set(s) for s in shapes]
    term = sets[0].term
    assert all(cs.term is term for cs in sets)
    c1s = [search._first_layer(cs, s) for cs, s in zip(sets, shapes)]
    return search, term, c1s


def _tops(preds):
    return [(p.config, p.predicted_tflops) for p in preds]


@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_partitioned_scoring_is_bit_identical(op, request, force_width):
    """Widths 2 and 3 reproduce width 1 exactly, on sets smaller than a
    chunk, between chunk multiples, and whole; a shape scored alone
    gets its numbers in the batch."""
    tuner = request.getfixturevalue(_OP_TUNERS[op])
    search, term, c1s = _scoring_inputs(tuner, _OP_SHAPES[op])
    folded = search._folded
    cas = _Cascade(folded, {})
    n = len(term)
    sizes = {1, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5, n}
    for rows in sorted(r for r in sizes if r <= n):
        starts = term.starts[term.starts < rows]
        part = replace(term, n=rows, starts=starts)
        results = {}
        for width in (1, 2, 3):
            force_width(width)
            results[width] = (
                cas.proxies(part, c1s),
                cas.proxies(part, c1s[:1]),
                folded.predict_batch(part, c1s),
                folded.predict_batch(part, c1s[:1]),
            )
        for width in (2, 3):
            for serial, parted in zip(results[1], results[width]):
                assert np.array_equal(serial, parted), (op, rows, width)
        batch_p, alone_p, batch_f, alone_f = results[1]
        assert np.array_equal(batch_p[:1], alone_p), (op, rows)
        assert np.array_equal(batch_f[:1], alone_f), (op, rows)


#: Four shapes per op that no fixture's calibration sampled (its draws
#: come from the op's shape sampler); the conv ones fall into four
#: different candidate sets.
_UNSAMPLED_SHAPES = {
    "gemm": [
        GemmShape(1000, 24, 3000, DType.FP32, False, False),
        GemmShape(77, 900, 4096, DType.FP32, True, False),
        GemmShape(2048, 2048, 64, DType.FP32, False, True),
        GemmShape(300, 5000, 300, DType.FP32, True, True),
    ],
    "conv": [
        ConvShape.from_output(n=1, p=28, q=28, k=96, c=48, r=3, s=3),
        ConvShape.from_output(n=8, p=7, q=7, k=256, c=256, r=1, s=1),
        ConvShape.from_output(n=16, p=14, q=56, k=32, c=64, r=3, s=3),
        ConvShape.from_output(n=64, p=3, q=3, k=128, c=64, r=3, s=3),
    ],
    "bgemm": [
        BatchedGemmShape(batch=8, base=GemmShape(256, 32, 512)),
        BatchedGemmShape(batch=128, base=GemmShape(32, 32, 64)),
        BatchedGemmShape(batch=32, base=GemmShape(96, 200, 96)),
        BatchedGemmShape(batch=4, base=GemmShape(1024, 64, 1024)),
    ],
}


@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_proxy_gap_within_margin_on_whole_sets(op, request, force_width):
    """The cascade's premise, checked on whole candidate sets rather than
    through top-k parity: on shapes calibration did not sample, every
    candidate's |full - proxy| is within the fit's margin, at widths 1
    and 2.  Both sides score through the grouped path (a CONV set's
    split term included), and the full scores are the model's."""
    tuner = request.getfixturevalue(_OP_TUNERS[op])
    search = tuner.searcher
    delta = tuner.fit_result.cascade.margins["FP32"]
    cas = search._cascade_state()
    assert cas is not None
    for shape in _UNSAMPLED_SHAPES[op]:
        _, term, (c1,) = _scoring_inputs(tuner, [shape])
        if op == "conv":
            # One constant per tile group, each with its own split term.
            assert len(term.starts) == len(c1) > 1
            assert not np.array_equal(c1[0], c1[1])
        else:
            assert len(term.starts) == len(c1) == 1
        scores = {}
        for width in (1, 2):
            force_width(width)
            full = search._folded.predict_batch(term, [c1])
            proxy = cas.proxies(term, [c1]).astype(np.float64)
            assert np.max(np.abs(full - proxy)) <= delta, (op, shape, width)
            scores[width] = full[0]
        assert np.array_equal(scores[1], scores[2])
        model = tuner.fit_result.y_scaler.inverse_transform(
            term.to_candidates(scores[1])
        )
        np.testing.assert_allclose(
            model, predictions_reference(search, shape), rtol=0, atol=2e-9
        )


@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_calibrated_margins_stay_rounding_sized(op, request):
    """Stage 1 adds the standardization's shift to each shape's constant
    instead of centring the features, so its products are larger than
    ``A``'s rows and round coarser: the calibrated margin must stay a
    rounding error (at most 1e-4 standardized units, against the
    ~0.01-unit gap at the top-k frontier), or the shortlist widens."""
    tuner = request.getfixturevalue(_OP_TUNERS[op])
    (margin,) = tuner.fit_result.cascade.margins.values()
    assert 0 < margin <= 1e-4, margin


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
    search, term, (c1, *_) = _scoring_inputs(tuner, _OP_SHAPES[op])
    full = search._folded.predict_batch(term, [c1])[0]
    rng = np.random.default_rng(5)
    n = len(full)
    for size in (1, 2, 3, 31, 300, _CHUNK_ROWS + 1):
        for _ in range(3):
            if size > n:
                continue
            rows = np.sort(rng.choice(n, size, replace=False))
            groups = np.searchsorted(term.starts, rows, side="right") - 1
            gathered = search._folded.predict_rows(term, rows, c1[groups])
            assert np.array_equal(gathered, full[rows]), (op, size)


# ----------------------------------------------------------------------
# One first-layer term per CONV base
# ----------------------------------------------------------------------

def test_conv_buckets_share_one_term(small_conv_tuner):
    """Two buckets' sets score one term object; each holds only its own
    (tile groups x width) split term, its record only its 25 split rows
    (no matrix), and the search holds one term per base."""
    search = small_conv_tuner.searcher
    a = search._candidate_set(_conv(1, 1))
    b = search._candidate_set(_conv(32, 8))
    assert a is not b and a.configs is not b.configs
    assert a.term is b.term
    width = search._folded.widths[0]
    for cs in (a, b):
        own = {
            name: value for name, value in vars(cs).items()
            if isinstance(value, np.ndarray)
        }
        assert list(own) == ["split"]
        assert cs.split.shape == (25, width)
        held = {
            name: value.shape for name, value in vars(cs.record).items()
            if isinstance(value, np.ndarray)
        }
        assert held == {"split": (25, 6), "split_logs": (25, 6)}
    assert not np.array_equal(a.split, b.split)
    base_key = ("conv", TESLA_P100.name, "FP32")
    assert a.groups[0] == b.groups[0] == base_key
    assert list(search._terms) == [base_key]
    assert search._terms[base_key] is a.term


def test_grouped_scoring_is_bit_identical_across_widths(
    small_conv_tuner, force_width
):
    """On a CONV term whose group starts fall inside 2048-row chunks,
    proxies and float64 outputs of shapes from two buckets are the same
    at widths 1 and 2."""
    shapes = [_conv(2, 4), _conv(64, 2)]
    search, term, c1s = _scoring_inputs(small_conv_tuner, shapes)
    assert len(term.starts) == 25
    assert any(s % _CHUNK_ROWS for s in term.starts)
    cas = _Cascade(search._folded, {})
    results = {}
    for width in (1, 2):
        force_width(width)
        results[width] = (
            cas.proxies(term, c1s),
            search._folded.predict_batch(term, c1s),
        )
    for serial, parted in zip(results[1], results[2]):
        assert np.array_equal(serial, parted)


def test_batch_over_conv_buckets_runs_one_stage1_pass(
    small_conv_tuner, monkeypatch
):
    """One top_k_batch over shapes of four buckets makes one stage-1
    pass over the shared term and returns per-shape top_k and the
    exhaustive top-k exactly."""
    tuner = small_conv_tuner
    search = tuner.searcher
    shapes = [_conv(1, 2), _conv(8, 8), _conv(64, 1), _conv(2, 2)]
    assert len({conv_bucket_key(TESLA_P100, s) for s in shapes}) == 4
    single = [_tops(tuner.top_k(s, 20)) for s in shapes]
    passes = []
    proxies = _Cascade.proxies

    def spy(self, term, consts):
        passes.append(len(consts))
        return proxies(self, term, consts)

    stats = search.cascade_stats
    before = stats.cascade_queries
    with monkeypatch.context() as m:
        m.setattr(_Cascade, "proxies", spy)
        batch = [_tops(t) for t in tuner.top_k_batch(shapes, 20)]
    assert passes == [len(shapes)]
    assert stats.cascade_queries == before + len(shapes)
    try:
        search.set_cascade(False)
        exhaustive = [_tops(tuner.top_k(s, 20)) for s in shapes]
    finally:
        search.set_cascade(True)
    assert batch == single == exhaustive


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
