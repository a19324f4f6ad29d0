"""Tests for the OpSpec registry and the pre-scaled, batched search path.

Three properties anchor the refactor:

* a *new* operation registered through :func:`repro.core.ops.register_op`
  runs the whole pipeline (tune -> top_k -> best_kernel -> profile cache)
  without any of those layers knowing its name;
* the pre-scaled first-layer-folded search path is numerically the old
  re-standardize-everything path (to ~1e-9);
* :meth:`ExhaustiveSearch.top_k_batch` returns exactly what per-shape
  :meth:`top_k` returns.
"""

import json

import numpy as np
import pytest

from repro.core.config import GemmConfig
from repro.core.legality import gemm_legal_mask, is_legal_gemm
from repro.core.ops import OpSpec, get_op, register_op, registered_ops, unregister_op
from repro.core.profile_cache import ProfileCache
from repro.core.tuner import Isaac
from repro.core.types import DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.gpu.simulator import (
    benchmark_gemm_many,
    simulate_gemm,
    simulate_gemm_many,
)
from repro.inference.search import ExhaustiveSearch, legal_record
from repro.mlp.crossval import fit_regressor
from repro.sampling.dataset import GemmShapeSampler, generate_dataset
from repro.sampling.features import (
    GEMM_CONFIG_FEATURES,
    GEMM_SHAPE_FEATURES,
    gemm_config_matrix,
    gemm_shape_vector,
)
from tests.conftest import TINY_GEMM_SPACE
from tests.oracles import predictions_reference


def _make_toy_spec(name: str = "toygemm") -> OpSpec:
    """A minimal op: GEMM restricted to the tiny test space.

    Everything is assembled from existing pieces — the point is that the
    pipeline only ever sees the spec, never the name.
    """
    return OpSpec(
        name=name,
        shape_type=GemmShape,
        config_type=GemmConfig,
        space=TINY_GEMM_SPACE,
        default_dtypes=(DType.FP32,),
        config_features=GEMM_CONFIG_FEATURES,
        shape_features=GEMM_SHAPE_FEATURES,
        is_legal=is_legal_gemm,
        config_matrix=gemm_config_matrix,
        shape_vector=gemm_shape_vector,
        simulate=simulate_gemm,
        make_shape_sampler=lambda dtypes: GemmShapeSampler(
            m_range=(16, 512), n_range=(16, 512), k_range=(16, 4096),
            dtypes=tuple(dtypes),
        ),
        shape_key=lambda s: f"{s.m}x{s.n}x{s.k}|{s.dtype.name}|{s.layout_code}",
        benchmark_many=benchmark_gemm_many,
        simulate_many=simulate_gemm_many,
        legal_mask=gemm_legal_mask,
        candidates_batch=lambda device, shape, space=None: legal_record(
            device, shape.dtype, name, space
        ),
        enumerable=True,
    )


@pytest.fixture
def toy_op():
    spec = register_op(_make_toy_spec())
    yield spec
    unregister_op(spec.name)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"gemm", "conv", "bgemm"} <= set(registered_ops())

    def test_get_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown op"):
            get_op("fft")

    def test_duplicate_register_raises(self, toy_op):
        with pytest.raises(ValueError, match="already registered"):
            register_op(_make_toy_spec())

    def test_spec_passthrough(self, toy_op):
        assert get_op(toy_op) is toy_op
        assert get_op(toy_op.name) is toy_op

    def test_feature_split(self):
        spec = get_op("gemm")
        assert spec.n_config_features == 10
        assert len(spec.feature_names) == 16
        bspec = get_op("bgemm")
        assert bspec.n_config_features == 10
        assert "batch" in bspec.shape_features


class TestToyOpEndToEnd:
    """A freshly registered op drives the whole pipeline by name only."""

    def test_tune_top_k_best_kernel(self, toy_op, tmp_path):
        tuner = Isaac(TESLA_P100, op=toy_op.name)
        assert tuner.dtypes == (DType.FP32,)
        report = tuner.tune(
            n_samples=250, epochs=8, generative_target=80, seed=5
        )
        assert report.n_samples == 250

        shape = GemmShape(512, 512, 1024, DType.FP32, False, True)
        top = tuner.top_k(shape, k=12)
        assert len(top) == 12
        preds = [t.predicted_tflops for t in top]
        assert preds == sorted(preds, reverse=True)

        cache = ProfileCache(tmp_path / "toy.json")
        best = tuner.best_kernel(shape, k=12, cache=cache)
        assert best.measured_tflops > 0
        assert len(cache) == 1
        # Second query is served from the cache.
        hit = tuner.best_kernel(shape, k=12, cache=cache)
        assert hit.config == best.config

        # Round-trips through the generic persistence path.
        cache.save()
        reloaded = ProfileCache(tmp_path / "toy.json")
        got = reloaded.get(toy_op.name, TESLA_P100.name, shape)
        assert got is not None and got[0] == best.config


@pytest.fixture(scope="module")
def tiny_fit():
    """A quick regressor over the tiny space for numerical-parity tests."""
    rng = np.random.default_rng(11)
    from repro.sampling.dataset import fit_generative_models

    samplers = fit_generative_models(
        TESLA_P100, op="gemm", dtypes=(DType.FP32,), rng=rng,
        target_accepted=150,
    )
    ds = generate_dataset(
        TESLA_P100, "gemm", 1800, rng, samplers=samplers,
        dtypes=(DType.FP32,),
    )
    return fit_regressor(
        ds.x[:1600], ds.y[:1600], ds.x[1600:], ds.y[1600:],
        hidden=(32, 64, 32), epochs=12,
    )


SHAPES = [
    GemmShape(512, 512, 512, DType.FP32, False, True),
    GemmShape(2560, 16, 2560, DType.FP32, False, False),
    GemmShape(64, 64, 30000, DType.FP32, False, True),
    GemmShape(512, 512, 512, DType.FP32, False, True),  # duplicate on purpose
    GemmShape(1024, 256, 1024, DType.FP16, True, False),  # second dtype group
]


class TestPreScaledPath:
    def test_predictions_match_reference(self, tiny_fit):
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=TINY_GEMM_SPACE
        )
        for shape in SHAPES:
            fast = search.predictions(shape)
            ref = predictions_reference(search, shape)
            assert fast.shape == ref.shape
            np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-9)

    def test_in_place_model_mutation_invalidates_fold(self, tiny_fit):
        """Pruning/fine-tuning mutate layer weights in place; the folded
        first-layer cache must notice and re-fold rather than silently
        mixing stale and current weights."""
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=TINY_GEMM_SPACE
        )
        shape = SHAPES[0]
        search.top_k(shape, k=5)  # warm the fold + term
        first = tiny_fit.model.layers[0]
        # Weight-only mutation, like magnitude pruning (biases untouched).
        first.w *= 0.5
        try:
            np.testing.assert_allclose(
                search.predictions(shape),
                predictions_reference(search, shape),
                rtol=0, atol=1e-9,
            )
        finally:
            first.w *= 2.0

    def test_top_k_batch_matches_per_shape(self, tiny_fit):
        search = ExhaustiveSearch(
            tiny_fit, TESLA_P100, "gemm", space=TINY_GEMM_SPACE
        )
        batched = search.top_k_batch(SHAPES, k=25)
        assert len(batched) == len(SHAPES)
        for shape, batch_result in zip(SHAPES, batched):
            single = search.top_k(shape, k=25)
            assert [p.config for p in batch_result] == [
                p.config for p in single
            ]
            assert [p.predicted_tflops for p in batch_result] == [
                p.predicted_tflops for p in single
            ]


class TestBatchedGemmOp:
    """The third registered op tunes end-to-end through the registry."""

    def test_bgemm_end_to_end(self, tmp_path):
        from repro.core.batched import BatchedGemmShape

        tuner = Isaac(TESLA_P100, op="bgemm", dtypes=(DType.FP32,))
        tuner.tune(n_samples=250, epochs=8, generative_target=80, seed=3)

        shape = BatchedGemmShape(batch=32, base=GemmShape(128, 128, 256))
        top = tuner.top_k(shape, k=10)
        assert len(top) == 10

        cache = ProfileCache(tmp_path / "bgemm.json")
        best = tuner.best_kernel(shape, k=10, cache=cache)
        assert best.measured_tflops > 0
        hit = cache.get("bgemm", TESLA_P100.name, shape)
        assert hit is not None and hit[0] == best.config

    def test_bgemm_batch_is_input_feature(self):
        from repro.core.batched import BatchedGemmShape
        from repro.sampling.features import bgemm_shape_vector

        a = bgemm_shape_vector(BatchedGemmShape(4, GemmShape(64, 64, 64)))
        b = bgemm_shape_vector(BatchedGemmShape(64, GemmShape(64, 64, 64)))
        assert a[0] != b[0]
        np.testing.assert_allclose(a[1:], b[1:])


class TestProfileCacheAtomicity:
    def test_save_leaves_no_temp_files(self, tmp_path):
        cache = ProfileCache(tmp_path / "p.json")
        cache.put(
            "gemm", "dev", GemmShape(64, 64, 64),
            GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8), 1.0,
        )
        cache.save()
        # save() writes the cache plus its integrity sidecar, nothing else
        # (no leftover tempfiles from the atomic-replace dance).
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "p.json.b2"]
        assert json.loads((tmp_path / "p.json").read_text())

    def test_failed_replace_preserves_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "p.json"
        cache = ProfileCache(path)
        cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8)
        cache.put("gemm", "dev", GemmShape(64, 64, 64), cfg, 1.0)
        cache.save()
        before = path.read_text()

        cache.put("gemm", "dev", GemmShape(128, 128, 128), cfg, 2.0)
        import os as os_mod

        def boom(src, dst):
            raise OSError("simulated crash mid-save")

        monkeypatch.setattr(os_mod, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            cache.save()
        monkeypatch.undo()

        # The original file is untouched and still valid JSON …
        assert path.read_text() == before
        assert len(ProfileCache(path)) == 1
        # … and the aborted temp file was cleaned up.  The integrity
        # sidecar from the first save survives (the digest update runs
        # after the replace, which never happened) and still matches.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "p.json.b2"]
        from repro.core import integrity

        assert integrity.check(path) is True
