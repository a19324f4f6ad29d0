"""End-to-end tests of the Isaac tuner and the profile cache."""

import pytest

from repro.core.profile_cache import ProfileCache
from repro.core.tuner import Isaac, TuneReport
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import TESLA_P100


class TestIsaacLifecycle:
    def test_requires_tune_before_inference(self):
        tuner = Isaac(TESLA_P100, op="gemm", dtypes=(DType.FP32,))
        assert not tuner.is_tuned
        with pytest.raises(RuntimeError, match="tune"):
            tuner.top_k(GemmShape(64, 64, 64))

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Isaac(TESLA_P100, op="fft")

    def test_default_dtypes_by_op(self):
        assert DType.FP64 in Isaac(TESLA_P100, op="gemm").dtypes
        assert DType.FP64 not in Isaac(TESLA_P100, op="conv").dtypes


class TestTunedGemm:
    """Uses the session-scoped small tuner from conftest."""

    def test_report(self, trained_gemm_tuner):
        assert trained_gemm_tuner.is_tuned
        assert trained_gemm_tuner.fit_result.val_mse < 0.5
        assert "MSE" in str(
            TuneReport(n_samples=10, val_mse=0.1, hidden=(32,))
        )

    def test_top_k_returns_sorted_predictions(self, trained_gemm_tuner):
        shape = GemmShape(1024, 1024, 1024, DType.FP32, False, True)
        top = trained_gemm_tuner.top_k(shape, k=10)
        preds = [t.predicted_tflops for t in top]
        assert preds == sorted(preds, reverse=True)

    def test_best_kernel_quality(self, trained_gemm_tuner):
        """Even the tiny-budget tuner must find a decent square kernel."""
        shape = GemmShape(2048, 2048, 2048, DType.FP32, False, True)
        best = trained_gemm_tuner.best_kernel(shape, k=60, reps=3)
        assert best.measured_tflops > 0.5 * TESLA_P100.peak_tflops(DType.FP32)

    def test_input_awareness(self, trained_gemm_tuner):
        """Different input shapes must get different kernels — the defining
        property of input-aware tuning."""
        square = trained_gemm_tuner.best_kernel(
            GemmShape(2048, 2048, 2048, DType.FP32, False, True), k=60
        ).config
        deep = trained_gemm_tuner.best_kernel(
            GemmShape(32, 32, 60000, DType.FP32, False, True), k=60
        ).config
        assert square != deep
        # Deep reductions must be split; square needs at most a mild split.
        assert deep.kg > 1 or deep.kl > 1
        assert square.kg <= 2

    def test_tflops_shortcut(self, trained_gemm_tuner):
        shape = GemmShape(512, 512, 512, DType.FP32, False, True)
        t = trained_gemm_tuner.tflops(shape, k=40)
        assert t > 0


class TestProfileCache:
    def test_round_trip(self, tmp_path, trained_gemm_tuner):
        cache = ProfileCache(tmp_path / "profiles.json")
        shape = GemmShape(512, 512, 512, DType.FP32, False, True)
        best = trained_gemm_tuner.best_kernel(shape, k=40, cache=cache)
        assert len(cache) == 1
        hit = trained_gemm_tuner.best_kernel(shape, k=40, cache=cache)
        assert hit.config == best.config
        assert hit.measured_tflops == best.measured_tflops

    def test_persistence(self, tmp_path):
        from repro.core.config import GemmConfig

        path = tmp_path / "p.json"
        cache = ProfileCache(path)
        shape = GemmShape(64, 64, 64)
        cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8)
        cache.put_gemm("dev", shape, cfg, 1.23)
        cache.save()

        reloaded = ProfileCache(path)
        got = reloaded.get_gemm("dev", shape)
        assert got is not None
        assert got[0] == cfg and got[1] == 1.23

    def test_distinct_layouts_distinct_entries(self, tmp_path):
        from repro.core.config import GemmConfig

        cache = ProfileCache(tmp_path / "p.json")
        cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8)
        cache.put_gemm("dev", GemmShape(64, 64, 64, ta=False), cfg, 1.0)
        cache.put_gemm("dev", GemmShape(64, 64, 64, ta=True), cfg, 2.0)
        assert len(cache) == 2

    def test_conv_entries(self, tmp_path):
        from repro.core.config import ConvConfig

        cache = ProfileCache(tmp_path / "p.json")
        shape = ConvShape.from_output(n=2, p=4, q=4, k=8, c=8, r=3, s=3)
        cfg = ConvConfig(kt=2, pt=2, qt=2, nt=1, kb=8, pb=2, qb=2, nb=2, u=4)
        assert cache.get_conv("dev", shape) is None
        cache.put_conv("dev", shape, cfg, 0.5)
        got = cache.get_conv("dev", shape)
        assert got == (cfg, 0.5)
