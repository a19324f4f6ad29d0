"""Tests for the GEMM kernel generator's instruction accounting."""

import pytest
from hypothesis import given, settings

from repro.core.config import GemmConfig
from repro.core.legality import is_legal_gemm
from repro.core.types import DType, GemmShape
from repro.gpu.device import GTX_980_TI, TESLA_P100
from repro.ptx.gemm_codegen import (
    GemmKernel,
    coalescing_multiplier,
    uses_packed_fp16,
)

from tests.test_legality import gemm_configs


def _kernel(cfg, shape, device=GTX_980_TI, **kw) -> GemmKernel:
    return GemmKernel(cfg=cfg, shape=shape, device=device, **kw)


class TestFmaAccounting:
    def test_total_fma_equals_padded_volume(self, good_gemm_cfg):
        """Every (m, n, k) of the padded tile volume is one FMA."""
        shape = GemmShape(128, 128, 512, DType.FP32, False, True)
        counts = _kernel(good_gemm_cfg, shape).kernel_counts()
        total_fma = counts.block.fma * counts.grid_size
        # exact tiling: padded volume == M*N*K
        assert total_fma == 128 * 128 * 512

    def test_split_configs_preserve_fma_total(self, square_shape):
        """KL/KG splits redistribute but do not change main-loop FMAs
        (up to the small KL merge adds)."""
        base = GemmConfig(ms=4, ns=4, ml=32, nl=32, u=8, vec=1, db=1)
        split = base.with_(kl=2, kg=2)
        c0 = _kernel(base, square_shape).kernel_counts()
        c1 = _kernel(split, square_shape).kernel_counts()
        f0 = c0.block.fma * c0.grid_size
        f1 = c1.block.fma * c1.grid_size
        assert f1 >= f0
        assert (f1 - f0) / f0 < 0.01

    def test_packed_fp16_halves_fma_instructions(self):
        shape16 = GemmShape(128, 128, 512, DType.FP16, False, True)
        cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=4, db=2)
        packed = _kernel(cfg, shape16, TESLA_P100).block_counts()
        unpacked = _kernel(
            cfg, shape16, TESLA_P100, allow_fp16x2=False
        ).block_counts()
        assert packed.fma * 2 == unpacked.fma
        assert packed.flops == unpacked.flops  # FLOPs conserved

    def test_no_packed_fp16_on_maxwell(self):
        shape16 = GemmShape(128, 128, 512, DType.FP16, False, True)
        cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=4, db=2)
        assert not _kernel(cfg, shape16, GTX_980_TI).packed
        assert not uses_packed_fp16(cfg, shape16, GTX_980_TI)


class TestTrafficAccounting:
    def test_ideal_bytes_match_operand_tiles(self, good_gemm_cfg):
        shape = GemmShape(256, 256, 1024, DType.FP32, False, True)
        block = _kernel(good_gemm_cfg, shape).block_counts()
        kb = 1024  # kg=1
        expected = (good_gemm_cfg.ml + good_gemm_cfg.nl) * kb * 4
        assert block.ideal_ldg_bytes == expected

    def test_coalesced_traffic_never_below_ideal(self, good_gemm_cfg):
        for ta in (False, True):
            for tb in (False, True):
                shape = GemmShape(256, 256, 1024, DType.FP32, ta, tb)
                block = _kernel(good_gemm_cfg, shape).block_counts()
                assert block.ldg_bytes >= block.ideal_ldg_bytes

    def test_kg_split_doubles_store_traffic(self, deep_shape):
        cfg = GemmConfig(ms=4, ns=4, ml=32, nl=32, u=8, vec=1, db=1)
        plain = _kernel(cfg, deep_shape).block_counts()
        split = _kernel(cfg.with_(kg=8), deep_shape).block_counts()
        assert split.st_bytes == 2 * plain.st_bytes
        assert split.atom > 0 and plain.atom == 0

    def test_coalescing_multiplier_bounds(self):
        for run in (1, 2, 4, 8, 32, 256):
            for dt in DType:
                m = coalescing_multiplier(run, dt, GTX_980_TI)
                assert 1.0 <= m <= GTX_980_TI.coalesce_penalty

    def test_full_run_is_free(self):
        assert coalescing_multiplier(64, DType.FP32, GTX_980_TI) == 1.0


class TestBoundsModes:
    def test_padded_mode_rounds_shape_up(self, good_gemm_cfg):
        shape = GemmShape(100, 100, 64, DType.FP32)
        k = _kernel(good_gemm_cfg, shape, bounds_mode="padded")
        eff = k.effective_shape
        assert eff.m == 128 and eff.n == 128 and eff.k == 64

    def test_predicated_mode_keeps_shape(self, good_gemm_cfg):
        shape = GemmShape(100, 100, 64, DType.FP32)
        k = _kernel(good_gemm_cfg, shape, bounds_mode="predicated")
        assert k.effective_shape == shape

    def test_checked_mode_costs_more_instructions(self, good_gemm_cfg,
                                                  square_shape):
        pred = _kernel(good_gemm_cfg, square_shape,
                       bounds_mode="predicated").block_counts()
        chk = _kernel(good_gemm_cfg, square_shape,
                      bounds_mode="checked").block_counts()
        assert chk.iop > pred.iop
        assert chk.ldg >= pred.ldg  # scalarized loads

    def test_unknown_mode_rejected(self, good_gemm_cfg, square_shape):
        with pytest.raises(ValueError, match="bounds mode"):
            _kernel(good_gemm_cfg, square_shape, bounds_mode="yolo")


class TestTransposes:
    def test_tn_layout_needs_both_transposes(self):
        shape = GemmShape(256, 256, 256, DType.FP32, True, False)
        k = _kernel(GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=4, db=2),
                    shape)
        assert k.needs_transpose_a and k.needs_transpose_b

    def test_nt_layout_needs_none(self):
        shape = GemmShape(256, 256, 256, DType.FP32, False, True)
        k = _kernel(GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=4, db=2),
                    shape)
        assert not k.needs_transpose_a and not k.needs_transpose_b

    def test_transposes_cost_scalar_smem_stores(self):
        cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=4, db=2)
        nt = _kernel(cfg, GemmShape(256, 256, 256, DType.FP32, False, True))
        tn = _kernel(cfg, GemmShape(256, 256, 256, DType.FP32, True, False))
        assert tn.block_counts().sts > nt.block_counts().sts


class TestCountsPositivity:
    @given(cfg=gemm_configs())
    @settings(max_examples=150, deadline=None)
    def test_legal_config_counts_well_formed(self, cfg):
        shape = GemmShape(512, 384, 777, DType.FP32, False, False)
        if not is_legal_gemm(cfg, shape.dtype, GTX_980_TI):
            return
        block = _kernel(cfg, shape).block_counts()
        assert block.fma > 0
        assert block.ldg > 0
        assert block.lds > 0
        assert block.bar >= 1
        assert block.ldg_bytes >= block.ideal_ldg_bytes > 0
        assert block.st_bytes > 0
        assert block.mlp >= 1.0 and block.ilp >= 1.0
        assert (block.atom > 0) == (cfg.kg > 1)


class TestNaming:
    def test_name_encodes_dtype_and_tiles(self, good_gemm_cfg):
        shape = GemmShape(64, 64, 64, DType.FP16, False, True)
        name = _kernel(good_gemm_cfg, shape, TESLA_P100).name()
        assert name.startswith("hgemm_nt")
        assert "64x64" in name
