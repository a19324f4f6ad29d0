"""CONV kernel generator via implicit GEMM (paper §3.3).

Multi-channel convolution is lowered to an implicit (NPQ, K, CRS) matrix
multiplication: tiles of I and F are scrambled into shared memory through an
*indirection table* that pre-resolves the (c, r, s) -> address arithmetic,
keeping integer math out of the inner loop.  The generator therefore reuses
the GEMM instruction accounting through :meth:`ConvConfig.as_gemm_config`
and adds the convolution-specific surcharges:

* prologue construction of the indirection table (one entry per staged
  reduction index, rebuilt when the CG split rotates the CRS range);
* one table lookup (shared load + integer add) per staged I element;
* different coalescing runs: I and O are batch-contiguous (runs of N),
  F is output-channel-contiguous (runs of K).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ConvConfig
from repro.core.legality import conv_resources
from repro.core.types import ConvShape, DType, ceil_div
from repro.gpu.device import DeviceSpec
from repro.ptx.counts import BlockCounts, KernelCounts
from repro.ptx.gemm_codegen import (
    BOUNDS_MODES,
    coalescing_multiplier,
)


def uses_packed_fp16(
    cfg: ConvConfig, shape: ConvShape, device: DeviceSpec
) -> bool:
    return (
        device.fp16x2
        and shape.dtype is DType.FP16
        and cfg.vec >= 2
        and cfg.kt % 2 == 0
    )


@dataclass(frozen=True)
class ConvKernel:
    """A generated implicit-GEMM convolution kernel."""

    cfg: ConvConfig
    shape: ConvShape
    device: DeviceSpec
    bounds_mode: str = "predicated"
    allow_fp16x2: bool = True

    def __post_init__(self) -> None:
        if self.bounds_mode not in BOUNDS_MODES:
            raise ValueError(f"unknown bounds mode {self.bounds_mode!r}")

    @property
    def packed(self) -> bool:
        return self.allow_fp16x2 and uses_packed_fp16(
            self.cfg, self.shape, self.device
        )

    def block_counts(self) -> BlockCounts:
        cfg, shape = self.cfg, self.shape
        dt = shape.dtype
        dsize = dt.size
        threads = cfg.threads

        crs_b = cfg.crs_per_block(shape)
        iters = cfg.main_loop_iters(shape)

        tm, tn = cfg.thread_m, cfg.thread_n
        bm, bn = cfg.block_m, cfg.block_n

        fma_iter = tm * tn * cfg.u
        flops_per_fma = 2
        if self.packed:
            fma_iter //= 2
            flops_per_fma = 4

        widest = max(1, 16 // dsize)
        sva = max(1, min(tm, widest))
        svb = max(1, min(tn, widest))
        lds_iter = cfg.u * (ceil_div(tm, sva) + ceil_div(tn, svb))

        stage_elems = (bm + bn) * cfg.u * cfg.cl
        ldg_iter = max(1, stage_elems // (threads * cfg.vec))
        # Indirection-table lookup per staged I element (shared load + iadd).
        i_stage_per_thread = max(1, (bm * cfg.u * cfg.cl) // threads)
        lds_iter += i_stage_per_thread
        sts_iter = max(1, stage_elems // threads)  # scrambled: scalar stores

        iop_iter = 2 * ldg_iter + i_stage_per_thread + 4
        if self.bounds_mode == "predicated":
            iop_iter += max(1, int(0.2 * ldg_iter))
        elif self.bounds_mode == "checked":
            iop_iter += 4 * ldg_iter + 2

        bar_iter = 1 if cfg.db == 2 else 2

        fma = fma_iter * iters
        lds = lds_iter * iters
        ldg = ldg_iter * iters
        sts = sts_iter * iters
        iop = iop_iter * iters + 60
        bar = bar_iter * iters

        # Indirection-table build: U*CL entries of (c, r, s) decomposition,
        # ~4 integer ops and one shared store each, spread across the block.
        table_entries = cfg.u * cfg.cl
        iop += max(1, 4 * table_entries // threads)
        sts += max(1, table_entries // threads)

        acc = tm * tn
        if cfg.cl > 1:
            sts += acc
            lds += acc * (cfg.cl - 1) // cfg.cl
            fma += acc * (cfg.cl - 1) // cfg.cl
            bar += max(1, cfg.cl.bit_length() - 1)

        out_per_thread = max(1, acc // cfg.cl)
        atom = stg = 0
        if cfg.cg > 1:
            atom = out_per_thread
        else:
            stg = max(1, out_per_thread // cfg.vec)
        iop += 2 * (atom + stg)

        # Traffic.  I is C x H x W x N (batch-contiguous), F is C x R x S x K
        # (channel-contiguous), O is K x P x Q x N (batch-contiguous).
        run_i = cfg.nb if shape.n > 1 else cfg.qb
        run_f = cfg.kb
        ideal_i = bm * crs_b * dsize
        ideal_f = bn * crs_b * dsize
        mult_i = coalescing_multiplier(run_i, dt, self.device)
        mult_f = coalescing_multiplier(run_f, dt, self.device)
        ldg_bytes = ideal_i * mult_i + ideal_f * mult_f
        ideal_bytes = ideal_i + ideal_f
        st_bytes = bm * bn * dsize * (2.0 if cfg.cg > 1 else 1.0)

        mlp = max(1.0, float(ldg_iter)) * (1.5 if cfg.db == 2 else 1.0)
        ilp = float(min(acc * cfg.cs, 48))

        return BlockCounts(
            fma=fma * threads,
            iop=iop * threads,
            ldg=ldg * threads,
            stg=stg * threads,
            atom=atom * threads,
            lds=lds * threads,
            sts=sts * threads,
            bar=bar,
            ldg_bytes=ldg_bytes,
            ideal_ldg_bytes=ideal_bytes,
            st_bytes=st_bytes,
            flops_per_fma=flops_per_fma,
            mlp=mlp,
            ilp=ilp,
        )

    def kernel_counts(self) -> KernelCounts:
        return KernelCounts(
            block=self.block_counts(),
            grid_size=self.cfg.grid_size(self.shape),
            threads_per_block=self.cfg.threads,
        )

    def resources(self):
        return conv_resources(self.cfg, self.shape.dtype)

    def name(self) -> str:
        s, c = self.shape, self.cfg
        return (
            f"{s.dtype.short_name}conv_{c.kb}x{c.pb}x{c.qb}x{c.nb}"
            f"_u{c.u}_cl{c.cl}_cg{c.cg}_v{c.vec}"
        )

    def emit(self) -> str:
        from repro.ptx.module import render_conv_kernel

        return render_conv_kernel(self)
