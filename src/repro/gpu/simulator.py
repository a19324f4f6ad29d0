"""The simulated GPU: ground-truth performance for generated kernels.

This module is the stand-in for the paper's physical GTX 980 TI / Tesla P100
(see DESIGN.md).  ``simulate_gemm`` / ``simulate_conv`` run the full model
chain — codegen counts → occupancy → wave schedule → per-pipe latency-hiding
throughput → L2/DRAM traffic — and return a :class:`KernelStats` with the
kernel's time and the diagnostic quantities the paper reports in §8.1
(occupancy, register count, shared memory, L2 hit rate).

``benchmark_gemm`` / ``benchmark_conv`` add deterministic measurement noise
and are what the auto-tuner's data-generation and re-ranking stages call:
they play the role of actually launching the kernel.

The whole chain is built as an *array core*: ``simulate_gemm_many`` /
``simulate_conv_many`` (and the generic :func:`simulate_many` /
:func:`benchmark_many` dispatchers) evaluate N ``(config, shape)`` pairs in
one struct-of-arrays pass — this is what the offline pipeline (dataset
generation, shortlist re-ranking) runs on.  The scalar functions are thin
N = 1 wrappers over the same core, so batched and per-kernel results are
bit-identical by construction, deterministic noise included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ConvConfig, GemmConfig
from repro.core.legality import (
    ResourceArrays,
    ResourceUsage,
    conv_legal_mask,
    conv_resources_arrays,
    conv_violations,
    gemm_legal_mask,
    gemm_resources_arrays,
    gemm_violations,
)
from repro.core.soa import ConvPairArrays, GemmPairArrays
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import DeviceSpec
from repro.gpu.latency import pipe_times_arrays
from repro.gpu.memory import TrafficArrays, TrafficEstimate, estimate_traffic_arrays
from repro.gpu.noise import (
    DEFAULT_SIGMA,
    averaged_noise_factor,
    averaged_noise_factors,
)
from repro.gpu.occupancy import Occupancy, OccupancyArrays, occupancy_arrays
from repro.ptx.batch_counts import (
    LaunchArrays,
    conv_launch_arrays,
    gemm_launch_arrays,
)


class IllegalKernelError(ValueError):
    """Raised when a config outside X (the legal set) is simulated."""


#: Bottleneck names indexed by ``KernelStatsArrays.limiter_idx``: the three
#: issue pipes of the latency model plus device-wide DRAM bandwidth.
LIMITERS = ("alu", "ldst", "issue", "dram")
_DRAM_LIMITER = 3


def measurement_key(device: DeviceSpec, op: str, cfg, shape) -> str:
    """The deterministic-noise key of one measurement.

    Every benchmark entry point — scalar or batched, any op — must derive
    its noise from this exact string: it is what makes a batched
    measurement bit-identical to the per-kernel one, and what keeps
    repeated measurements of the same (device, config, shape) consistent.
    """
    return f"{device.name}|{op}|{cfg.as_dict()}|{shape}"


def measurement_keys(device: DeviceSpec, op: str, cfgs, shapes) -> list[str]:
    return [
        measurement_key(device, op, cfg, shape)
        for cfg, shape in zip(cfgs, shapes)
    ]


@dataclass(frozen=True)
class KernelStats:
    """Everything the simulator knows about one kernel launch."""

    device_name: str
    time_ms: float
    useful_flops: int
    padded_flops: int
    occupancy: Occupancy
    resources: ResourceUsage
    traffic: TrafficEstimate
    limiter: str
    waves: float
    grid_size: int

    @property
    def tflops(self) -> float:
        """Effective throughput in useful TFLOPS (the paper's y-axis)."""
        return self.useful_flops / self.time_ms / 1e9

    @property
    def padding_waste(self) -> float:
        """Fraction of executed FLOPs spent on predicated-off tile padding."""
        if self.padded_flops == 0:
            return 0.0
        return 1.0 - self.useful_flops / self.padded_flops

    @property
    def dram_gbs(self) -> float:
        return self.traffic.dram_bytes / (self.time_ms * 1e6)


@dataclass(frozen=True)
class KernelStatsArrays:
    """Struct-of-arrays :class:`KernelStats` for a batch of launches.

    ``legal`` marks rows whose config is inside X *and* fits on the device;
    illegal rows carry NaN times (the batched analogue of
    :class:`IllegalKernelError`).
    """

    device_name: str
    time_ms: np.ndarray
    useful_flops: np.ndarray
    padded_flops: np.ndarray
    occupancy: OccupancyArrays
    resources: ResourceArrays
    traffic: TrafficArrays
    limiter_idx: np.ndarray
    waves: np.ndarray
    grid_size: np.ndarray
    legal: np.ndarray

    def __len__(self) -> int:
        return len(self.time_ms)

    @property
    def tflops(self) -> np.ndarray:
        """Useful TFLOPS per launch (NaN on illegal rows)."""
        return self.useful_flops / self.time_ms / 1e9

    def limiter_name(self, i: int) -> str:
        return LIMITERS[int(self.limiter_idx[i])]

    def row(self, i: int) -> KernelStats:
        """Materialize one row as a scalar :class:`KernelStats`."""
        return KernelStats(
            device_name=self.device_name,
            time_ms=float(self.time_ms[i]),
            useful_flops=int(self.useful_flops[i]),
            padded_flops=int(self.padded_flops[i]),
            occupancy=self.occupancy.row(i),
            resources=ResourceUsage(
                threads=int(self.resources.threads[i]),
                regs_per_thread=int(self.resources.regs_per_thread[i]),
                smem_bytes=int(self.resources.smem_bytes[i]),
            ),
            traffic=self.traffic.row(i),
            limiter=self.limiter_name(i),
            waves=float(self.waves[i]),
            grid_size=int(self.grid_size[i]),
        )


def _wave_time_arrays(
    device: DeviceSpec,
    launch: LaunchArrays,
    blocks_in_wave: np.ndarray,
    blocks_per_sm_cap: np.ndarray,
    dram_bytes_per_block: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Time (ms) and limiter index for one wave of concurrent blocks, per row."""
    counts = launch.counts
    busy_sms = np.minimum(device.sms, blocks_in_wave)
    b_eff = -(-blocks_in_wave // busy_sms)
    b_eff = np.minimum(b_eff, blocks_per_sm_cap)
    warps = b_eff * -(-launch.threads_per_block // device.warp_size)

    pipes = pipe_times_arrays(
        device,
        fma=counts.fma,
        iop=counts.iop,
        ldg=counts.ldg,
        stg=counts.stg,
        atom=counts.atom,
        smem_ops=counts.smem_ops,
        bar=counts.bar,
        mlp=counts.mlp,
        ilp=counts.ilp,
        flops_per_fma=counts.flops_per_fma,
        dsize=launch.dsize,
        blocks_per_sm=b_eff,
        warps_per_sm=warps,
    )
    clock_hz = device.boost_mhz * 1e6
    t_sm_ms = pipes.cycles / clock_hz * 1e3

    # DRAM is a device-wide resource: the wave's traffic at full bandwidth.
    wave_bytes = dram_bytes_per_block * blocks_in_wave
    t_dram_ms = wave_bytes / (device.mem_bw_gbs * 1e9) * 1e3

    # Pipeline ramp: the first loads of a wave see full memory latency.
    t_ramp_ms = device.mem_lat / clock_hz * 1e3

    dram_bound = t_dram_ms > t_sm_ms
    t = np.where(dram_bound, t_dram_ms, t_sm_ms) + t_ramp_ms
    limiter = np.where(dram_bound, _DRAM_LIMITER, pipes.limiter_idx)
    return t, limiter


def _simulate_arrays(
    device: DeviceSpec,
    launch: LaunchArrays,
    res: ResourceArrays,
    legal: np.ndarray,
) -> KernelStatsArrays:
    """The array core: occupancy → traffic → wave schedule, N launches at once.

    ``legal`` is the caller's config-legality mask; rows that additionally
    fail to fit on the device (inactive occupancy) are cleared from it, and
    every cleared row reports NaN time.
    """
    occ = occupancy_arrays(
        device, res.threads, res.regs_per_thread, res.smem_bytes
    )
    legal = legal & occ.active

    grid_size = launch.grid_size
    concurrent = occ.blocks_per_sm * device.sms
    # Inactive rows are masked out at the end; clamp their divisors so the
    # vectorized arithmetic stays well-defined.
    conc = np.maximum(concurrent, 1)

    counts = launch.counts
    traffic = estimate_traffic_arrays(
        device,
        ldg_bytes_per_block=counts.ldg_bytes,
        ideal_ldg_bytes_per_block=counts.ideal_ldg_bytes,
        st_bytes_per_block=counts.st_bytes,
        grid_m=launch.grid_m,
        grid_n=launch.grid_n,
        kg=launch.kg,
        concurrent_blocks=concurrent,
        a_bytes_frac=launch.a_bytes_frac,
        staged_bytes_per_block=launch.staged_bytes,
        staged_depth=launch.staged_depth,
    )
    dram_bytes_per_block = traffic.dram_bytes / np.maximum(1, grid_size)

    return _schedule_waves(
        device, launch, res, occ, traffic, legal,
        grid_size=grid_size,
        concurrent=conc,
        dram_bytes_per_block=dram_bytes_per_block,
        useful_flops=launch.useful_flops,
        padded_flops=launch.padded_flops,
    )


def _schedule_waves(
    device: DeviceSpec,
    launch: LaunchArrays,
    res: ResourceArrays,
    occ: OccupancyArrays,
    traffic: TrafficArrays,
    legal: np.ndarray,
    *,
    grid_size: np.ndarray,
    concurrent: np.ndarray,
    dram_bytes_per_block: np.ndarray,
    useful_flops: np.ndarray,
    padded_flops: np.ndarray,
) -> KernelStatsArrays:
    """Price full waves + the remainder wave and assemble the stats batch."""
    full_waves, rem = np.divmod(grid_size, concurrent)
    t_full, lim_full = _wave_time_arrays(
        device, launch, concurrent, occ.blocks_per_sm, dram_bytes_per_block
    )
    t_rem, lim_rem = _wave_time_arrays(
        device, launch, np.maximum(rem, 1), occ.blocks_per_sm,
        dram_bytes_per_block,
    )
    has_full = full_waves > 0
    has_rem = rem > 0
    total_ms = np.where(has_full, t_full * full_waves, 0.0) + np.where(
        has_rem, t_rem, 0.0
    )
    total_ms = total_ms + device.kernel_launch_us * 1e-3
    limiter = np.where(has_full, lim_full, np.where(has_rem, lim_rem, 0))

    return KernelStatsArrays(
        device_name=device.name,
        time_ms=np.where(legal, total_ms, np.nan),
        useful_flops=useful_flops,
        padded_flops=padded_flops,
        occupancy=occ,
        resources=res,
        traffic=traffic,
        limiter_idx=limiter,
        waves=grid_size / concurrent,
        grid_size=grid_size,
        legal=legal,
    )


# ----------------------------------------------------------------------
# GEMM
# ----------------------------------------------------------------------

def simulate_gemm_many(
    device: DeviceSpec,
    cfgs,
    shapes,
    *,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
    check_legality: bool = True,
) -> KernelStatsArrays:
    """Noise-free model evaluation of N GEMM kernels in one array pass.

    Rows whose config is illegal for its shape's dtype (or does not fit on
    the device) come back with ``legal=False`` and NaN time instead of the
    scalar path's :class:`IllegalKernelError`.
    """
    soa = GemmPairArrays.from_pairs(cfgs, shapes)
    legal = _legal_mask_by_dsize(
        device, soa.config_params(), soa.dsize, gemm_legal_mask, check_legality
    )
    launch = gemm_launch_arrays(
        device, soa, bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2
    )
    res = gemm_resources_arrays(soa.config_params(), soa.dsize)
    return _simulate_arrays(device, launch, res, legal)


def benchmark_gemm_many(
    device: DeviceSpec,
    cfgs,
    shapes,
    *,
    reps: int = 1,
    sigma: float = DEFAULT_SIGMA,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
) -> np.ndarray:
    """Measured TFLOPS for N GEMM kernels (deterministic noise, NaN = illegal)."""
    stats = simulate_gemm_many(
        device, cfgs, shapes,
        bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2,
    )
    keys = measurement_keys(device, "gemm", cfgs, shapes)
    return stats.tflops * averaged_noise_factors(keys, reps, sigma)


def simulate_gemm(
    device: DeviceSpec,
    cfg: GemmConfig,
    shape: GemmShape,
    *,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
    check_legality: bool = True,
) -> KernelStats:
    """Noise-free model evaluation of a GEMM kernel (N = 1 wrapper)."""
    if check_legality:
        violations = gemm_violations(cfg, shape.dtype, device)
        if violations:
            raise IllegalKernelError("; ".join(violations))
    stats = simulate_gemm_many(
        device, [cfg], [shape],
        bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2,
        check_legality=False,
    )
    if not stats.legal[0]:
        raise IllegalKernelError(
            f"kernel does not fit on {device.name}: "
            f"{stats.occupancy.limiter_name(0)}"
        )
    return stats.row(0)


def benchmark_gemm(
    device: DeviceSpec,
    cfg: GemmConfig,
    shape: GemmShape,
    *,
    reps: int = 1,
    sigma: float = DEFAULT_SIGMA,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
) -> float:
    """Measured TFLOPS — the simulator's analogue of launching the kernel.

    Deterministic per (device, cfg, shape); ``reps`` averages independent
    repetitions like a real benchmark loop would.
    """
    stats = simulate_gemm(
        device, cfg, shape,
        bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2,
    )
    key = measurement_key(device, "gemm", cfg, shape)
    return stats.tflops * averaged_noise_factor(key, reps, sigma)


# ----------------------------------------------------------------------
# CONV
# ----------------------------------------------------------------------

def simulate_conv_many(
    device: DeviceSpec,
    cfgs,
    shapes,
    *,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
    check_legality: bool = True,
) -> KernelStatsArrays:
    """Noise-free model evaluation of N implicit-GEMM convolution kernels."""
    soa = ConvPairArrays.from_pairs(cfgs, shapes)
    legal = _legal_mask_by_dsize(
        device, soa.config_params(), soa.dsize, conv_legal_mask, check_legality
    )
    launch = conv_launch_arrays(
        device, soa, bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2
    )
    res = conv_resources_arrays(soa.config_params(), soa.dsize)
    return _simulate_arrays(device, launch, res, legal)


def benchmark_conv_many(
    device: DeviceSpec,
    cfgs,
    shapes,
    *,
    reps: int = 1,
    sigma: float = DEFAULT_SIGMA,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
) -> np.ndarray:
    """Measured TFLOPS for N convolution kernels (NaN = illegal)."""
    stats = simulate_conv_many(
        device, cfgs, shapes,
        bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2,
    )
    keys = measurement_keys(device, "conv", cfgs, shapes)
    return stats.tflops * averaged_noise_factors(keys, reps, sigma)


def simulate_conv(
    device: DeviceSpec,
    cfg: ConvConfig,
    shape: ConvShape,
    *,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
    check_legality: bool = True,
) -> KernelStats:
    """Noise-free model evaluation of one convolution kernel (N = 1 wrapper)."""
    if check_legality:
        violations = conv_violations(cfg, shape.dtype, device)
        if violations:
            raise IllegalKernelError("; ".join(violations))
    stats = simulate_conv_many(
        device, [cfg], [shape],
        bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2,
        check_legality=False,
    )
    if not stats.legal[0]:
        raise IllegalKernelError(
            f"kernel does not fit on {device.name}: "
            f"{stats.occupancy.limiter_name(0)}"
        )
    return stats.row(0)


def benchmark_conv(
    device: DeviceSpec,
    cfg: ConvConfig,
    shape: ConvShape,
    *,
    reps: int = 1,
    sigma: float = DEFAULT_SIGMA,
    bounds_mode: str = "predicated",
    allow_fp16x2: bool = True,
) -> float:
    """Measured TFLOPS for a convolution kernel (deterministic noise)."""
    stats = simulate_conv(
        device, cfg, shape,
        bounds_mode=bounds_mode, allow_fp16x2=allow_fp16x2,
    )
    key = measurement_key(device, "conv", cfg, shape)
    return stats.tflops * averaged_noise_factor(key, reps, sigma)


# ----------------------------------------------------------------------
# Generic batched entry points (dispatch through the op registry)
# ----------------------------------------------------------------------

def simulate_many(device: DeviceSpec, op, cfgs, shapes, **kwargs):
    """Batched noise-free evaluation for any registered op."""
    from repro.core.ops import get_op

    return get_op(op).simulate_many(device, cfgs, shapes, **kwargs)


def benchmark_many(
    device: DeviceSpec,
    op,
    cfgs,
    shapes,
    *,
    reps: int = 1,
    sigma: float = DEFAULT_SIGMA,
) -> np.ndarray:
    """Measured TFLOPS for N (config, shape) pairs of any registered op.

    Dispatches to the op's ``benchmark_many`` slot; illegal pairs yield
    NaN.
    """
    from repro.core.ops import get_op

    return get_op(op).benchmark_pairs(
        device, cfgs, shapes, reps=reps, sigma=sigma
    )


def _legal_mask_by_dsize(
    device: DeviceSpec,
    params,
    dsize: np.ndarray,
    mask_fn,
    check_legality: bool,
) -> np.ndarray:
    """Run a per-dtype legality mask over a mixed-dtype batch."""
    if not check_legality:
        return np.ones(len(dsize), dtype=bool)
    legal = np.zeros(len(dsize), dtype=bool)
    for size in np.unique(dsize):
        sel = dsize == size
        sub = {name: col[sel] for name, col in params.items()}
        legal[sel] = mask_fn(device, sub, DType(int(size)))
    return legal
