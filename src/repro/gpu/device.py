"""Device specifications for the simulated GPUs (paper Table 3).

The paper evaluates on a consumer Maxwell part (GTX 980 TI / GM200) and a
server Pascal part (Tesla P100 / GP100).  We reproduce both as
:class:`DeviceSpec` instances: the public columns of Table 3 plus the
micro-architectural constants the performance model needs (register file,
shared memory, scheduler widths, latencies, precision throughput ratios).

Published sources for the non-Table-3 constants: the CUDA occupancy tables
for compute capability 5.2 / 6.0 and Volkov's dissertation (paper ref [16])
for latency figures.  Exact values matter less than their *relationships* —
they define the trade-off surface the auto-tuner learns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import DType


@dataclass(frozen=True)
class DeviceSpec:
    """A simulated CUDA device.

    Throughput-model fields:

    * ``alu_lat`` — dependent-issue latency of an FMA (cycles).
    * ``mem_lat`` — average global-memory round trip (cycles).
    * ``smem_lat`` — shared-memory load latency (cycles).
    * ``fma_per_sm_per_cycle`` — fp32 FMA lanes per SM.
    * ``ldst_per_sm_per_cycle`` — load/store units per SM (32-bit accesses).
    * ``atomic_bw_frac`` — global-atomic throughput as a fraction of plain
      store throughput (atomics serialize in the L2).
    * ``coalesce_penalty`` — traffic multiplier for strided (uncoalesced)
      global accesses; GDDR5's narrow-burst behaviour differs from HBM2's.
    """

    name: str
    arch: str                      # "maxwell" | "pascal"
    chip: str
    market_segment: str
    sms: int
    cuda_cores: int
    boost_mhz: int
    mem_gb: int
    mem_type: str                  # "GDDR5" | "HBM2"
    mem_bw_gbs: float
    tdp_w: int
    l2_kb: int
    # Occupancy-relevant limits (per SM unless noted)
    smem_per_sm_kb: int
    smem_per_block_kb: int
    regfile_per_sm: int            # 32-bit registers
    max_regs_per_thread: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    warp_size: int
    schedulers_per_sm: int
    # Latency / throughput model constants
    alu_lat: float
    mem_lat: float
    smem_lat: float
    fma_per_sm_per_cycle: float
    ldst_per_sm_per_cycle: float
    atomic_bw_frac: float
    coalesce_penalty: float
    # Precision throughput, relative to fp32 FMA rate
    fp16_ratio: float
    fp64_ratio: float
    fp16x2: bool                   # packed half2 FMA available?
    kernel_launch_us: float = 5.0

    # ------------------------------------------------------------------
    @property
    def clock_ghz(self) -> float:
        return self.boost_mhz / 1000.0

    def peak_tflops(self, dtype: DType = DType.FP32) -> float:
        """Peak arithmetic throughput: 2 FLOPs per FMA per lane per cycle."""
        fp32 = 2.0 * self.sms * self.fma_per_sm_per_cycle * self.clock_ghz / 1e3
        if dtype is DType.FP32:
            return fp32
        if dtype is DType.FP16:
            return fp32 * self.fp16_ratio
        return fp32 * self.fp64_ratio

    def fma_rate(self, dtype: DType, packed: bool) -> float:
        """FMA *instructions* retired per SM per cycle for ``dtype``.

        For fp16 the double-rate path requires the packed half2 instruction
        (``packed=True``); scalar fp16 math runs at fp32 rate at best.  Each
        packed instruction performs two FMAs, so its instruction rate equals
        the fp32 rate while its FLOP rate doubles.
        """
        base = self.fma_per_sm_per_cycle
        if dtype is DType.FP32:
            return base
        if dtype is DType.FP16:
            if packed and self.fp16x2:
                return base  # 2 FLOPs/instr handled by the caller
            return base * min(1.0, self.fp16_ratio)
        return base * self.fp64_ratio

    def describe_rows(self) -> list[tuple[str, str]]:
        """The rows of paper Table 3, in order."""
        return [
            ("GPU", self.name),
            ("Market Segment", self.market_segment),
            ("Micro-architecture", self.chip),
            ("CUDA cores", str(self.cuda_cores)),
            ("Boost frequency", f"{self.boost_mhz} MHz"),
            ("Processing Power", f"{self.peak_tflops(DType.FP32):.1f} TFLOPS"),
            ("Memory quantity", f"{self.mem_gb} GB"),
            ("Memory Type", self.mem_type),
            ("Memory Bandwidth", f"{self.mem_bw_gbs:.0f} GB/s"),
            ("TDP", f"{self.tdp_w}W"),
        ]


GTX_980_TI = DeviceSpec(
    name="GTX 980 TI",
    arch="maxwell",
    chip="GM200",
    market_segment="Consumer",
    sms=22,
    cuda_cores=2816,
    boost_mhz=1075,
    mem_gb=6,
    mem_type="GDDR5",
    mem_bw_gbs=336.0,
    tdp_w=250,
    l2_kb=3072,
    smem_per_sm_kb=96,
    smem_per_block_kb=48,
    regfile_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    warp_size=32,
    schedulers_per_sm=4,
    alu_lat=6.0,
    mem_lat=380.0,
    smem_lat=24.0,
    fma_per_sm_per_cycle=128.0,
    ldst_per_sm_per_cycle=32.0,
    atomic_bw_frac=0.25,
    coalesce_penalty=2.4,
    fp16_ratio=1.0,     # GM200 has no fast fp16 path
    fp64_ratio=1.0 / 32.0,
    fp16x2=False,
)

TESLA_P100 = DeviceSpec(
    name="Tesla P100 (PCIE)",
    arch="pascal",
    chip="GP100",
    market_segment="Server",
    sms=56,
    cuda_cores=3584,
    boost_mhz=1353,
    mem_gb=16,
    mem_type="HBM2",
    mem_bw_gbs=732.0,
    tdp_w=250,
    l2_kb=4096,
    smem_per_sm_kb=64,
    smem_per_block_kb=48,
    regfile_per_sm=65536,
    max_regs_per_thread=255,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    warp_size=32,
    schedulers_per_sm=2,
    alu_lat=6.0,
    mem_lat=420.0,
    smem_lat=26.0,
    fma_per_sm_per_cycle=64.0,
    ldst_per_sm_per_cycle=16.0,
    atomic_bw_frac=0.35,
    coalesce_penalty=1.9,
    fp16_ratio=2.0,     # GP100 double-rate packed fp16
    fp64_ratio=0.5,
    fp16x2=True,
)


_REGISTRY: dict[str, DeviceSpec] = {
    "gtx980ti": GTX_980_TI,
    "gtx 980 ti": GTX_980_TI,
    "maxwell": GTX_980_TI,
    "p100": TESLA_P100,
    "tesla p100": TESLA_P100,
    "tesla p100 (pcie)": TESLA_P100,
    "pascal": TESLA_P100,
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by (case-insensitive) name or architecture alias."""
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown device {name!r}; known: {sorted(set(_REGISTRY))}"
        )
    return _REGISTRY[key]


def all_devices() -> tuple[DeviceSpec, ...]:
    return (GTX_980_TI, TESLA_P100)
