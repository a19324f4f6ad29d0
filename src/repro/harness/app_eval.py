"""Application-level evaluation: whole network steps, not single kernels.

Computes per-step wall time (sum of kernel times) under ISAAC and under
the baseline library, exposing the amplification effect: one badly chosen
kernel in a chain drags the entire application step.

Kernel selection goes through the :class:`~repro.service.engine.Engine`
front door: the step's distinct shapes are answered in one batched
``query_many`` call (repeated shapes within a step hit the engine cache —
the profile-cache effect: an application sees each distinct shape once
per deployment).  A bare :class:`~repro.core.tuner.Isaac` is accepted for
convenience and wrapped in a throwaway engine, and an
:class:`~repro.service.async_engine.AsyncEngine` routes the same batch
through the micro-batching shards (via its background-loop sync bridge)
— answers are config-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.cublas import CuBLASLike
from repro.baselines.cudnn import CuDNNLike
from repro.core.ops import get_op
from repro.core.tuner import Isaac
from repro.core.types import GemmShape
from repro.gpu.device import get_device
from repro.gpu.simulator import simulate_conv, simulate_gemm
from repro.service.async_engine import AsyncEngine
from repro.service.engine import Engine, KernelRequest
from repro.workloads.networks import NetworkStep


@dataclass(frozen=True)
class AppResult:
    """End-to-end timing of one network step."""

    step: NetworkStep
    isaac_ms: float
    baseline_ms: float
    per_kernel: tuple[tuple[str, float, float], ...]  # label, isaac, baseline

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.isaac_ms

    @property
    def isaac_tflops(self) -> float:
        return self.step.total_flops / self.isaac_ms / 1e9


def _kernel_time_ms(device, shape, cfg, op) -> float:
    return get_op(op).simulate(device, cfg, shape).time_ms


def _baseline_time_ms(device, shape, gemm_lib, conv_lib) -> float:
    if isinstance(shape, GemmShape):
        variants = {x.name: x for x in gemm_lib.kernels(shape.dtype)}
        chosen = variants.get(gemm_lib.select(shape).name)
        if chosen is None:
            chosen = gemm_lib.best_kernel(shape)
        return simulate_gemm(
            device, chosen.cfg, shape, allow_fp16x2=chosen.fp16x2
        ).time_ms
    kernel = conv_lib.select(shape)
    return simulate_conv(
        device, kernel.cfg, shape, allow_fp16x2=kernel.fp16x2
    ).time_ms


def run_network_step(
    engine: Engine | Isaac | AsyncEngine,
    step: NetworkStep,
    *,
    k: int = 60,
    reps: int = 3,
    device: str | None = None,
) -> AppResult:
    """Tune every kernel of the step; compare against the baseline library.

    ``engine`` is the serving :class:`Engine` (or a tuned ``Isaac``,
    which is wrapped, or an :class:`AsyncEngine`, dispatched through its
    sync bridge).  All distinct shapes go through one batched
    ``query_many`` dispatch; ``device`` selects among multi-device
    engines.
    """
    if isinstance(engine, Isaac):
        wrapped = Engine(max_workers=0)
        wrapped.register(engine)
        engine = wrapped
    if device is None:
        names = engine.devices()
        if len(names) != 1:
            raise ValueError(
                f"engine serves {list(names)}; pass device= to choose"
            )
        device = names[0]
    device_spec = get_device(device)
    gemm_lib = CuBLASLike(device_spec)
    conv_lib = CuDNNLike(device_spec)

    distinct = list(dict.fromkeys(shape for _, shape in step.kernels))
    requests = [
        KernelRequest(
            op=engine.op_for_shape(shape, device=device),
            shape=shape,
            device=device,
            k=k,
            reps=reps,
        )
        for shape in distinct
    ]
    if isinstance(engine, AsyncEngine):
        replies = engine.query_many_sync(requests)
    else:
        replies = engine.query_many(requests)
    chosen = {
        shape: (reply.config, reply.request.op)
        for shape, reply in zip(distinct, replies)
    }

    rows = []
    isaac_total = 0.0
    base_total = 0.0
    for label, shape in step.kernels:
        cfg, op = chosen[shape]
        isaac_ms = _kernel_time_ms(device_spec, shape, cfg, op)
        base_ms = _baseline_time_ms(device_spec, shape, gemm_lib, conv_lib)
        rows.append((label, isaac_ms, base_ms))
        isaac_total += isaac_ms
        base_total += base_ms

    return AppResult(
        step=step,
        isaac_ms=isaac_total,
        baseline_ms=base_total,
        per_kernel=tuple(rows),
    )
