"""Training-data synthesis: benchmark random (shape, config) pairs (§4).

The data-generation step produces pairs (x, y) where x concatenates input
and tuning parameters and y is a performance measurement of the induced
kernel on the target hardware — here, the simulated device with its
deterministic measurement noise.  Shapes are drawn log-uniformly over the
practically relevant ranges so the benchmark suites of §7 are squarely
in-distribution; configs come from the fitted categorical generative model
(rejection-sampled to legality).

Generation is batched (:func:`generate_dataset`); the one-sample-per-trip
loop that reproduces the pre-batching datasets is a test oracle
(``tests/oracles.py``), not a second path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.batched import BatchedGemmShape
from repro.core.ops import OpSpec, get_op
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import DeviceSpec
from repro.gpu.noise import DEFAULT_SIGMA
from repro.sampling.generative import CategoricalModel


def _log_uniform_int(
    rng: np.random.Generator, lo: int, hi: int, round_pow2_prob: float = 0.5
) -> int:
    """Log-uniform integer in [lo, hi]; sometimes snapped to a power of two.

    Real workloads mix arbitrary extents (60000-sample ICA windows) with
    power-of-two ones (LINPACK blocks), so the sampler covers both.
    """
    v = int(round(2 ** rng.uniform(np.log2(lo), np.log2(hi))))
    v = max(lo, min(hi, v))
    if rng.random() < round_pow2_prob:
        v = 1 << max(0, int(round(np.log2(v))))
        v = max(lo, min(hi, v))
    return v


# ----------------------------------------------------------------------
# Shape samplers
# ----------------------------------------------------------------------

@dataclass
class GemmShapeSampler:
    """Random GEMM input parameters covering the paper's workload ranges."""

    m_range: tuple[int, int] = (16, 4096)
    n_range: tuple[int, int] = (16, 4096)
    k_range: tuple[int, int] = (16, 65536)
    dtypes: tuple[DType, ...] = (DType.FP32, DType.FP16, DType.FP64)

    def __call__(self, rng: np.random.Generator) -> GemmShape:
        return GemmShape(
            m=_log_uniform_int(rng, *self.m_range),
            n=_log_uniform_int(rng, *self.n_range),
            k=_log_uniform_int(rng, *self.k_range),
            dtype=self.dtypes[rng.integers(len(self.dtypes))],
            ta=bool(rng.integers(2)),
            tb=bool(rng.integers(2)),
        )


@dataclass
class ConvShapeSampler:
    """Random CONV input parameters spanning the DeepBench-style layers."""

    n_range: tuple[int, int] = (1, 32)
    c_range: tuple[int, int] = (1, 1024)
    k_range: tuple[int, int] = (16, 2048)
    pq_range: tuple[int, int] = (7, 256)
    filter_sizes: tuple[int, ...] = (1, 3, 5, 7, 11, 20)
    dtypes: tuple[DType, ...] = (DType.FP32, DType.FP16)

    def __call__(self, rng: np.random.Generator) -> ConvShape:
        r = int(self.filter_sizes[rng.integers(len(self.filter_sizes))])
        s = int(self.filter_sizes[rng.integers(len(self.filter_sizes))])
        p = _log_uniform_int(rng, *self.pq_range)
        q = _log_uniform_int(rng, *self.pq_range)
        return ConvShape.from_output(
            n=_log_uniform_int(rng, *self.n_range),
            p=p,
            q=q,
            k=_log_uniform_int(rng, *self.k_range),
            c=_log_uniform_int(rng, *self.c_range),
            r=r,
            s=s,
            dtype=self.dtypes[rng.integers(len(self.dtypes))],
        )


@dataclass
class BatchedGemmShapeSampler:
    """Random strided-batched GEMM inputs: many small identical products.

    RNN timestep stacks and attention blocks launch hundreds of small
    GEMMs, so the batch range is wide while the per-element extents stay
    modest (a large batched product would be a plain GEMM).
    """

    batch_range: tuple[int, int] = (2, 256)
    m_range: tuple[int, int] = (16, 1024)
    n_range: tuple[int, int] = (16, 1024)
    k_range: tuple[int, int] = (16, 4096)
    dtypes: tuple[DType, ...] = (DType.FP32, DType.FP16)

    def __call__(self, rng: np.random.Generator) -> BatchedGemmShape:
        base = GemmShape(
            m=_log_uniform_int(rng, *self.m_range),
            n=_log_uniform_int(rng, *self.n_range),
            k=_log_uniform_int(rng, *self.k_range),
            dtype=self.dtypes[rng.integers(len(self.dtypes))],
            ta=bool(rng.integers(2)),
            tb=bool(rng.integers(2)),
        )
        return BatchedGemmShape(
            batch=_log_uniform_int(rng, *self.batch_range), base=base
        )


# ----------------------------------------------------------------------
# Datasets
# ----------------------------------------------------------------------

@dataclass
class Dataset:
    """Raw (un-transformed) features and measured log-performance targets.

    ``x`` holds *raw integer-valued* features; the log transform and
    standardization are training-time choices (so the no-log ablation can
    reuse the same data).  ``y`` is ``log2(measured TFLOPS)``.
    """

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, n: int) -> "Dataset":
        if n > len(self):
            raise ValueError(f"requested {n} of {len(self)} samples")
        return Dataset(self.x[:n], self.y[:n], self.feature_names)

    def split(self, val_frac: float, rng: np.random.Generator):
        idx = rng.permutation(len(self))
        n_val = int(len(self) * val_frac)
        val, train = idx[:n_val], idx[n_val:]
        return (
            Dataset(self.x[train], self.y[train], self.feature_names),
            Dataset(self.x[val], self.y[val], self.feature_names),
        )


def fit_generative_models(
    device: DeviceSpec,
    *,
    op: str | OpSpec = "gemm",
    dtypes: Sequence[DType] | None = None,
    rng: np.random.Generator | None = None,
    target_accepted: int = 400,
    alpha: float = 100.0,
) -> dict[DType, CategoricalModel]:
    """One categorical model per data-type (legality depends on the dtype)."""
    spec = get_op(op)
    rng = rng if rng is not None else np.random.default_rng(0)
    dtypes = spec.default_dtypes if dtypes is None else tuple(dtypes)
    out: dict[DType, CategoricalModel] = {}
    for dt in dtypes:
        accept = _make_accept(device, spec, dt)
        model = CategoricalModel(spec.space, alpha=alpha)
        model.fit(accept, rng, target_accepted=target_accepted)
        out[dt] = model
    return out


def _make_accept(device: DeviceSpec, op: str | OpSpec, dtype: DType):
    spec = get_op(op)
    return lambda pt: spec.is_legal(spec.config_from_point(pt), dtype, device)


#: Rejection-sampling effort cap, per requested sample (mirrors
#: CategoricalModel.sample_legal's max_tries).
_MAX_DRAWS_PER_SAMPLE = 1000


def _sample_legal_configs(
    device: DeviceSpec,
    spec: OpSpec,
    model: CategoricalModel,
    dtype: DType,
    count: int,
    rng: np.random.Generator,
) -> list:
    """``count`` legal configs of one dtype via batched rejection sampling.

    Draws struct-of-arrays batches from the generative model and filters
    them through the op's vectorized legality mask; falls back to per-point
    :meth:`~repro.sampling.generative.CategoricalModel.sample_legal` for a
    sampler without ``sample_batch`` (the MRF).
    """
    if not hasattr(model, "sample_batch"):
        accept = _make_accept(device, spec, dtype)
        return [
            spec.config_from_point(model.sample_legal(accept, rng))
            for _ in range(count)
        ]
    out: list = []
    draws = 0
    max_draws = max(10_000, _MAX_DRAWS_PER_SAMPLE * count)
    while len(out) < count and draws < max_draws:
        batch_n = min(max(256, 4 * (count - len(out))), 65_536)
        cols = model.sample_batch(batch_n, rng)
        draws += batch_n
        mask = spec.legal_mask(device, cols, dtype)
        names = tuple(cols)
        for j in np.flatnonzero(mask):
            out.append(
                spec.config_from_point(
                    {name: int(cols[name][j]) for name in names}
                )
            )
            if len(out) == count:
                break
    if len(out) < count:
        raise RuntimeError(
            f"only {len(out)}/{count} legal samples in {draws} draws — "
            "acceptance collapsed?"
        )
    return out


def generate_dataset(
    device: DeviceSpec,
    op: str | OpSpec,
    n: int,
    rng: np.random.Generator,
    *,
    samplers: dict[DType, CategoricalModel] | None = None,
    shape_sampler: Callable[[np.random.Generator], object] | None = None,
    sigma: float = DEFAULT_SIGMA,
    reps: int = 1,
    dtypes: Sequence[DType] | None = None,
) -> Dataset:
    """Benchmark ``n`` random legal kernels of ``op`` on the simulated device.

    Everything op-specific — the shape sampler, the tuning space behind the
    generative model, legality, the simulator benchmark and the feature
    encoding — comes from the op's :class:`~repro.core.ops.OpSpec`.

    All ``n`` shapes are drawn first, configs are batch-rejection-sampled
    per dtype through the op's vectorized legality mask, and one
    ``OpSpec.benchmark_pairs`` call prices the whole batch through the
    array-core simulator.  Deterministic for a fixed seed.
    """
    spec = get_op(op)
    dtypes = spec.default_dtypes if dtypes is None else tuple(dtypes)
    shape_sampler = shape_sampler or spec.make_shape_sampler(dtypes)
    samplers = samplers or fit_generative_models(
        device, op=spec, dtypes=dtypes, rng=rng
    )
    feature_names = spec.feature_names
    shapes = [shape_sampler(rng) for _ in range(n)]
    configs: list = [None] * n
    by_dtype: dict[DType, list[int]] = {}
    for i, shape in enumerate(shapes):
        by_dtype.setdefault(shape.dtype, []).append(i)
    for dt, idxs in by_dtype.items():
        cfgs = _sample_legal_configs(
            device, spec, samplers[dt], dt, len(idxs), rng
        )
        for i, cfg in zip(idxs, cfgs):
            configs[i] = cfg

    if n == 0:
        return Dataset(
            np.empty((0, len(feature_names))), np.empty(0), feature_names
        )
    tflops = spec.benchmark_pairs(
        device, configs, shapes, reps=reps, sigma=sigma
    )
    bad = np.isnan(tflops)
    if bad.any():
        raise RuntimeError(
            f"{int(bad.sum())} sampled configs were illegal under the "
            "batched simulator — legality mask and simulator disagree"
        )
    xs = np.concatenate(
        [
            spec.config_matrix(configs, False),
            np.stack([spec.shape_vector(s, False) for s in shapes]),
        ],
        axis=1,
    )
    ys = np.log2(np.maximum(tflops, 1e-6))
    return Dataset(xs, ys, feature_names)


def generate_gemm_dataset(
    device: DeviceSpec,
    n: int,
    rng: np.random.Generator,
    *,
    samplers: dict[DType, CategoricalModel] | None = None,
    shape_sampler: Callable[[np.random.Generator], GemmShape] | None = None,
    sigma: float = DEFAULT_SIGMA,
    reps: int = 1,
    dtypes: Sequence[DType] = (DType.FP32, DType.FP16, DType.FP64),
) -> Dataset:
    """Benchmark ``n`` random legal GEMM kernels on the simulated device."""
    return generate_dataset(
        device, "gemm", n, rng,
        samplers=samplers, shape_sampler=shape_sampler,
        sigma=sigma, reps=reps, dtypes=dtypes,
    )


def generate_conv_dataset(
    device: DeviceSpec,
    n: int,
    rng: np.random.Generator,
    *,
    samplers: dict[DType, CategoricalModel] | None = None,
    shape_sampler: Callable[[np.random.Generator], ConvShape] | None = None,
    sigma: float = DEFAULT_SIGMA,
    reps: int = 1,
    dtypes: Sequence[DType] = (DType.FP32, DType.FP16),
) -> Dataset:
    """Benchmark ``n`` random legal CONV kernels on the simulated device."""
    return generate_dataset(
        device, "conv", n, rng,
        samplers=samplers, shape_sampler=shape_sampler,
        sigma=sigma, reps=reps, dtypes=dtypes,
    )
