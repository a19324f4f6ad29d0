"""Scalar oracles the array-native production paths are held to.

Each function is the plain, one-object-at-a-time form of a job ``src/``
does in one vectorized pass.  Parity tests and the cold-start,
search-latency and offline-throughput benches compare against them; no
production path calls them.

* :func:`legal_configs_reference` walks X̂ point by point through the
  op's scalar ``is_legal``
  (vs :func:`repro.inference.search.legal_configs`);
* :func:`enumeration_one_shot` grids all of X̂ at once and masks it in
  one ``legal_mask`` call (vs the blocked walk behind
  :func:`repro.inference.search.legal_record`);
* :func:`conv_candidates` projects, dedups and legality-checks the GEMM
  tile set one row at a time
  (vs :func:`repro.inference.conv_search.conv_candidates_batch`);
* :func:`predictions_reference` re-standardizes the full design matrix
  and runs the plain forward pass
  (vs :meth:`repro.inference.search.ExhaustiveSearch.predictions`);
* :func:`first_layer_whole_set` computes a set's float64 first-layer
  term ``A`` in one product over all its rows (vs the twin, the
  per-chunk rows and the gathers of
  :meth:`repro.inference.search._FoldedMLP.a_rows`);
* :func:`generate_dataset_loop` draws one shape, one config and one
  benchmark per trip, in the RNG order of the pre-batching datasets
  (vs :func:`repro.sampling.dataset.generate_dataset`);
* :data:`SCALAR_BENCHMARK` maps each registered op to its one-launch
  simulator benchmark (vs ``OpSpec.benchmark_pairs``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.batched import benchmark_batched_gemm
from repro.core.config import ConvConfig, GemmConfig
from repro.core.legality import is_legal_conv
from repro.core.ops import OpSpec, get_op
from repro.core.space import CONV_SPACE, ParamSpace
from repro.core.types import ConvShape, DType
from repro.gpu.device import DeviceSpec
from repro.gpu.noise import DEFAULT_SIGMA
from repro.gpu.simulator import benchmark_conv, benchmark_gemm
from repro.inference.conv_search import factorize_tile
from repro.inference.search import ExhaustiveSearch, legal_configs
from repro.sampling.dataset import (
    Dataset,
    _make_accept,
    fit_generative_models,
)
from repro.sampling.generative import CategoricalModel

#: Each registered op's scalar benchmark: one simulated launch of one
#: (config, shape) pair, ``fn(device, cfg, shape, *, reps, sigma)``.
SCALAR_BENCHMARK: dict[str, Callable[..., float]] = {
    "gemm": benchmark_gemm,
    "conv": benchmark_conv,
    "bgemm": benchmark_batched_gemm,
}


def legal_configs_reference(
    device: DeviceSpec,
    dtype: DType,
    op: str | OpSpec = "gemm",
    space: ParamSpace | None = None,
) -> tuple[list, np.ndarray]:
    """Uncached scalar enumeration: every legal config and its matrix."""
    spec = get_op(op)
    configs: list = []
    for point in (space or spec.space).iter_points():
        cfg = spec.config_from_point(point)
        if spec.is_legal(cfg, dtype, device):
            configs.append(cfg)
    return configs, spec.config_matrix(configs, log=True)


def enumeration_one_shot(
    device: DeviceSpec, dtype: DType, op: str | OpSpec, space: ParamSpace
) -> dict[str, np.ndarray]:
    """X's columns from one grid of all of X̂ and one ``legal_mask``."""
    spec = get_op(op)
    cols = space.grid()
    mask = np.asarray(spec.legal_mask(device, cols, dtype), dtype=bool)
    idx = np.flatnonzero(mask)
    return {n: np.ascontiguousarray(c[idx]) for n, c in cols.items()}


def conv_config_from_gemm(
    g: GemmConfig, shape: ConvShape
) -> ConvConfig | None:
    """Project one implicit-GEMM tile onto the 5-D CONV parameterization."""
    if g.kg not in CONV_SPACE.values("cg"):
        return None
    factors = factorize_tile(g.ml, g.ms, shape)
    if factors is None:
        return None
    nb, pb, qb, nt, pt, qt = factors
    return ConvConfig(
        kt=g.ns, pt=pt, qt=qt, nt=nt, kb=g.nl, pb=pb, qb=qb, nb=nb,
        u=g.u, cs=g.ks, cl=g.kl, cg=g.kg, vec=g.vec, db=g.db,
    )


def conv_candidates(
    device: DeviceSpec,
    shape: ConvShape,
    *,
    max_candidates: int | None = None,
) -> list[ConvConfig]:
    """Legal CONV configs for one query shape, via tile factorization."""
    gemm_cfgs, _ = legal_configs(device, shape.dtype, "gemm")
    seen: set[tuple] = set()
    out: list[ConvConfig] = []
    for g in gemm_cfgs:
        cfg = conv_config_from_gemm(g, shape)
        if cfg is None:
            continue
        key = tuple(cfg.as_dict().values())
        if key in seen:
            continue
        seen.add(key)
        if is_legal_conv(cfg, shape.dtype, device):
            out.append(cfg)
            if max_candidates is not None and len(out) >= max_candidates:
                break
    if not out:
        raise RuntimeError(f"no CONV candidate for {shape} on {device.name}")
    return out


def predictions_reference(search: ExhaustiveSearch, shape) -> np.ndarray:
    """Predicted log2-TFLOPS of every candidate, without the fold: build
    and re-standardize the full design matrix, then run the model."""
    configs, matrix = search.candidates(shape)
    shape_vec = search.spec.shape_vector(shape, log=True)
    design = np.hstack([matrix, np.tile(shape_vec, (len(configs), 1))])
    fit = search._fit
    pred = fit.model.predict(fit.x_scaler.transform(design))
    return fit.y_scaler.inverse_transform(pred)


def first_layer_whole_set(search: ExhaustiveSearch, shape) -> np.ndarray:
    """The float64 ``A`` of ``shape``'s set in one whole-set product.

    The base's shared config columns (every column for a one-group op)
    at all rows in group order, standardized, through the first layer,
    plus its bias: the term the search cached before it kept only the
    float32 twin.
    """
    cs = search._candidate_set(shape)
    _, order, _, split = cs.groups
    folded = search._folded
    if not split:
        cols, x = slice(None), cs.record.features()
    else:
        cols = [
            j for j in range(search.spec.n_config_features) if j not in split
        ]
        x = cs.record.features(order, cols)
    z = (x - folded._mean_c[cols]) / folded._scale_c[cols]
    return z @ folded._w1_cfg[cols] + folded._b1


def generate_dataset_loop(
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
    """One shape, one config, one benchmark per trip.

    Fits the samplers from ``rng`` when none are given, as
    ``generate_dataset`` does, then consumes the RNG per sample (shape,
    then config): a fixed seed reproduces the pre-batching datasets bit
    for bit.
    """
    spec = get_op(op)
    dtypes = spec.default_dtypes if dtypes is None else tuple(dtypes)
    shape_sampler = shape_sampler or spec.make_shape_sampler(dtypes)
    samplers = samplers or fit_generative_models(
        device, op=spec, dtypes=dtypes, rng=rng
    )
    accepts = {dt: _make_accept(device, spec, dt) for dt in samplers}
    xs = np.empty((n, len(spec.feature_names)))
    ys = np.empty(n)
    for i in range(n):
        shape = shape_sampler(rng)
        point = samplers[shape.dtype].sample_legal(accepts[shape.dtype], rng)
        cfg = spec.config_from_point(point)
        tflops = SCALAR_BENCHMARK[spec.name](
            device, cfg, shape, reps=reps, sigma=sigma
        )
        xs[i] = spec.encode(cfg, shape, log=False)
        ys[i] = np.log2(max(tflops, 1e-6))
    return Dataset(xs, ys, spec.feature_names)
