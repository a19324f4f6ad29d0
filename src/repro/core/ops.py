"""Pluggable operation registry: everything one op needs, in one place.

The paper frames ISAAC as a *generic* pipeline — generative sampling →
MLP regression → exhaustive runtime search → top-k re-ranking — that is
instantiated for GEMM and CONV but tied to neither.  An :class:`OpSpec`
bundles the per-operation ingredients that pipeline consumes:

* the shape (input-parameter) and config (tuning-parameter) types;
* the tuning :class:`~repro.core.space.ParamSpace` the generative model
  samples from, and the legality predicate carving X out of X̂;
* feature extractors mapping configs/shapes to the MLP's design matrix;
* the array-native candidate supply for the runtime search
  (``candidates_batch`` returns the cached candidate record: configs,
  and log features gathered by rows and columns), with
  ``candidate_key`` defining the cache bucket for per-shape generators
  and ``candidate_groups`` the base those buckets share;
* the simulator entry points standing in for kernel launches — one
  launch (``simulate``), and batched (``benchmark_many`` /
  ``simulate_many`` evaluate N (config, shape) pairs per call through
  the array-core simulator);
* a vectorized legality mask (``legal_mask``) so candidate enumeration
  and batched rejection sampling filter whole columns per call;
* a profile-cache key so tuned kernels persist across runs.

Registering a spec (:func:`register_op`) makes the op available to every
layer — :class:`~repro.core.tuner.Isaac`,
:class:`~repro.inference.search.ExhaustiveSearch`, the re-ranker, the
dataset generator and :class:`~repro.core.profile_cache.ProfileCache` —
without touching any of them.  ``gemm``, ``conv`` and ``bgemm``
(strided-batched GEMM) are registered at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from repro.core.space import CONV_SPACE, GEMM_SPACE, ParamSpace
from repro.core.types import DType
from repro.gpu.device import DeviceSpec


@dataclass(frozen=True)
class OpSpec:
    """One tunable operation, as seen by every stage of the pipeline.

    ``candidates_batch(device, shape, space=None)`` returns the record
    of the configs the runtime search scores for one query shape.
    ``enumerable=True`` declares that this set depends on the
    shape only through its dtype (GEMM: the full legal set), so searches
    may cache per-(device, dtype); otherwise candidates are generated per
    shape (CONV: tile factorization).
    """

    name: str
    shape_type: type
    config_type: type
    space: ParamSpace
    default_dtypes: tuple[DType, ...]
    config_features: tuple[str, ...]
    shape_features: tuple[str, ...]
    is_legal: Callable[[Any, DType, DeviceSpec], bool]
    config_matrix: Callable[..., np.ndarray]
    shape_vector: Callable[..., np.ndarray]
    simulate: Callable[..., Any]
    make_shape_sampler: Callable[
        [tuple[DType, ...]], Callable[[np.random.Generator], Any]
    ]
    shape_key: Callable[[Any], str]
    #: Batched simulator entry points (struct-of-arrays, N pairs per call).
    #: ``benchmark_many(device, cfgs, shapes, *, reps, sigma) -> ndarray``
    #: returns NaN for illegal pairs; ``simulate_many`` returns the full
    #: :class:`~repro.gpu.simulator.KernelStatsArrays` batch.
    benchmark_many: Callable[..., np.ndarray]
    simulate_many: Callable[..., Any]
    #: Vectorized legality: ``legal_mask(device, params, dtype) -> bool[]``
    #: over a name->column mapping (one row per candidate config).
    legal_mask: Callable[..., np.ndarray]
    #: Array-native candidate supply:
    #: ``candidates_batch(device, shape, space=None) -> record``, cached
    #: behind the op's candidate key.  The search reads a record's
    #: ``configs`` (indexed, never all built) and
    #: ``features(rows=None, columns=None)``, the log features of some
    #: rows and columns (all by default); ``matrix`` is the whole
    #: log-feature matrix.  Enumerable ops return their enumeration's
    #: :class:`~repro.inference.search.CandidateRecord`, whose matrix is
    #: cached; CONV returns its bucket's
    #: :class:`~repro.inference.conv_search.ConvBucket`, which holds only
    #: its per-tile split rows and derives rows, columns and the matrix
    #: from its base on each call.
    candidates_batch: Callable[..., Any]
    enumerable: bool = False
    #: Overrides :meth:`candidate_cache_key` for non-enumerable ops whose
    #: candidate set depends on the shape only through a coarser bucket
    #: (CONV: the canonical batch and width extents its tile
    #: factorization can tell apart), so searches share one candidate set
    #: across all shapes of a bucket.
    candidate_key: Callable[..., Hashable] | None = None
    #: For ops whose candidate sets of one (device, dtype) all hold one
    #: base's rows and differ only in config columns that depend on
    #: nothing but each row's group:
    #: ``candidate_groups(device, shape, space=None) -> (key, order,
    #: starts, columns)`` — the base's key, the candidate index of each
    #: row in group order, each group's first position in that order,
    #: and the config-feature columns that vary by group.  The search
    #: then keeps one first-layer term per base (a float32 twin, built
    #: and recomputed in float64 per chunk from the record's other
    #: columns in group order), and per set only the varying
    #: columns of each group's first row (CONV: one term per (device,
    #: dtype), six split columns of 25 rows per bucket).  Ops without
    #: one are the one-group case.
    candidate_groups: Callable[..., tuple] | None = None

    # ------------------------------------------------------------------
    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.config_features + self.shape_features

    @property
    def n_config_features(self) -> int:
        return len(self.config_features)

    def config_from_point(self, point) -> Any:
        """Build a config from a space point / stored dict."""
        return self.config_type.from_dict(point)

    def encode(self, cfg, shape, log: bool = True) -> np.ndarray:
        """Full feature vector for one (config, shape) pair."""
        return np.concatenate(
            [
                self.config_matrix([cfg], log)[0],
                self.shape_vector(shape, log),
            ]
        )

    def config_matrix_from_params(
        self, params, log: bool = True
    ) -> np.ndarray:
        """Config-feature matrix straight from struct-of-arrays columns.

        Bit-identical to ``config_matrix`` over the same configs: every
        registered op's config features are its raw tuning parameters.
        """
        from repro.sampling.features import config_matrix_from_params

        return config_matrix_from_params(params, self.config_features, log)

    def benchmark_pairs(
        self,
        device: DeviceSpec,
        cfgs,
        shapes,
        *,
        reps: int = 1,
        sigma: float | None = None,
    ) -> np.ndarray:
        """Measured TFLOPS for N (config, shape) pairs; NaN marks illegal pairs.

        One call of the op's ``benchmark_many`` array core, bit-identical
        to the scalar benchmark of each pair (the parity tests in
        ``tests`` hold it to the simulator's ``benchmark_gemm`` /
        ``benchmark_conv`` / ``benchmark_batched_gemm``).
        """
        from repro.gpu.noise import DEFAULT_SIGMA

        if len(cfgs) != len(shapes):
            raise ValueError(f"{len(cfgs)} configs vs {len(shapes)} shapes")
        sigma = DEFAULT_SIGMA if sigma is None else sigma
        return self.benchmark_many(
            device, cfgs, shapes, reps=reps, sigma=sigma
        )

    def candidate_cache_key(
        self, device: DeviceSpec, shape, space: ParamSpace | None = None
    ) -> Hashable:
        """Key under which a search may cache this shape's candidate set."""
        if self.enumerable:
            sp = space or self.space
            return (self.name, device.name, shape.dtype.name, sp.name)
        if self.candidate_key is not None:
            return self.candidate_key(device, shape, space)
        return (self.name, device.name, shape)

    def profile_key(self, device_name: str, shape) -> str:
        """Filesystem-cache key for one tuned (device, shape) entry."""
        return f"{self.name}|{device_name}|{self.shape_key(shape)}"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, OpSpec] = {}


def register_op(spec: OpSpec, *, replace: bool = False) -> OpSpec:
    """Register ``spec`` under ``spec.name``; returns it for chaining."""
    if not spec.name:
        raise ValueError("OpSpec.name must be non-empty")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"op {spec.name!r} is already registered (pass replace=True "
            "to override)"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_op(name: str) -> None:
    """Remove an op (mainly for tests registering throwaway specs)."""
    _REGISTRY.pop(name, None)


def get_op(op: str | OpSpec) -> OpSpec:
    """Resolve an op name (or pass an :class:`OpSpec` through)."""
    if isinstance(op, OpSpec):
        return op
    spec = _REGISTRY.get(op)
    if spec is None:
        raise ValueError(
            f"unknown op {op!r}; registered: {sorted(_REGISTRY)}"
        )
    return spec


def registered_ops() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Built-in specs
# ----------------------------------------------------------------------

def _gemm_candidates_batch(device: DeviceSpec, shape, space=None) -> Any:
    from repro.inference.search import legal_record

    return legal_record(device, shape.dtype, "gemm", space)


def _conv_candidates_batch(device: DeviceSpec, shape, space=None) -> Any:
    # Looked up at call time, so a wrapper around the module attribute
    # (the e2e tracer's) sees every bucket request.
    from repro.inference.conv_search import conv_candidates_batch

    return conv_candidates_batch(device, shape)


def _conv_candidate_key(device: DeviceSpec, shape, space=None) -> Hashable:
    from repro.inference.conv_search import conv_bucket_key

    return conv_bucket_key(device, shape)


def _conv_candidate_groups(device: DeviceSpec, shape, space=None) -> tuple:
    from repro.inference.conv_search import conv_candidate_groups

    return conv_candidate_groups(device, shape)


def _make_gemm_spec() -> OpSpec:
    from repro.core.config import GemmConfig
    from repro.core.legality import gemm_legal_mask, is_legal_gemm
    from repro.core.types import GemmShape
    from repro.gpu.simulator import (
        benchmark_gemm_many,
        simulate_gemm,
        simulate_gemm_many,
    )
    from repro.sampling.features import (
        GEMM_CONFIG_FEATURES,
        GEMM_SHAPE_FEATURES,
        gemm_config_matrix,
        gemm_shape_vector,
    )

    def shape_key(shape: GemmShape) -> str:
        return (
            f"{shape.m}x{shape.n}x{shape.k}"
            f"|{shape.dtype.name}|{shape.layout_code}"
        )

    def make_shape_sampler(dtypes):
        from repro.sampling.dataset import GemmShapeSampler

        return GemmShapeSampler(dtypes=tuple(dtypes))

    return OpSpec(
        name="gemm",
        shape_type=GemmShape,
        config_type=GemmConfig,
        space=GEMM_SPACE,
        default_dtypes=(DType.FP32, DType.FP16, DType.FP64),
        config_features=GEMM_CONFIG_FEATURES,
        shape_features=GEMM_SHAPE_FEATURES,
        is_legal=is_legal_gemm,
        config_matrix=gemm_config_matrix,
        shape_vector=gemm_shape_vector,
        simulate=simulate_gemm,
        make_shape_sampler=make_shape_sampler,
        shape_key=shape_key,
        enumerable=True,
        benchmark_many=benchmark_gemm_many,
        simulate_many=simulate_gemm_many,
        legal_mask=gemm_legal_mask,
        candidates_batch=_gemm_candidates_batch,
    )


def _make_conv_spec() -> OpSpec:
    from repro.core.config import ConvConfig
    from repro.core.legality import conv_legal_mask, is_legal_conv
    from repro.core.types import ConvShape
    from repro.gpu.simulator import (
        benchmark_conv_many,
        simulate_conv,
        simulate_conv_many,
    )
    from repro.sampling.features import (
        CONV_CONFIG_FEATURES,
        CONV_SHAPE_FEATURES,
        conv_config_matrix,
        conv_shape_vector,
    )

    def shape_key(shape: ConvShape) -> str:
        return (
            f"n{shape.n}c{shape.c}h{shape.h}w{shape.w}"
            f"k{shape.k}r{shape.r}s{shape.s}|{shape.dtype.name}"
        )

    def make_shape_sampler(dtypes):
        from repro.sampling.dataset import ConvShapeSampler

        return ConvShapeSampler(dtypes=tuple(dtypes))

    return OpSpec(
        name="conv",
        shape_type=ConvShape,
        config_type=ConvConfig,
        space=CONV_SPACE,
        default_dtypes=(DType.FP32, DType.FP16),
        config_features=CONV_CONFIG_FEATURES,
        shape_features=CONV_SHAPE_FEATURES,
        is_legal=is_legal_conv,
        config_matrix=conv_config_matrix,
        shape_vector=conv_shape_vector,
        simulate=simulate_conv,
        make_shape_sampler=make_shape_sampler,
        shape_key=shape_key,
        enumerable=False,
        benchmark_many=benchmark_conv_many,
        simulate_many=simulate_conv_many,
        legal_mask=conv_legal_mask,
        candidates_batch=_conv_candidates_batch,
        candidate_key=_conv_candidate_key,
        candidate_groups=_conv_candidate_groups,
    )


def _make_bgemm_spec() -> OpSpec:
    """Strided-batched GEMM: the registry's proof that new ops plug in.

    Reuses the GEMM tuning space, legality and config features; the shape
    side adds the batch extent, and the simulator comes from
    :mod:`repro.core.batched` (one launch whose grid covers every batch
    element).
    """
    from repro.core.batched import (
        BatchedGemmShape,
        benchmark_bgemm_many,
        simulate_batched_gemm,
        simulate_bgemm_many,
    )
    from repro.core.config import GemmConfig
    from repro.core.legality import gemm_legal_mask, is_legal_gemm
    from repro.sampling.features import (
        BGEMM_SHAPE_FEATURES,
        GEMM_CONFIG_FEATURES,
        bgemm_shape_vector,
        gemm_config_matrix,
    )

    def shape_key(shape: BatchedGemmShape) -> str:
        base = shape.base
        return (
            f"b{shape.batch}|{base.m}x{base.n}x{base.k}"
            f"|{base.dtype.name}|{base.layout_code}"
        )

    def make_shape_sampler(dtypes):
        from repro.sampling.dataset import BatchedGemmShapeSampler

        return BatchedGemmShapeSampler(dtypes=tuple(dtypes))

    return OpSpec(
        name="bgemm",
        shape_type=BatchedGemmShape,
        config_type=GemmConfig,
        space=GEMM_SPACE,
        default_dtypes=(DType.FP32, DType.FP16),
        config_features=GEMM_CONFIG_FEATURES,
        shape_features=BGEMM_SHAPE_FEATURES,
        is_legal=is_legal_gemm,
        config_matrix=gemm_config_matrix,
        shape_vector=bgemm_shape_vector,
        simulate=simulate_batched_gemm,
        make_shape_sampler=make_shape_sampler,
        shape_key=shape_key,
        enumerable=True,
        benchmark_many=benchmark_bgemm_many,
        simulate_many=simulate_bgemm_many,
        legal_mask=gemm_legal_mask,
        candidates_batch=_gemm_candidates_batch,
    )


register_op(_make_gemm_spec())
register_op(_make_conv_spec())
register_op(_make_bgemm_spec())
