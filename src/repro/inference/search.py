"""Exhaustive runtime search over tuning parameters (paper §6).

At runtime the input parameters are fixed, so the trained model is
optimized over tuning parameters only.  The paper opts for exhaustive
search: it finds the global optimum of the model within the search range,
is trivially batchable (up to a million configurations per second), and
yields the top-k list that the re-ranking step re-benchmarks.

Which configurations are searched, and how they are featurized, comes from
the :mod:`~repro.core.ops` registry — any registered op plugs in here
unchanged.

The hot path is pre-scaled and batched.  The candidate feature matrix is
standardized by the fit's x-scaler *once* and immediately folded through
the MLP's first layer (the layer is affine, so the config and shape
columns contribute additively):

    z1 = [Zc | Zs] @ W1 + b1 = (Zc @ W1c + b1) + Zs @ W1s

The cached term ``H0 = Zc @ W1c + b1`` never changes between queries; one
query only standardizes its shape-feature vector, adds the rank-one shape
term, and runs the remaining layers chunk-wise through scratch buffers.
:meth:`ExhaustiveSearch.top_k_batch` amortizes further by pushing many
query shapes through each cache-resident chunk of ``H0``.

Every full pass over a candidate set — stage 1 below, the exhaustive
fallback, cascade calibration — splits its chunk loop into ``W``
contiguous, chunk-aligned row ranges that run at once on one
process-wide thread pool (:mod:`repro.inference.partition`).  ``W`` is
the process's BLAS thread budget, and BLAS runs one thread per scoring
thread while the ranges run: a 2048-row chunk times a 32- or 64-wide
layer is too small for a multi-threaded BLAS to pay off inside it, so
the CPUs go across rows instead.  Each chunk keeps its rows and its BLAS
call, so scores are bit-identical to the serial loop, which still runs
when ``W`` is 1 — a worker process of the sharded tier, a process under
``OPENBLAS_NUM_THREADS=1``, or a BLAS without a runtime thread control.

Cold queries additionally run a **two-stage cascade**: stage 1 scores all
candidates with the full model evaluated in float32 over a low-precision
twin of ``H0``, keeps the ``cascade_keep`` best plus every candidate within
``2*delta`` of that threshold, and stage 2 re-scores only that shortlist
in full float64 precision.  ``delta`` is a per-dtype margin calibrated
offline (:meth:`ExhaustiveSearch.calibrate_cascade`, persisted with the
fit) bounding ``|full - proxy|``; because the proxy is the same network
at reduced precision, ``delta`` is rounding-sized (~1e-6 standardized
units) rather than model-sized, and under that bound the shortlist
provably contains the exhaustive top-k — the cascade is bit-identical to
the exhaustive search.  That needs stage 2's scores of a gathered
shortlist to equal the exhaustive scores of the same rows bit for bit, so
the float64 pass computes its width-1 output layer as a row-wise
reduction (a BLAS product rounds a row differently depending on how many
rows share the call) and scores a one-row chunk as two.  (Cheaper
stage-1 families — collapsed linear readouts, distilled students,
certified interval bounds — were measured and rejected: their score
error is orders of magnitude above the ~0.01-unit gap between the top-k
frontier and the candidate bulk, so no margin both sound and useful
exists for them.)  Whenever the bound cannot be trusted — no
calibration, weights changed since calibration, shortlist blown wide, or
an observed gap above ``delta`` — the query transparently falls back to
exhaustive scoring.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.core.ops import OpSpec, get_op
from repro.core.soa import LazyConfigList
from repro.core.space import ParamSpace
from repro.core.types import DType
from repro.gpu.device import DeviceSpec
from repro.inference.partition import map_rows
from repro.mlp.crossval import CascadeCalibration, FitResult

#: Rows per chunk of the folded evaluation: intermediates stay cache-resident
#: (8192 x 64 float64 = 4 MiB) instead of streaming through DRAM.
_CHUNK_ROWS = 8192

#: Cap on (query shapes x candidates) prediction elements materialized at
#: once by top_k_batch (32M float64 = 256 MiB).
_BATCH_BLOCK_ELEMS = 32_000_000

#: Rows per chunk of the cascade's float32 stage 1.  Smaller than the
#: float64 chunk: the half-width intermediates of the whole layer stack
#: then stay L2-resident (measured ~13% faster than ``_CHUNK_ROWS``).
#: Calibration and query time share this constant, so stage-1 scores are
#: bit-reproducible for a given candidate set.
_CASCADE_CHUNK = 2048

#: Default stage-2 shortlist length (before margin widening); the engine
#: and CLI expose it as ``cascade_keep``.
_CASCADE_KEEP = 256

#: If the margin-widened shortlist exceeds this fraction of the candidate
#: set, stage 1 is not discriminating for this query and the exhaustive
#: path is cheaper than paying both stages.
_CASCADE_MAX_FRAC = 0.5


# ----------------------------------------------------------------------
# Candidate records and the once-per-key cache
# ----------------------------------------------------------------------

@dataclass
class CandidateRecord:
    """One cached candidate set, in array and (lazily) object form.

    ``params`` holds the surviving tuning-parameter columns of the
    vectorized enumeration — the persistable form the on-disk candidate
    store round-trips.  ``configs``/``matrix`` are materialized from the
    columns on first use (or populated directly by the scalar fallback,
    in which case ``params`` may be None).  ``space_params`` remembers
    the value sets the set was enumerated from, so a record persisted
    before a :class:`~repro.core.space.ParamSpace` edit is detected as
    stale and re-enumerated instead of silently served.
    """

    op: str
    params: dict[str, np.ndarray] | None = None
    matrix: np.ndarray | None = None
    configs: list | None = None
    space_params: tuple | None = None

    @property
    def ready(self) -> bool:
        return self.configs is not None and self.matrix is not None

    def materialize(self) -> "CandidateRecord":
        """Build configs + log-feature matrix from the stored columns.

        Bit-identical to the scalar path: the columns preserve
        ``iter_points`` ordering and the matrix applies the same float64
        log transform (``tests`` and ``bench_cold_start`` assert it).
        The configs sequence is a :class:`LazyConfigList` — objects are
        constructed only for the rows a search actually touches (its
        top-k slice), never for the whole 10^5-row set.
        """
        spec = get_op(self.op)
        if self.matrix is None and self.params is not None:
            builder = spec.config_matrix_from_params
            if builder is not None:
                self.matrix = builder(self.params, log=True)
        if self.configs is None:
            self.configs = LazyConfigList(spec.config_type, self.params)
        if self.matrix is None:  # op without a columns-native builder
            self.matrix = spec.config_matrix(self.configs, log=True)
        return self


class KeyedRecordCache:
    """A thread-safe map of :class:`CandidateRecord` built once per key.

    Concurrent callers of the same key elect one builder (per-key locks);
    different keys build in parallel.  ``seed`` publishes a params-only
    record (e.g. loaded from the on-disk candidate store) without racing
    an in-flight enumeration.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._records: dict[Hashable, CandidateRecord] = {}
        self._key_locks: dict[Hashable, threading.Lock] = {}

    def get(
        self,
        key: Hashable,
        build: Callable[[], CandidateRecord],
        validate: Callable[[CandidateRecord], bool] | None = None,
    ) -> CandidateRecord:
        with self._lock:
            rec = self._records.get(key)
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        if rec is not None and rec.ready and (
            validate is None or validate(rec)
        ):
            return rec
        with key_lock:
            with self._lock:
                rec = self._records.get(key)
            if rec is not None and validate is not None and not validate(rec):
                rec = None  # stale (e.g. space contents changed): rebuild
            if rec is not None and not rec.ready:
                try:
                    rec.materialize()
                except Exception as exc:
                    # A seeded record that cannot materialize (e.g. a
                    # stale on-disk schema) must not poison the key.
                    import warnings

                    warnings.warn(
                        f"discarding unusable candidate record {key}: "
                        f"{exc}",
                        stacklevel=3,
                    )
                    rec = None
            if rec is None:
                rec = build().materialize()
            with self._lock:
                # A seed may have published while we built (seed takes
                # only the outer lock).  Never replace a live ready
                # record: callers that already hold it must stay
                # canonical, and candidate sets are big enough that two
                # copies per key is a real cost.
                current = self._records.get(key)
                if (
                    current is not None
                    and current is not rec
                    and current.ready
                    and (validate is None or validate(current))
                ):
                    return current
                self._records[key] = rec
            return rec

    def peek(self, key: Hashable) -> CandidateRecord | None:
        """The ready record for ``key``, or None — never builds."""
        with self._lock:
            rec = self._records.get(key)
        return rec if rec is not None and rec.ready else None

    def seed(self, key: Hashable, record: CandidateRecord) -> bool:
        """Publish a record if the key is absent; returns True if kept."""
        with self._lock:
            if key in self._records:
                return False
            self._records[key] = record
            return True

    def snapshot(self) -> dict[Hashable, CandidateRecord]:
        with self._lock:
            return dict(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._key_locks.clear()


#: Enumerated candidate sets + their log-feature matrices, shared by every
#: search over the same (op, device, dtype, space).  Keyed by
#: OpSpec.candidate_cache_key, so only dtype-enumerable ops land here.
_LEGAL_CACHE = KeyedRecordCache()


def _enum_key(
    spec: OpSpec, device: DeviceSpec, dtype: DType, space: ParamSpace
) -> tuple[str, str, str, str]:
    return (spec.name, device.name, dtype.name, space.name)


def _check_enumerable(spec: OpSpec) -> None:
    if not spec.enumerable:
        raise ValueError(
            f"{spec.name.upper()} candidates are generated per query "
            "shape by the op's candidate generator, not enumerated per "
            "dtype"
        )


def _scalar_enumeration(
    spec: OpSpec, device: DeviceSpec, dtype: DType, space: ParamSpace
) -> tuple[list, np.ndarray]:
    """Reference path: walk X̂ point by point through scalar ``is_legal``."""
    configs: list = []
    for point in space.iter_points():
        cfg = spec.config_from_point(point)
        if spec.is_legal(cfg, dtype, device):
            configs.append(cfg)
    return configs, spec.config_matrix(configs, log=True)


def _enumerate_record(
    spec: OpSpec, device: DeviceSpec, dtype: DType, space: ParamSpace
) -> CandidateRecord:
    """Enumerate X for one (op, device, dtype, space) as a record.

    Array-native when the op registers ``legal_mask``: materialize X̂ as
    struct-of-arrays columns (:meth:`ParamSpace.grid`), apply the mask
    once, and keep only the surviving columns — config objects and the
    feature matrix are derived from them afterwards.  Ops without a mask
    (or whose space doesn't cover the config fields) fall back to the
    scalar walk.
    """
    names = set(space.names)
    vectorizable = (
        spec.legal_mask is not None
        and set(spec.config_type.param_names()) <= names
    )
    if not vectorizable:
        configs, matrix = _scalar_enumeration(spec, device, dtype, space)
        return CandidateRecord(
            op=spec.name, params=None, matrix=matrix, configs=configs,
            space_params=space.params,
        )
    cols = space.grid()
    mask = np.asarray(spec.legal_mask(device, cols, dtype), dtype=bool)
    idx = np.flatnonzero(mask)
    params = {n: np.ascontiguousarray(c[idx]) for n, c in cols.items()}
    return CandidateRecord(
        op=spec.name, params=params, space_params=space.params
    )


def legal_record(
    device: DeviceSpec,
    dtype: DType,
    op: str | OpSpec = "gemm",
    space: ParamSpace | None = None,
) -> CandidateRecord:
    """The cached (or freshly enumerated) record for (op, device, dtype)."""
    spec = get_op(op)
    _check_enumerable(spec)
    space = space or spec.space
    key = _enum_key(spec, device, dtype, space)
    return _LEGAL_CACHE.get(
        key,
        lambda: _enumerate_record(spec, device, dtype, space),
        # A record persisted before this space's value sets changed must
        # not be served under the new definition.
        validate=lambda r: (
            r.space_params is None or r.space_params == space.params
        ),
    )


def legal_configs(
    device: DeviceSpec,
    dtype: DType,
    op: str | OpSpec = "gemm",
    space: ParamSpace | None = None,
) -> tuple[list, np.ndarray]:
    """All legal configs for (device, dtype) plus their log-feature matrix.

    Only ops whose candidate set is shape-independent (``enumerable``) can
    be enumerated here.  Vectorized and cached: one ``legal_mask`` pass
    over the gridded product space (tens of milliseconds for GEMM's ~2M
    points, vs seconds for the scalar walk) is shared by every later
    search, and thread-safe — concurrent callers enumerate each key once.
    """
    rec = legal_record(device, dtype, op, space)
    return rec.configs, rec.matrix


def legal_configs_reference(
    device: DeviceSpec,
    dtype: DType,
    op: str | OpSpec = "gemm",
    space: ParamSpace | None = None,
) -> tuple[list, np.ndarray]:
    """Uncached scalar enumeration — the parity/benchmark reference."""
    spec = get_op(op)
    _check_enumerable(spec)
    return _scalar_enumeration(spec, device, dtype, space or spec.space)


def seed_enum_record(
    key: Hashable,
    op: str,
    params: Mapping[str, np.ndarray],
    space_params: tuple | None = None,
) -> bool:
    """Publish a stored enumeration (candidate-store load); True if kept."""
    record = CandidateRecord(
        op=op, params=dict(params), space_params=space_params
    )
    return _LEGAL_CACHE.seed(tuple(key), record)


def enum_cache_snapshot() -> dict[Hashable, CandidateRecord]:
    """Current enumeration records (for the on-disk candidate store)."""
    return _LEGAL_CACHE.snapshot()


def cached_matrix_for(configs: list) -> np.ndarray | None:
    """The log-feature matrix already cached for this exact configs list.

    Ops whose scalar ``candidates`` delegates to another op's
    :func:`legal_configs` (bgemm-style) return the cached list itself;
    matching by identity recovers its matrix without an O(n) rebuild.
    """
    for rec in _LEGAL_CACHE.snapshot().values():
        if rec.configs is configs:
            return rec.matrix
    return None


def clear_cache() -> None:
    from repro.inference import conv_search

    _LEGAL_CACHE.clear()
    conv_search.clear_bucket_cache()


def _score_chunks(
    h0: np.ndarray,
    hs: Sequence[np.ndarray],
    out: np.ndarray,
    chunk_rows: int,
    widths: Sequence[int],
    score_chunk: Callable,
) -> None:
    """``out[b, rows] = score_chunk(h0[rows], hs[b])`` for every chunk.

    Chunks start at multiples of ``chunk_rows``; each row range of
    :func:`~repro.inference.partition.map_rows` owns one scratch buffer
    per layer width (two rows at least, for the one-row pad) and scores
    its chunks for every shape while they are cache-resident.
    """

    def score_rows(lo: int, hi: int) -> None:
        rows = max(2, min(hi - lo, chunk_rows))
        bufs = [np.empty((rows, w), dtype=out.dtype) for w in widths]
        for c in range(lo, hi, chunk_rows):
            e = min(hi, c + chunk_rows)
            chunk = h0[c:e]
            for b, h in enumerate(hs):
                score_chunk(chunk, h, out[b, c:e], bufs)

    map_rows(len(h0), chunk_rows, score_rows)


@dataclass
class Prediction:
    """One candidate from the exhaustive search."""

    config: object
    predicted_tflops: float


class _FoldedMLP:
    """The fit's scaler + first layer, folded for a fixed feature split.

    Splits the standardization and the first (affine) layer into a
    config-column part — applied once per candidate set — and a
    shape-column part applied per query.  The remaining layers run over
    chunk buffers with in-place activations, numerically identical
    (modulo float association) to the plain forward pass.
    """

    def __init__(self, fit: FitResult, n_config_features: int):
        layers = fit.model.layers
        scaler = fit.x_scaler
        nc = n_config_features
        w1 = layers[0].w
        self._mean_c = scaler.mean_[:nc].copy()
        self._scale_c = scaler.scale_[:nc].copy()
        self._mean_s = scaler.mean_[nc:].copy()
        self._scale_s = scaler.scale_[nc:].copy()
        # True copies, not views: the snapshot must diverge from the live
        # model when it is mutated in place, so is_current() can tell.
        self._w1_cfg = np.array(w1[:nc], order="C", copy=True)
        self._w1_shape = np.array(w1[nc:], order="C", copy=True)
        self._b1 = layers[0].b.copy()
        self._act0 = layers[0].activation
        self._rest = layers[1:]
        self._fit = fit

    def is_current(self) -> bool:
        """Whether the folded snapshot still matches the live model.

        The first layer and scaler stats are copied at fold time (they are
        baked into cached ``H0`` terms); in-place model mutation — pruning,
        further fine-tuning — must invalidate the fold.  Cheap: the first
        layer is ~n_features x width floats.
        """
        layers = self._fit.model.layers
        scaler = self._fit.x_scaler
        nc = len(self._mean_c)
        w1 = layers[0].w
        return (
            w1.shape[0] == nc + len(self._mean_s)
            and np.array_equal(self._w1_cfg, w1[:nc])
            and np.array_equal(self._w1_shape, w1[nc:])
            and np.array_equal(self._b1, layers[0].b)
            and np.array_equal(self._mean_c, scaler.mean_[:nc])
            and np.array_equal(self._scale_c, scaler.scale_[:nc])
            and np.array_equal(self._mean_s, scaler.mean_[nc:])
            and np.array_equal(self._scale_s, scaler.scale_[nc:])
        )

    @staticmethod
    def supports(fit: FitResult, n_features: int) -> bool:
        """Whether the model/scaler expose what folding needs."""
        layers = getattr(fit.model, "layers", None)
        if layers is None or len(layers) < 2:
            return False
        first = layers[0]
        if not hasattr(first, "w") or not hasattr(first, "activation"):
            return False
        return (
            first.w.shape[0] == n_features
            and fit.x_scaler.mean_ is not None
            and len(fit.x_scaler.mean_) == n_features
        )

    # ------------------------------------------------------------------
    def prescale(self, cfg_matrix: np.ndarray) -> np.ndarray:
        """``H0``: standardized config columns through the first layer."""
        z = (cfg_matrix - self._mean_c) / self._scale_c
        return z @ self._w1_cfg + self._b1

    def _shape_term(self, shape_vec: np.ndarray) -> np.ndarray:
        z = (shape_vec - self._mean_s) / self._scale_s
        return z @ self._w1_shape

    @staticmethod
    def _activate(act, a: np.ndarray) -> np.ndarray:
        if act.name == "relu":
            np.maximum(a, 0.0, out=a)
        elif act.name != "identity":
            a[...] = act.fn(a)
        return a

    def _eval_chunk(
        self,
        h0_chunk: np.ndarray,
        h: np.ndarray,
        out_row: np.ndarray,
        bufs: list[np.ndarray],
    ) -> None:
        m = len(h0_chunk)
        if m == 1:
            # BLAS multiplies a one-row matrix with its matrix-vector
            # routine, which rounds differently from the matrix-matrix
            # one every longer chunk takes: score the row twice instead.
            pair = np.empty(2)
            self._eval_chunk(np.repeat(h0_chunk, 2, axis=0), h, pair, bufs)
            out_row[:] = pair[:1]
            return
        a = bufs[0][:m]
        np.add(h0_chunk, h, out=a)
        self._activate(self._act0, a)
        for layer, buf in zip(self._rest[:-1], bufs[1:]):
            nxt = buf[:m]
            np.dot(a, layer.w, out=nxt)
            nxt += layer.b
            self._activate(layer.activation, nxt)
            a = nxt
        # The width-1 output layer as a row-wise reduction: a BLAS
        # product rounds a row differently depending on how many rows
        # share the call, and stage 2 re-scores gathers of rows the
        # exhaustive path scores in whole chunks.
        last = self._rest[-1]
        np.einsum("ij,j->i", a, last.w[:, 0], out=out_row)
        out_row += last.b[0]
        self._activate(last.activation, out_row)

    def predict(self, h0: np.ndarray, shape_vec: np.ndarray) -> np.ndarray:
        """Standardized model outputs for every candidate at one shape."""
        return self.predict_batch(h0, [shape_vec])[0]

    def predict_batch(
        self, h0: np.ndarray, shape_vecs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """(n_shapes, n_candidates) outputs, one pass over ``h0``.

        Each chunk of the candidate term is evaluated for every shape
        while it is cache-resident, so the batch pays the memory traffic
        of a single query.  Row ranges run in parallel.
        """
        hs = [self._shape_term(v) for v in shape_vecs]
        out = np.empty((len(hs), len(h0)))
        widths = [self._b1.shape[0]] + [
            lyr.w.shape[1] for lyr in self._rest[:-1]
        ]
        _score_chunks(h0, hs, out, _CHUNK_ROWS, widths, self._eval_chunk)
        return out


@dataclass
class CascadeStats:
    """Counters for the two-stage cascade, kept per search instance.

    ``pruned`` sums candidates stage 2 never scored; ``fallbacks`` counts
    queries that started stage 1 but finished exhaustively (blown
    shortlist or failed margin check).  Queries that never entered the
    cascade (disabled, uncalibrated, tiny candidate set) count as
    ``exhaustive_queries`` only.
    """

    cascade_queries: int = 0
    exhaustive_queries: int = 0
    fallbacks: int = 0
    pruned: int = 0
    stage1_ms: float = 0.0
    stage2_ms: float = 0.0


class _Cascade:
    """Stage-1 scorer: the full network evaluated in float32.

    Runs every layer of the folded model in float32 over the cached
    float32 twin of ``H0``, chunk-wise through scratch buffers (the
    float64 hot path's structure, at half the memory traffic and roughly
    twice the sgemm throughput).  The proxy is therefore the same
    function as the exhaustive scorer up to float32 rounding, so the
    calibrated per-dtype margin ``delta`` is rounding-sized (~1e-6
    standardized units) — small against the ~0.01-unit spread of scores
    near the top-k frontier, which is what makes the widened shortlist
    barely wider than ``keep``.  Let ``delta >= max_i |f_i - p_i|``; for
    the ``keep``-th largest proxy ``tau``, every true top-k candidate
    satisfies ``p >= tau - 2*delta``, so the shortlist provably contains
    the exhaustive top-k.

    ``_FoldedMLP.is_current()`` only watches the first layer and scalers,
    so the later layers are snapshotted here and re-checked by
    :meth:`is_current` — in-place mutation of *any* layer disables the
    cascade until it is rebuilt.
    """

    __slots__ = ("margins", "_ws", "_bs", "_acts", "_w_out", "_b_out",
                 "_act_out", "_rest_snapshot", "_folded", "_widths")

    def __init__(self, folded: _FoldedMLP, margins: Mapping[str, float]):
        self.margins = dict(margins)
        rest = folded._rest
        self._ws = [
            np.ascontiguousarray(lyr.w, dtype=np.float32)
            for lyr in rest[:-1]
        ]
        self._bs = [lyr.b.astype(np.float32) for lyr in rest[:-1]]
        self._acts = [lyr.activation for lyr in rest[:-1]]
        last = rest[-1]
        self._w_out = np.ascontiguousarray(last.w[:, 0], dtype=np.float32)
        self._b_out = np.float32(last.b[0])
        self._act_out = last.activation
        self._rest_snapshot = [(lyr.w.copy(), lyr.b.copy()) for lyr in rest]
        self._folded = folded
        self._widths = [folded._b1.shape[0]] + [w.shape[1] for w in self._ws]

    def is_current(self) -> bool:
        rest = self._folded._rest
        if len(rest) != len(self._rest_snapshot):
            return False
        return all(
            np.array_equal(w, lyr.w) and np.array_equal(b, lyr.b)
            for (w, b), lyr in zip(self._rest_snapshot, rest)
        )

    def _score_chunk(
        self,
        chunk: np.ndarray,
        h: np.ndarray,
        out_row: np.ndarray,
        bufs: list[np.ndarray],
    ) -> None:
        m = len(chunk)
        a = bufs[0][:m]
        np.add(chunk, h, out=a)
        _FoldedMLP._activate(self._folded._act0, a)
        for w, b, act, buf in zip(self._ws, self._bs, self._acts, bufs[1:]):
            nxt = buf[:m]
            np.dot(a, w, out=nxt)
            np.add(nxt, b, out=nxt)
            _FoldedMLP._activate(act, nxt)
            a = nxt
        np.dot(a, self._w_out, out=out_row)
        np.add(out_row, self._b_out, out=out_row)
        _FoldedMLP._activate(self._act_out, out_row)

    def scores(self, h0_lo: np.ndarray, shape_vec: np.ndarray) -> np.ndarray:
        """Float32 proxy scores for every candidate at one query shape.

        Chunk boundaries are fixed multiples of ``_CASCADE_CHUNK`` however
        the rows are partitioned, so the result is bit-reproducible for a
        given candidate set — the calibration-time and query-time proxies
        are the same numbers.
        """
        return self.scores_many(h0_lo, [shape_vec])[0]

    def scores_many(
        self, h0_lo: np.ndarray, shape_vecs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """(n_shapes, n_candidates) proxies, one pass over ``h0_lo``.

        Per-shape results are bit-identical to :meth:`scores` (same
        chunking, same per-shape operations); only the traffic over the
        low-precision ``H0`` twin is amortized across the batch.  Row
        ranges run in parallel.
        """
        hs = [
            self._folded._shape_term(v).astype(np.float32)
            for v in shape_vecs
        ]
        out = np.empty((len(hs), len(h0_lo)), dtype=np.float32)
        _score_chunks(
            h0_lo, hs, out, _CASCADE_CHUNK, self._widths, self._score_chunk
        )
        return out


@dataclass
class _CandidateSet:
    """One op's candidates with precomputed search-side artifacts."""

    configs: list
    cfg_matrix: np.ndarray
    h0: np.ndarray | None = None
    #: float32 twin of ``h0`` the cascade's stage 1 streams over (half
    #: the memory traffic of the full-precision term).
    h0_lo: np.ndarray | None = None


class ExhaustiveSearch:
    """Vectorized model evaluation over every legal tuning vector.

    ``op`` is any name registered with :func:`repro.core.ops.register_op`
    (or an :class:`~repro.core.ops.OpSpec` directly).
    """

    def __init__(
        self,
        fit: FitResult,
        device: DeviceSpec,
        op: str | OpSpec = "gemm",
        space: ParamSpace | None = None,
        *,
        cascade: bool = True,
        cascade_keep: int = _CASCADE_KEEP,
    ):
        self._spec = get_op(op)
        self._fit = fit
        self._device = device
        self._space = space
        self._sets: dict[Hashable, _CandidateSet] = {}
        self._adopted: dict[Hashable, np.ndarray] = {}
        self._adopted_lo: dict[Hashable, np.ndarray] = {}
        n_features = len(self._spec.feature_names)
        self._folded = (
            _FoldedMLP(fit, self._spec.n_config_features)
            if _FoldedMLP.supports(fit, n_features)
            else None
        )
        self._cascade_enabled = bool(cascade)
        self._cascade_keep = max(1, int(cascade_keep))
        self._cascade: _Cascade | None = None
        self._cascade_calib: CascadeCalibration | None = None
        self.cascade_stats = CascadeStats()

    @property
    def spec(self) -> OpSpec:
        return self._spec

    @property
    def op(self) -> str:
        return self._spec.name

    # ------------------------------------------------------------------
    def _refresh_fold(self) -> None:
        """Re-fold if the model/scaler was mutated in place (e.g. pruned)."""
        if self._folded is None or self._folded.is_current():
            return
        self._folded = _FoldedMLP(self._fit, self._spec.n_config_features)
        self._adopted.clear()  # prescaled against the stale fold
        self._adopted_lo.clear()
        self._cascade = None  # collapsed from the stale layers
        self._cascade_calib = None
        for cs in self._sets.values():
            cs.h0 = None
            cs.h0_lo = None

    def refold(self) -> bool:
        """Re-fold *now* after an in-place model swap; True if it refolded.

        Every search entry point re-checks the fold lazily, but a hot
        swap wants the invalidation to complete inside the swapper's
        critical section — the caller holds the same lock searches take,
        so once this returns no reader can ever pair the new weights
        with a stale prescaled ``H0``.
        """
        if self._folded is None:
            return False
        stale = not self._folded.is_current()
        self._refresh_fold()
        return stale

    def _candidate_set(self, shape) -> _CandidateSet:
        self._refresh_fold()
        key = self._spec.candidate_cache_key(self._device, shape, self._space)
        cs = self._sets.get(key)
        if cs is None:
            if self._spec.candidates_batch is not None:
                # Array-native supply: list + log-feature matrix in one
                # call, cached module-wide behind the op's candidate key.
                configs, matrix = self._spec.candidates_batch(
                    self._device, shape, self._space
                )
            else:
                # Enumerable ops share one candidate set module-wide, so
                # a later search instance must not rebuild the feature
                # matrix the first one already paid for.
                rec = (
                    _LEGAL_CACHE.peek(key) if self._spec.enumerable
                    else None
                )
                if rec is not None:
                    configs, matrix = rec.configs, rec.matrix
                else:
                    configs = self._spec.candidates(
                        self._device, shape, self._space
                    )
                    matrix = cached_matrix_for(configs)
                    if matrix is None:
                        matrix = self._spec.config_matrix(configs, log=True)
                    if self._spec.enumerable:
                        _LEGAL_CACHE.seed(key, CandidateRecord(
                            op=self._spec.name, matrix=matrix,
                            configs=configs,
                        ))
            cs = _CandidateSet(configs=configs, cfg_matrix=matrix)
            self._sets[key] = cs
        if cs.h0 is None and self._folded is not None:
            adopted = self._adopted.get(key)
            if (
                adopted is not None
                and adopted.shape[0] == cs.cfg_matrix.shape[0]
            ):
                cs.h0 = adopted
            else:
                cs.h0 = self._folded.prescale(cs.cfg_matrix)
        return cs

    def prescaled_snapshot(self) -> dict[Hashable, np.ndarray]:
        """Every computed ``H0`` term, by candidate key.

        The worker tier ships these through shared memory so a fresh
        worker skips the per-set prescale matmul; only sets this search
        has actually touched (and whose fold is current) appear.
        """
        self._refresh_fold()
        return {
            key: cs.h0
            for key, cs in self._sets.items()
            if cs.h0 is not None
        }

    def adopt_prescaled(self, key: Hashable, h0: np.ndarray) -> None:
        """Accept an externally computed ``H0`` for a candidate key.

        The array (typically a read-only shared-memory view) is used
        verbatim iff its row count matches the candidate set built for
        ``key`` — it was prescaled from the same fit bytes, so the values
        are bit-identical to a local :meth:`_FoldedMLP.prescale`.  A
        mismatch (space edit between export and attach) silently falls
        back to prescaling locally.
        """
        if self._folded is None:
            return
        self._adopted[key] = h0

    # ------------------------------------------------------------------
    # Two-stage cascade
    # ------------------------------------------------------------------
    def set_cascade(self, enabled: bool, keep: int | None = None) -> None:
        """Flip the cascade on/off and/or change the shortlist length."""
        self._cascade_enabled = bool(enabled)
        if keep is not None:
            self._cascade_keep = max(1, int(keep))

    def _cascade_state(self) -> _Cascade | None:
        """The live stage-1 scorer, rebuilt and currency-checked.

        Returns None — and thus exhaustive search — unless the fit
        carries a calibration whose weights digest matches the *current*
        weights and the collapsed-layer snapshot is still current.
        """
        if not self._cascade_enabled or self._folded is None:
            return None
        calib = self._fit.cascade
        cas = self._cascade
        # The calibration identity check catches the fit's ``cascade``
        # being replaced (or dropped) with no weight mutation — e.g. an
        # engine disarming a tuner mid-swap before the refold lands.
        if (cas is not None and calib is self._cascade_calib
                and cas.is_current()):
            return cas
        self._cascade = None
        self._cascade_calib = None
        if calib is None or not calib.margins:
            return None
        from repro.mlp.serialize import fit_weights_digest

        if calib.weights_digest != fit_weights_digest(self._fit):
            # Calibrated against different weights (hot-swap, in-place
            # mutation): pruning with these margins would be unsafe.
            return None
        self._cascade = _Cascade(self._folded, calib.margins)
        self._cascade_calib = calib
        return self._cascade

    def _ensure_lowres(self, key: Hashable, cs: _CandidateSet) -> np.ndarray:
        """The float32 ``H0`` twin for one candidate set, built lazily."""
        if cs.h0_lo is None:
            adopted = self._adopted_lo.get(key)
            if (
                adopted is not None
                and adopted.shape == cs.h0.shape
                and adopted.dtype == np.float32
            ):
                cs.h0_lo = adopted
            else:
                cs.h0_lo = cs.h0.astype(np.float32)
        return cs.h0_lo

    def cascade_snapshot(self) -> dict[Hashable, np.ndarray]:
        """Every computed float32 ``H0`` twin, by candidate key.

        The worker tier ships these through shared memory alongside the
        full-precision terms so a fresh worker runs the cascade with zero
        per-worker copies.
        """
        self._refresh_fold()
        return {
            key: cs.h0_lo
            for key, cs in self._sets.items()
            if cs.h0_lo is not None
        }

    def adopt_cascade(self, key: Hashable, h0_lo: np.ndarray) -> None:
        """Accept an externally computed float32 twin for a candidate key.

        Same contract as :meth:`adopt_prescaled`: the view is used
        verbatim iff it matches the set built for ``key`` (it was cast
        from bit-identical ``H0`` values, so the twin is bit-identical
        too); any mismatch falls back to casting locally.
        """
        if self._folded is None:
            return
        self._adopted_lo[key] = h0_lo

    def calibrate_cascade(
        self,
        dtypes: Sequence[DType],
        *,
        n_shapes: int = 4,
        seed: int = 0,
        safety: float = 4.0,
    ) -> CascadeCalibration:
        """Measure per-dtype pruning margins for this fit on this device.

        For each dtype, samples ``n_shapes`` query shapes from the op's
        shape sampler and records the largest gap between the full
        standardized model output and the stage-1 proxy over the whole
        candidate set; the margin is that maximum times ``safety`` (plus
        a tiny absolute floor).  Deterministic for a given seed.  Returns
        the calibration; the caller attaches it to the fit
        (``fit.cascade = ...``) to arm the cascade.
        """
        self._refresh_fold()
        if self._folded is None:
            raise RuntimeError(
                "cascade calibration needs the folded fast path "
                "(fit not foldable for this op)"
            )
        from repro.mlp.serialize import fit_weights_digest

        cas = _Cascade(self._folded, {})
        rng = np.random.default_rng(seed)
        margins: dict[str, float] = {}
        for dtype in dtypes:
            sampler = self._spec.make_shape_sampler((dtype,))
            delta = 0.0
            for _ in range(n_shapes):
                shape = sampler(rng)
                cs = self._candidate_set(shape)
                key = self._spec.candidate_cache_key(
                    self._device, shape, self._space
                )
                vec = self._spec.shape_vector(shape, log=True)
                f = self._folded.predict(cs.h0, vec)
                p = cas.scores(self._ensure_lowres(key, cs), vec)
                gap = float(np.max(np.abs(f - p.astype(np.float64))))
                delta = max(delta, gap)
            margins[dtype.name] = delta * safety + 1e-9
        return CascadeCalibration(
            margins=margins,
            weights_digest=fit_weights_digest(self._fit),
            n_shapes=n_shapes,
            safety=safety,
        )

    def _cascade_ready(
        self, cs: _CandidateSet, dtype_name: str, k: int
    ) -> tuple[_Cascade, float] | None:
        """Stage-1 scorer + margin if the cascade applies, else None."""
        if k <= 0:
            return None
        cas = self._cascade_state()
        if cas is None:
            return None
        delta = cas.margins.get(dtype_name)
        if delta is None or not np.isfinite(delta) or delta < 0:
            return None
        keep = max(self._cascade_keep, k)
        if keep * 4 >= len(cs.configs):
            return None  # tiny sets: stage 1 cannot pay for itself
        return cas, float(delta)

    def _cascade_finish(
        self,
        cs: _CandidateSet,
        shape,
        k: int,
        proxy: np.ndarray,
        delta: float,
    ) -> list[Prediction] | None:
        """Shortlist + stage-2 rerank from precomputed proxy scores.

        Returns None on fallback (shortlist blown wide, or an observed
        ``|full - proxy|`` above the calibrated margin — in which case
        the pruned candidates cannot be trusted either).
        """
        stats = self.cascade_stats
        n = len(proxy)
        keep = max(self._cascade_keep, k)
        tau = np.partition(proxy, n - keep)[n - keep]
        # Threshold and comparison in float64: a float32 subtraction
        # could round the cutoff *up* and silently narrow the provable
        # shortlist.
        thr = float(tau) - 2.0 * delta
        p64 = proxy.astype(np.float64)
        survivors = np.flatnonzero(p64 >= thr)
        if len(survivors) > n * _CASCADE_MAX_FRAC:
            stats.fallbacks += 1
            return None
        t1 = time.perf_counter()
        f = self._folded.predict(
            np.ascontiguousarray(cs.h0[survivors]),
            self._spec.shape_vector(shape, log=True),
        )
        if np.max(np.abs(f - p64[survivors])) > delta:
            stats.fallbacks += 1
            stats.stage2_ms += (time.perf_counter() - t1) * 1e3
            return None
        preds = self._fit.y_scaler.inverse_transform(f)
        kk = min(k, len(survivors))
        top = np.argpartition(-preds, kk - 1)[:kk]
        top = top[np.argsort(-preds[top])]
        out = [
            Prediction(
                config=cs.configs[survivors[i]],
                predicted_tflops=float(2.0 ** preds[i]),
            )
            for i in top
        ]
        stats.cascade_queries += 1
        stats.pruned += n - len(survivors)
        stats.stage2_ms += (time.perf_counter() - t1) * 1e3
        return out

    def _cascade_select(
        self, cs: _CandidateSet, shape, k: int
    ) -> list[Prediction] | None:
        """One query through both stages; None means search exhaustively."""
        ready = self._cascade_ready(cs, shape.dtype.name, k)
        if ready is None:
            return None
        cas, delta = ready
        key = self._spec.candidate_cache_key(self._device, shape, self._space)
        t0 = time.perf_counter()
        proxy = cas.scores(
            self._ensure_lowres(key, cs),
            self._spec.shape_vector(shape, log=True),
        )
        self.cascade_stats.stage1_ms += (time.perf_counter() - t0) * 1e3
        return self._cascade_finish(cs, shape, k, proxy, delta)

    def candidates(self, shape) -> tuple[list, np.ndarray]:
        """Candidate configs + config-feature matrix for one query shape."""
        cs = self._candidate_set(shape)
        return cs.configs, cs.cfg_matrix

    # ------------------------------------------------------------------
    def predictions(self, shape) -> np.ndarray:
        """Predicted log2-TFLOPS for every candidate config at this shape."""
        cs = self._candidate_set(shape)
        if self._folded is None:
            return self._predict_reference(cs, shape)
        pred = self._folded.predict(
            cs.h0, self._spec.shape_vector(shape, log=True)
        )
        return self._fit.y_scaler.inverse_transform(pred)

    def predictions_reference(self, shape) -> np.ndarray:
        """The unfolded path: build and re-standardize the full design
        matrix per query.  Kept as the numerical reference the pre-scaled
        path is regression-tested (and benchmarked) against."""
        return self._predict_reference(self._candidate_set(shape), shape)

    def _predict_reference(self, cs: _CandidateSet, shape) -> np.ndarray:
        shape_vec = self._spec.shape_vector(shape, log=True)
        design = np.hstack(
            [cs.cfg_matrix, np.tile(shape_vec, (len(cs.configs), 1))]
        )
        z = self._fit.x_scaler.transform(design)
        pred = self._fit.model.predict(z)
        return self._fit.y_scaler.inverse_transform(pred)

    # ------------------------------------------------------------------
    def _select(self, configs: list, preds: np.ndarray, k: int, shape):
        k = min(k, len(configs))
        if k == 0:
            raise RuntimeError(
                f"no legal configuration for {shape} on {self._device.name}"
            )
        top = np.argpartition(-preds, k - 1)[:k]
        top = top[np.argsort(-preds[top])]
        return [
            Prediction(config=configs[i], predicted_tflops=float(2.0 ** preds[i]))
            for i in top
        ]

    def top_k(self, shape, k: int = 100) -> list[Prediction]:
        """The k configs the model believes are fastest, best first."""
        cs = self._candidate_set(shape)
        if self._folded is not None:
            sel = self._cascade_select(cs, shape, k)
            if sel is not None:
                return sel
        preds = self.predictions(shape)
        self.cascade_stats.exhaustive_queries += 1
        return self._select(cs.configs, preds, k, shape)

    def top_k_batch(
        self, shapes: Sequence, k: int = 100
    ) -> list[list[Prediction]]:
        """Per-shape top-k for many query shapes in one model pass.

        Shapes sharing a candidate set (e.g. GEMM shapes of one dtype) are
        evaluated together chunk-wise; results match per-shape
        :meth:`top_k` exactly.  Cascade-eligible shapes run stage 1
        batched over the same cache-resident chunks; fallbacks rejoin the
        exhaustive batch path.
        """
        results: list[list[Prediction] | None] = [None] * len(shapes)
        groups: dict[Hashable, list[int]] = {}
        for i, shape in enumerate(shapes):
            key = self._spec.candidate_cache_key(
                self._device, shape, self._space
            )
            groups.setdefault(key, []).append(i)
        for key, idxs in groups.items():
            cs = self._candidate_set(shapes[idxs[0]])
            if self._folded is None:
                for i in idxs:
                    results[i] = self.top_k(shapes[i], k)
                continue
            pending = idxs
            # All shapes in a group share a dtype (it is part of the
            # candidate cache key), so one margin covers the group.
            ready = self._cascade_ready(cs, shapes[idxs[0]].dtype.name, k)
            if ready is not None:
                cas, delta = ready
                h0_lo = self._ensure_lowres(key, cs)
                per = max(
                    1, (2 * _BATCH_BLOCK_ELEMS) // max(1, len(cs.configs))
                )
                pending = []
                for lo in range(0, len(idxs), per):
                    sub = idxs[lo:lo + per]
                    t0 = time.perf_counter()
                    proxies = cas.scores_many(
                        h0_lo,
                        [
                            self._spec.shape_vector(shapes[i], log=True)
                            for i in sub
                        ],
                    )
                    self.cascade_stats.stage1_ms += (
                        time.perf_counter() - t0
                    ) * 1e3
                    for row, i in zip(proxies, sub):
                        sel = self._cascade_finish(
                            cs, shapes[i], k, row, delta
                        )
                        if sel is None:
                            pending.append(i)
                        else:
                            results[i] = sel
            # Bound the materialized (shapes x candidates) prediction block
            # so arbitrarily large batches cannot exhaust memory.
            per_group = max(1, _BATCH_BLOCK_ELEMS // max(1, len(cs.configs)))
            for lo in range(0, len(pending), per_group):
                sub = pending[lo:lo + per_group]
                vecs = [
                    self._spec.shape_vector(shapes[i], log=True) for i in sub
                ]
                rows = self._fit.y_scaler.inverse_transform(
                    self._folded.predict_batch(cs.h0, vecs)
                )
                for row, i in zip(rows, sub):
                    self.cascade_stats.exhaustive_queries += 1
                    results[i] = self._select(cs.configs, row, k, shapes[i])
        return results  # type: ignore[return-value]
