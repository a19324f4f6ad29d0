"""Exhaustive runtime search over tuning parameters (paper §6).

At runtime the input parameters are fixed, so the trained model is
optimized over tuning parameters only.  The paper opts for exhaustive
search: it finds the global optimum of the model within the search range,
is trivially batchable (up to a million configurations per second), and
yields the top-k list that the re-ranking step re-benchmarks.

Which configurations are searched, and how they are featurized, comes from
the :mod:`~repro.core.ops` registry — any registered op plugs in here
unchanged.

Every query is pre-scaled and batched.  The candidate feature matrix is
standardized by the fit's x-scaler and folded through the MLP's first
layer (the layer is affine, so column blocks contribute additively)::

    z1 = [Zc | Zs] @ W1 + b1 = (Za @ W1a + b1) + Zs @ W1s + Zt @ W1t

so a fit the fold cannot take (no hidden layer, or features that are not
the op's) is refused when its search is built.  The plain forward pass
over the full design matrix is the tests' oracle, not a second path.

Candidate sets come in *groups*: an op may declare
(``OpSpec.candidate_groups``) that its sets of one (device, dtype) all
hold one base's rows and differ only in a few config columns ``Zt``
that depend on nothing but each row's group (CONV: the six split
columns, one value per block/thread tile).  Each base then gets one
term ``A = Za @ W1a + b1`` over its other columns, rows in group order,
and each set only its split term ``T = Zt @ W1t``, one row per group.
A query at shape term ``h = Zs @ W1s`` scores row ``r`` of group ``g``
from the first-layer input ``A[r] + (h + T[g])``: one per-(shape,
group) constant added to every row of the group.  The search reads
``Za`` and the groups' ``Zt`` rows through the set's record
(``features(rows, columns)``), so a CONV bucket never builds its whole
matrix.  An op without groups is the one-group case: ``A`` is the whole
prescaled matrix, ``T`` is absent and the constant is ``h``.
:meth:`ExhaustiveSearch.top_k_batch` amortizes further by pushing many
query shapes — of any set of one base — through each cache-resident
chunk of ``A``.

A term caches only ``A`` cast to float32, the twin stage 1 streams over
(161,518 x 32: ~21 MB for a GEMM set), built chunk by chunk.  Every
float64 pass computes the rows of ``A`` it reads where it reads them,
from the record (:meth:`_FoldedMLP.a_rows`): the exhaustive pass
once per chunk for every shape of the pass, stage 2 once per shortlist
gather.  A BLAS product rounds a row the same whatever other rows share
the call, except that it multiplies a one-row block with its
matrix-vector routine, so a one-row block is computed as two; the rows
are then the bits a whole-set product gives.

Every full pass over a term — stage 1 below, the exhaustive fallback,
cascade calibration — walks one chunk grid: the multiples of
``_CHUNK_ROWS`` cut at the group starts, so each chunk lies in one
group and adds one constant.  The pass splits that walk into ``W``
contiguous, grid-aligned row ranges that run at once on one
process-wide thread pool (:mod:`repro.inference.partition`).  ``W`` is
the process's BLAS thread budget, and BLAS runs one thread per scoring
thread while the ranges run: a 2048-row chunk times a 32- or 64-wide
layer is too small for a multi-threaded BLAS to pay off inside it, so
the CPUs go across rows instead.  The chunks do not depend on ``W``, and
each keeps its rows and its BLAS call, so scores are bit-identical to
the serial walk, which still runs when ``W`` is 1 — a worker process of
the sharded tier, a process under ``OPENBLAS_NUM_THREADS=1``, or a BLAS
without a runtime thread control.

Cold queries additionally run a **two-stage cascade**: stage 1 scores all
candidates with the full model evaluated in float32 over a low-precision
twin of ``A``, keeps the ``cascade_keep`` best plus every candidate within
``2*delta`` of that threshold, and stage 2 re-scores only that shortlist
in full float64 precision.  Stage 1 makes one elementwise pass per layer:
with ReLU hidden layers, ``relu(x + c) = max(x, -c) + c`` turns each
layer's per-(shape, group) constant or bias into a threshold ``-c`` and
carries ``+c`` into the next layer, down to one constant added to the
output (:class:`_Cascade`).  ``delta`` is a per-dtype margin calibrated
offline (:meth:`ExhaustiveSearch.calibrate_cascade`, persisted with the
fit) bounding ``|full - proxy|``; because the proxy is the same network
at reduced precision, ``delta`` is rounding-sized (~1e-6 standardized
units) rather than model-sized, and under that bound the shortlist
provably contains the exhaustive top-k — the cascade is bit-identical to
the exhaustive search.  That needs stage 2's scores of a gathered
shortlist to equal the exhaustive scores of the same rows bit for bit.
Both float64 passes form a row's first-layer input with the same single
add of the same float64 values, ``A[r] + c[g]`` (the exhaustive pass
broadcasts ``c[g]`` over a chunk, stage 2 gathers one ``c[g]`` per
row; both compute ``A[r]`` as above), so they agree there; after it,
the float64 pass computes its width-1 output layer as a row-wise
reduction (a BLAS product rounds a row differently depending on how
many rows share the call) and scores a one-row chunk as two.  (Cheaper
stage-1 families — collapsed linear readouts, distilled students,
certified interval bounds — were measured and rejected: their score
error is orders of magnitude above the ~0.01-unit gap between the top-k
frontier and the candidate bulk, so no margin both sound and useful
exists for them.)  Whenever the bound cannot be trusted — no
calibration, weights or stage-1 form changed since calibration, a layer
stage 1 cannot threshold, shortlist blown wide, or an observed gap above
``delta`` — the query transparently falls back to exhaustive scoring.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.ops import OpSpec, get_op
from repro.core.soa import LazyConfigList
from repro.core.space import ParamSpace
from repro.core.types import DType
from repro.gpu.device import DeviceSpec
from repro.inference.partition import map_rows
from repro.mlp.crossval import CascadeCalibration, FitResult

#: Rows per chunk of every scoring pass, in both precisions: the whole
#: layer stack's intermediates stay cache-resident (stage 1's float32
#: ones L2-resident, measured ~13% faster than 8192-row chunks).
#: Calibration and query time share this grid, so scores are
#: bit-reproducible for a given term.
_CHUNK_ROWS = 2048

#: Cap on (query shapes x candidates) prediction elements materialized at
#: once by top_k_batch (32M float64 = 256 MiB).
_BATCH_BLOCK_ELEMS = 32_000_000

#: Most rows of X̂ that one enumeration block holds (:func:`_blocks`):
#: GEMM walks 125 blocks of 15,120 rows.
_ENUM_BLOCK_ROWS = 65_536

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
    """One cached enumeration, in array and (lazily) object form.

    ``params`` holds the surviving tuning-parameter columns of the
    vectorized enumeration — the persistable form the on-disk candidate
    store round-trips.  ``configs``/``matrix`` are materialized from the
    columns once, when the record is first served, and kept.
    ``space_params`` remembers the value sets the
    set was enumerated from, so a record persisted before a
    :class:`~repro.core.space.ParamSpace` edit is detected as stale and
    re-enumerated instead of silently served.
    """

    op: str
    params: dict[str, np.ndarray]
    matrix: np.ndarray | None = None
    configs: list | None = None
    space_params: tuple | None = None

    @property
    def ready(self) -> bool:
        return self.configs is not None and self.matrix is not None

    def features(
        self, rows: np.ndarray | None = None, columns=None
    ) -> np.ndarray:
        """Log features of ``columns`` (matrix positions) at ``rows``.

        Both default to all; with neither given this is the cached
        matrix itself.  The search reads a set's features only through
        this call, so a record may derive them instead of holding the
        matrix (a CONV bucket does).
        """
        if rows is None and columns is None:
            return self.matrix
        n, width = self.matrix.shape
        return self.matrix[np.ix_(
            np.arange(n) if rows is None else rows,
            np.arange(width) if columns is None else columns,
        )]

    def materialize(self) -> "CandidateRecord":
        """Build configs + log-feature matrix from the stored columns.

        Bit-identical to the scalar walk of the space: the columns
        preserve ``iter_points`` ordering and the matrix applies the same
        float64 log transform (``tests`` and ``bench_cold_start`` assert
        it against the oracle).  The configs sequence is a
        :class:`LazyConfigList` — objects are constructed only for the
        rows a search actually touches (its top-k slice), never for the
        whole 10^5-row set.
        """
        spec = get_op(self.op)
        if self.matrix is None:
            self.matrix = spec.config_matrix_from_params(self.params)
        if self.configs is None:
            self.configs = LazyConfigList(spec.config_type, self.params)
        return self


class KeyedRecordCache:
    """A thread-safe map of :class:`CandidateRecord` built once per key.

    Any record with ``ready`` and ``materialize()`` fits (CONV keeps its
    per-(device, dtype) bases and its buckets in two).
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


def _blocks(space: ParamSpace) -> Iterator[ParamSpace]:
    """X̂ as sub-spaces, in :meth:`ParamSpace.iter_points` order.

    Each block fixes the leading parameters, as few as leave at most
    ``_ENUM_BLOCK_ROWS`` points (all but the last, if even that one
    parameter's values exceed it).  The product is row-major, so the
    blocks' grids, one after the other, are X̂'s grid.
    """
    sizes = [len(values) for _, values in space.params]
    lead = next(
        d for d in range(len(sizes))
        if math.prod(sizes[d:]) <= _ENUM_BLOCK_ROWS or d == len(sizes) - 1
    )
    fixed, free = space.params[:lead], space.params[lead:]
    for point in itertools.product(*(values for _, values in fixed)):
        yield ParamSpace(
            space.name,
            tuple((n, (v,)) for (n, _), v in zip(fixed, point)) + free,
        )


def _enumerate_record(
    spec: OpSpec, device: DeviceSpec, dtype: DType, space: ParamSpace
) -> CandidateRecord:
    """Enumerate X for one (op, device, dtype, space) as a record.

    Walks X̂ one block at a time (:func:`_blocks`): each block's
    struct-of-arrays columns (:meth:`ParamSpace.grid`) go through the
    op's ``legal_mask`` and only the survivors are kept, concatenated in
    order — the rows the one-shot grid and mask would keep, without
    ever holding X̂'s columns (GEMM: 1.89M rows, ~350 MiB with the
    mask's temporaries).  Config objects and the feature matrix are
    derived from the survivors afterwards.
    """
    kept: dict[str, list[np.ndarray]] = {n: [] for n in space.names}
    for block in _blocks(space):
        cols = block.grid()
        mask = np.asarray(spec.legal_mask(device, cols, dtype), dtype=bool)
        idx = np.flatnonzero(mask)
        for n, c in cols.items():
            kept[n].append(c[idx])
    params = {n: np.concatenate(parts) for n, parts in kept.items()}
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
    be enumerated here.  Vectorized and cached: ``legal_mask`` passes
    over the gridded product space, one block at a time (~0.3 s for
    GEMM's 1.89M points with the matrix on a 2-CPU Xeon host, where the
    scalar walk in ``tests/oracles.py`` takes ~14 s), are shared by
    every later search, and thread-safe — concurrent callers enumerate
    each key once.  The search reads the record itself
    (:func:`legal_record`, the ``candidates_batch`` slot).
    """
    rec = legal_record(device, dtype, op, space)
    return rec.configs, rec.matrix


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


def clear_cache() -> None:
    from repro.inference import conv_search

    _LEGAL_CACHE.clear()
    conv_search.clear_bucket_cache()


def _score_chunks(
    n: int,
    starts: np.ndarray,
    consts: Sequence[Sequence],
    out: np.ndarray,
    widths: Sequence[int],
    chunk_rows: Callable[[int, int, list[np.ndarray]], np.ndarray],
    score_chunk: Callable,
) -> None:
    """``out[b, rows] = score_chunk(chunk_rows(rows), consts[b][g])``.

    A term's ``n`` rows are in group order, group ``g`` starting at row
    ``starts[g]``; ``chunk_rows(c, e, bufs)`` returns rows ``c`` to
    ``e`` of the term once per chunk, for every shape of the pass (the
    float32 twin's slice, or float64 rows of ``A`` computed into one of
    the range's buffers), and ``consts[b][g]`` is what the scorer
    precomputed for shape ``b`` and group ``g`` (the float64
    first-layer constant, or stage 1's thresholds).  The chunks are the
    rows between consecutive cuts, and the cuts are the multiples of
    ``_CHUNK_ROWS`` and the group starts, so every chunk lies in one
    group.  The ranges of :func:`~repro.inference.partition.map_rows`
    start on multiples of ``_CHUNK_ROWS``, so a range adds no cut of its
    own: a row falls in the same chunk at every scoring width.  Each
    range owns one scratch buffer per entry of ``widths`` (two rows at
    least, for the one-row pad) and scores its chunks for every shape
    while they are cache-resident.
    """

    def score_rows(lo: int, hi: int) -> None:
        rows = max(2, min(hi - lo, _CHUNK_ROWS))
        bufs = [np.empty((rows, w), dtype=out.dtype) for w in widths]
        cuts = np.union1d(
            np.arange(lo, hi, _CHUNK_ROWS),
            starts[(starts > lo) & (starts < hi)],
        )
        groups = np.searchsorted(starts, cuts, side="right") - 1
        ends = [*cuts[1:].tolist(), hi]
        for c, e, g in zip(cuts.tolist(), ends, groups.tolist()):
            chunk = chunk_rows(c, e, bufs)
            for b, per_group in enumerate(consts):
                score_chunk(chunk, per_group[g], out[b, c:e], bufs)

    map_rows(n, _CHUNK_ROWS, score_rows)


@dataclass
class Prediction:
    """One candidate from the exhaustive search."""

    config: object
    predicted_tflops: float


class _FoldedMLP:
    """The fit's scaler + first layer, folded for a fixed feature split.

    Splits the standardization and the first (affine) layer into
    config-column parts — applied once per term or set — and a
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
        self.widths = [self._b1.shape[0]] + [
            lyr.w.shape[1] for lyr in self._rest[:-1]
        ]

    def is_current(self) -> bool:
        """Whether the folded snapshot still matches the live model.

        The first layer and scaler stats are copied at fold time (they
        are baked into the cached twins and ``T`` terms); in-place model
        mutation — pruning, further fine-tuning — must invalidate the
        fold.  Cheap: the first layer is ~n_features x width floats.
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
    def split_term(self, cols: np.ndarray, columns=slice(None)) -> np.ndarray:
        """Config columns ``columns`` standardized through the first layer."""
        z = (cols - self._mean_c[columns]) / self._scale_c[columns]
        return z @ self._w1_cfg[columns]

    def a_rows(
        self, term: "_Term", rows, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows ``rows`` (a slice or indices) of ``term``'s float64 ``A``.

        The term's config columns at those rows, standardized, through
        the first layer, plus its bias: a whole-set product's operations,
        and its bits, since a row's product does not depend on how many
        rows share the call, except that BLAS multiplies a one-row block
        with its matrix-vector routine, so one row goes through as two.
        ``out``, a C-contiguous buffer of the result's shape, receives
        the rows of a longer block; callers read the return value.
        """
        cols = term.columns
        z = (term.features(rows) - self._mean_c[cols]) / self._scale_c[cols]
        w = self._w1_cfg[cols]
        if len(z) == 1:
            a = np.matmul(np.repeat(z, 2, axis=0), w)[:1]
        else:
            a = np.matmul(z, w, out=out)
        a += self._b1
        return a

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
        c: np.ndarray,
        out_row: np.ndarray,
        bufs: list[np.ndarray],
    ) -> None:
        """Score rows from ``h0_chunk + c``: ``c`` is one first-layer
        constant for the chunk, or one per row."""
        m = len(h0_chunk)
        if m == 1:
            # BLAS multiplies a one-row matrix with its matrix-vector
            # routine, which rounds differently from the matrix-matrix
            # one every longer chunk takes: score the row twice instead.
            pair = np.empty(2)
            c = np.repeat(c, 2, axis=0) if c.ndim == 2 else c
            self._eval_chunk(np.repeat(h0_chunk, 2, axis=0), c, pair, bufs)
            out_row[:] = pair[:1]
            return
        a = bufs[0][:m]
        np.add(h0_chunk, c, out=a)
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

    def predict_batch(
        self, term: "_Term", consts: Sequence[np.ndarray]
    ) -> np.ndarray:
        """(n_shapes, n_rows) outputs, one pass over ``term``'s rows.

        ``consts[b]`` holds shape ``b``'s first-layer constants, one row
        per group.  Each chunk's rows of ``A`` are computed once and
        evaluated for every shape while they are cache-resident, so the
        batch pays the memory traffic of a single query.  Row ranges run
        in parallel.
        """
        out = np.empty((len(consts), len(term)))
        # The chunk's rows of ``A`` take one buffer after the layers'
        # (``_eval_chunk`` reads one per layer width, from the first).
        _score_chunks(
            len(term), term.starts, consts, out,
            [*self.widths, self.widths[0]],
            lambda c, e, bufs: self.a_rows(term, slice(c, e), bufs[-1][:e-c]),
            self._eval_chunk,
        )
        return out

    def predict_rows(
        self, term: "_Term", rows: np.ndarray, consts: np.ndarray
    ) -> np.ndarray:
        """Outputs for ``term``'s rows ``rows``, row ``i`` from
        ``A[rows[i]] + consts[i]``.

        Serial: stage 2's shortlists are a few hundred rows, whose ``A``
        is computed in one gather.  A row's score does not depend on
        which rows share its product or chunk, so it equals the row's
        score in a full pass.
        """
        a = self.a_rows(term, rows)
        out = np.empty(len(a))
        n = max(2, min(len(a), _CHUNK_ROWS))
        bufs = [np.empty((n, w)) for w in self.widths]
        for c in range(0, len(a), _CHUNK_ROWS):
            e = c + _CHUNK_ROWS
            self._eval_chunk(a[c:e], consts[c:e], out[c:e], bufs)
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
    """Stage-1 scorer: the full network in float32, one ``max`` per layer.

    Every hidden layer is ReLU and the output layer is identity, so the
    identity ``relu(x + c) = max(x, -c) + c`` carries each layer's
    additive constant into the next layer instead of adding it to every
    row.  Per query shape and group, the constants are computed once in
    float64 from the weights the float32 copies were cast from::

        c_1 = h + T[g] (the first-layer constant),
        c_{l+1} = c_l W_{l+1} + b_{l+1},   c_out = c_L w_out + b_out

    and ``-c_l`` and ``c_out`` are cast to float32 once (one shape's
    groups go through each product together, as the rows of one
    matrix).  Each chunk of the float32 twin of ``A`` is then scored,
    with its group's constants, as::

        m_1 = max(A, -c_1),   m_{l+1} = max(m_l W_{l+1}, -c_{l+1}),
        out = m_L w_out + c_out

    where ``m_l + c_l`` is layer l's activation: one elementwise pass per
    layer where adding a constant and then clamping takes two, with the
    same products (the float64 hot path's structure, at half the memory
    traffic and roughly twice the sgemm throughput).  A group
    thresholds exactly as a whole one-group term does.

    The proxy is therefore the exhaustive scorer up to float32 rounding,
    so the calibrated per-dtype margin ``delta`` is rounding-sized (~1e-6
    standardized units), small against the ~0.01-unit spread of scores
    near the top-k frontier, which is what makes the widened shortlist
    barely wider than ``keep``.  Let ``delta >= max_i |f_i - p_i|``; for
    the ``keep``-th largest proxy ``tau``, every true top-k candidate
    satisfies ``p >= tau - 2*delta``, so the shortlist provably contains
    the exhaustive top-k.  A fit of any other layer form (a tanh hidden
    layer, say) has no such proxy and searches exhaustively
    (:meth:`applies`).

    ``_FoldedMLP.is_current()`` only watches the first layer and scalers,
    so the later layers are snapshotted here and re-checked by
    :meth:`is_current` — in-place mutation of *any* layer disables the
    cascade until it is rebuilt.
    """

    __slots__ = ("margins", "_ws", "_w_out", "_rest_snapshot", "_folded")

    def __init__(self, folded: _FoldedMLP, margins: Mapping[str, float]):
        self.margins = dict(margins)
        rest = folded._rest
        self._ws = [
            np.ascontiguousarray(lyr.w, dtype=np.float32)
            for lyr in rest[:-1]
        ]
        self._w_out = np.ascontiguousarray(rest[-1].w[:, 0], dtype=np.float32)
        self._rest_snapshot = [(lyr.w.copy(), lyr.b.copy()) for lyr in rest]
        self._folded = folded

    @staticmethod
    def applies(folded: _FoldedMLP) -> bool:
        """Whether every hidden layer is ReLU and the output identity."""
        acts = [folded._act0] + [lyr.activation for lyr in folded._rest]
        return (
            all(act.name == "relu" for act in acts[:-1])
            and acts[-1].name == "identity"
        )

    def is_current(self) -> bool:
        rest = self._folded._rest
        if len(rest) != len(self._rest_snapshot):
            return False
        return all(
            np.array_equal(w, lyr.w) and np.array_equal(b, lyr.b)
            for (w, b), lyr in zip(self._rest_snapshot, rest)
        )

    def _thresholds(
        self, c1: np.ndarray
    ) -> list[tuple[list[np.ndarray], np.float32]]:
        """Per group: float32 ``-c_l`` per hidden layer and ``c_out``.

        ``c1`` is one shape's (n_groups, width) first-layer constants.
        """
        c = c1
        negs = [(-c).astype(np.float32)]
        for w, b in self._rest_snapshot[:-1]:
            c = c @ w + b
            negs.append((-c).astype(np.float32))
        w, b = self._rest_snapshot[-1]
        outs = (c @ w[:, 0] + b[0]).astype(np.float32)
        return [([neg[g] for neg in negs], outs[g]) for g in range(len(c1))]

    def _score_chunk(
        self,
        chunk: np.ndarray,
        consts: tuple[list[np.ndarray], np.float32],
        out_row: np.ndarray,
        bufs: list[np.ndarray],
    ) -> None:
        negs, c_out = consts
        m = len(chunk)
        a = np.maximum(chunk, negs[0], out=bufs[0][:m])
        for w, neg, buf in zip(self._ws, negs[1:], bufs[1:]):
            a = np.maximum(np.dot(a, w, out=buf[:m]), neg, out=buf[:m])
        np.dot(a, self._w_out, out=out_row)
        out_row += c_out

    def proxies(
        self,
        h0_lo: np.ndarray,
        starts: np.ndarray,
        consts: Sequence[np.ndarray],
    ) -> np.ndarray:
        """(n_shapes, n_rows) float32 proxies, one pass over ``h0_lo``.

        ``h0_lo`` is a term's float32 twin and ``consts[b]`` shape
        ``b``'s (n_groups, width) float64 first-layer constants.  The
        chunks are fixed by the term alone (:func:`_score_chunks`), and
        each shape's rows get the same operations whatever else shares
        the pass, so a proxy is bit-reproducible for a given term and
        constant: the calibration-time and query-time proxies, and a
        shape's proxies alone or in a batch, are the same numbers.  Row
        ranges run in parallel.
        """
        thresholds = [self._thresholds(c1) for c1 in consts]
        out = np.empty((len(consts), len(h0_lo)), dtype=np.float32)
        _score_chunks(
            len(h0_lo), starts, thresholds, out, self._folded.widths,
            lambda c, e, bufs: h0_lo[c:e], self._score_chunk,
        )
        return out


@dataclass
class _Term:
    """One first-layer term, shared by every candidate set of one base.

    ``A`` is the base's shared config columns standardized and folded
    through the first layer with its bias, one row per candidate in
    group order (group ``g`` is rows ``starts[g]`` up to the next
    start).  ``order[r]`` is row ``r``'s candidate index; None when the
    rows are in candidate order.  The term holds ``A`` only as ``lo``,
    its float32 twin; a float64 pass computes the rows of ``A`` it reads
    from the record (:meth:`_FoldedMLP.a_rows`).
    """

    order: np.ndarray | None
    starts: np.ndarray
    #: Where ``A``'s rows are read: any set's record of the base (each
    #: holds the base's shared columns) ...
    record: object
    #: ... at these config-feature columns (``slice(None)``, all, for a
    #: one-group term).
    columns: slice | list[int]
    #: ``A`` in float32, which stage 1 streams over (~21 MB for a GEMM
    #: set), adopted or built once when the term is attached.
    lo: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.lo)

    def features(self, rows) -> np.ndarray:
        """The log features ``A`` reads at its rows ``rows`` (a slice or
        indices): a slice of a one-group record's matrix, else a gather
        of the shared columns through ``order``."""
        if self.order is None:
            return self.record.features()[rows]
        return self.record.features(self.order[rows], self.columns)

    def to_candidates(self, scores: np.ndarray) -> np.ndarray:
        """Scores over the term's rows (last axis), in candidate order."""
        if self.order is None:
            return scores
        out = np.empty_like(scores)
        out[..., self.order] = scores
        return out


@dataclass
class _CandidateSet:
    """One op's candidates with precomputed search-side artifacts."""

    #: The op's candidate record (``OpSpec.candidates_batch``): its
    #: ``configs`` and, through ``features()``, its log features.
    record: object
    #: ``(term key, order, starts, split columns)``: the set's base, its
    #: rows' group order and starts, and the config-feature columns that
    #: vary by group (none for a one-group op).
    groups: tuple
    term: _Term | None = None
    #: ``T``: the split columns through the first layer, one row per
    #: group; None when no column varies by group.
    split: np.ndarray | None = None

    @property
    def configs(self) -> Sequence:
        return self.record.configs


class ExhaustiveSearch:
    """Vectorized model evaluation over every legal tuning vector.

    ``op`` is any name registered with :func:`repro.core.ops.register_op`
    (or an :class:`~repro.core.ops.OpSpec` directly).  The fit must be
    one the fold takes — an MLP with at least one hidden layer over the
    op's features — or construction raises ``ValueError``.
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
        self._terms: dict[Hashable, _Term] = {}
        self._adopted: dict[Hashable, tuple] = {}
        if not _FoldedMLP.supports(fit, len(self._spec.feature_names)):
            raise ValueError(
                f"fit cannot be folded for op {self._spec.name!r}: the "
                "search needs an MLP with a hidden layer over the op's "
                f"{len(self._spec.feature_names)} features"
            )
        self._folded = _FoldedMLP(fit, self._spec.n_config_features)
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
        if self._folded.is_current():
            return
        self._folded = _FoldedMLP(self._fit, self._spec.n_config_features)
        self._adopted.clear()  # twins built by the stale fold
        self._cascade = None  # collapsed from the stale layers
        self._cascade_calib = None
        self._terms.clear()
        for cs in self._sets.values():
            cs.term = None
            cs.split = None

    def _candidate_set(self, shape) -> _CandidateSet:
        self._refresh_fold()
        key = self._spec.candidate_cache_key(self._device, shape, self._space)
        cs = self._sets.get(key)
        if cs is None:
            # The op's record, cached module-wide behind its candidate
            # key.
            record = self._spec.candidates_batch(
                self._device, shape, self._space
            )
            if self._spec.candidate_groups is not None:
                groups = self._spec.candidate_groups(
                    self._device, shape, self._space
                )
            else:
                groups = (key, None, np.zeros(1, dtype=np.intp), ())
            cs = _CandidateSet(record=record, groups=groups)
            self._sets[key] = cs
        if cs.term is None:
            self._attach_term(cs)
        return cs

    def _attach_term(self, cs: _CandidateSet) -> None:
        """Give a set its base's term (its twin adopted if it fits, else
        built once) and its own ``T``."""
        tkey, order, starts, split = cs.groups
        term = self._terms.get(tkey)
        if term is None:
            columns = slice(None) if order is None else [
                j for j in range(self._spec.n_config_features)
                if j not in split
            ]
            term = _Term(order, starts, cs.record, columns)
            lo = self._adopted.get(tkey)
            shape = (len(cs.configs), self._folded.widths[0])
            term.lo = (
                lo if lo is not None and lo.shape == shape
                else self._twin(term, shape)
            )
            self._terms[tkey] = term
        cs.term = term
        if split:
            # Split columns depend only on the group: each group's first
            # row carries them.
            first = cs.record.features(order[starts], split)
            cs.split = self._folded.split_term(first, list(split))

    def _twin(self, term: _Term, shape: tuple[int, int]) -> np.ndarray:
        """``term``'s ``A`` in float32, built a chunk at a time, so no
        float64 ``A`` is ever whole.  Row ranges run in parallel."""
        lo = np.empty(shape, dtype=np.float32)

        def build(a: int, b: int) -> None:
            buf = np.empty((max(2, min(b - a, _CHUNK_ROWS)), shape[1]))
            for c in range(a, b, _CHUNK_ROWS):
                e = min(c + _CHUNK_ROWS, b)
                lo[c:e] = self._folded.a_rows(term, slice(c, e), buf[:e - c])

        map_rows(shape[0], _CHUNK_ROWS, build)
        return lo

    def _first_layer(self, cs: _CandidateSet, shape) -> np.ndarray:
        """One shape's float64 first-layer constants ``h + T[g]``, one
        row per group (``h`` alone for a one-group set)."""
        h = self._folded._shape_term(self._spec.shape_vector(shape, log=True))
        return h[None] if cs.split is None else h + cs.split

    def terms(self) -> dict[Hashable, np.ndarray]:
        """Every built first-layer term's float32 twin, by term key.

        The worker tier ships these through shared memory so a fresh
        worker skips building them; only terms this search has actually
        touched (and whose fold is current) appear.  A CONV term goes
        once, under its base's key, whatever buckets used it.
        """
        self._refresh_fold()
        return {key: term.lo for key, term in self._terms.items()}

    def adopt_terms(self, terms: Mapping[Hashable, np.ndarray]) -> None:
        """Accept externally built float32 twins by term key.

        An array (typically a read-only shared-memory view) is used
        verbatim iff its shape matches the term built for the key — it
        was built from the same fit bytes and candidate columns, so its
        values are bit-identical to a local build.  A mismatch (space
        edit between export and attach) silently falls back to building
        the twin locally.
        """
        self._adopted.update(terms)

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
        weights and stage-1 form, the layer snapshot is still current,
        and every layer has the form stage 1 scores.
        """
        if not self._cascade_enabled:
            return None
        calib = self._fit.cascade
        cas = self._cascade
        # The calibration identity check catches the fit's ``cascade``
        # being replaced (or dropped) with no weight mutation.
        if (cas is not None and calib is self._cascade_calib
                and cas.is_current()):
            return cas
        self._cascade = None
        self._cascade_calib = None
        if (calib is None or not calib.margins
                or not _Cascade.applies(self._folded)):
            return None
        from repro.mlp.serialize import fit_weights_digest

        if calib.weights_digest != fit_weights_digest(self._fit):
            # Calibrated against different weights (hot-swap, in-place
            # mutation): pruning with these margins would be unsafe.
            return None
        self._cascade = _Cascade(self._folded, calib.margins)
        self._cascade_calib = calib
        return self._cascade

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
        (``fit.cascade = ...``) to arm the cascade.  A fit stage 1 cannot
        score (:meth:`_Cascade.applies`) gets no margins.
        """
        self._refresh_fold()
        from repro.mlp.serialize import fit_weights_digest

        cas = _Cascade(self._folded, {})
        rng = np.random.default_rng(seed)
        margins: dict[str, float] = {}
        for dtype in dtypes if _Cascade.applies(self._folded) else ():
            sampler = self._spec.make_shape_sampler((dtype,))
            delta = 0.0
            for _ in range(n_shapes):
                shape = sampler(rng)
                cs = self._candidate_set(shape)
                c1 = [self._first_layer(cs, shape)]
                term = cs.term
                f = self._folded.predict_batch(term, c1)
                p = cas.proxies(term.lo, term.starts, c1)
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
        k: int,
        proxy: np.ndarray,
        delta: float,
        c1: np.ndarray,
    ) -> list[Prediction] | None:
        """Shortlist + stage-2 rerank from one shape's stage-1 proxies.

        ``proxy`` scores the set's term rows (group order) and ``c1`` is
        the shape's first-layer constants.  Returns None on fallback
        (shortlist blown wide, or an observed ``|full - proxy|`` above
        the calibrated margin — in which case the pruned candidates
        cannot be trusted either).
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
        rows = np.flatnonzero(p64 >= thr)
        if len(rows) > n * _CASCADE_MAX_FRAC:
            stats.fallbacks += 1
            return None
        t1 = time.perf_counter()
        term = cs.term
        survivors = rows
        if term.order is not None:
            # Candidate order, as the exhaustive selection sees them.
            survivors = term.order[rows]
            by = np.argsort(survivors)
            rows, survivors = rows[by], survivors[by]
        groups = np.searchsorted(term.starts, rows, side="right") - 1
        f = self._folded.predict_rows(term, rows, c1[groups])
        if np.max(np.abs(f - p64[rows])) > delta:
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

    def candidates(self, shape) -> tuple[list, np.ndarray]:
        """Candidate configs + config-feature matrix for one query shape.

        Not on the search's own path: a CONV bucket derives its matrix
        on every call (the search reads only the base's shared columns
        and the bucket's per-group rows).
        """
        cs = self._candidate_set(shape)
        return cs.configs, cs.record.matrix

    # ------------------------------------------------------------------
    def predictions(self, shape) -> np.ndarray:
        """Predicted log2-TFLOPS for every candidate config at this shape."""
        cs = self._candidate_set(shape)
        term = cs.term
        pred = self._folded.predict_batch(
            term, [self._first_layer(cs, shape)]
        )[0]
        return self._fit.y_scaler.inverse_transform(term.to_candidates(pred))

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
        return self.top_k_batch([shape], k)[0]

    def top_k_batch(
        self, shapes: Sequence, k: int = 100
    ) -> list[list[Prediction]]:
        """Per-shape top-k for many query shapes in one model pass.

        Shapes whose candidate sets share a term (GEMM shapes of one
        dtype; CONV shapes of one dtype, whatever their buckets) are
        evaluated together chunk-wise, each with its own first-layer
        constants; a shape's answer does not depend on what shares its
        pass, and :meth:`top_k` is the one-shape call.  Cascade-eligible
        shapes run stage 1 in one pass over the term; fallbacks rejoin
        the exhaustive batch path.
        """
        results: list[list[Prediction] | None] = [None] * len(shapes)
        sets = [self._candidate_set(shape) for shape in shapes]
        by_term: dict[Hashable, list[int]] = {}
        for i, cs in enumerate(sets):
            by_term.setdefault(cs.groups[0], []).append(i)
        for idxs in by_term.values():
            term = sets[idxs[0]].term
            n = len(term)
            c1 = {i: self._first_layer(sets[i], shapes[i]) for i in idxs}
            pending = idxs
            # All shapes of a term share a dtype (it is part of the term
            # key), so one margin covers them.
            ready = self._cascade_ready(
                sets[idxs[0]], shapes[idxs[0]].dtype.name, k
            )
            if ready is not None:
                cas, delta = ready
                per = max(1, (2 * _BATCH_BLOCK_ELEMS) // max(1, n))
                pending = []
                for lo in range(0, len(idxs), per):
                    sub = idxs[lo:lo + per]
                    t0 = time.perf_counter()
                    proxies = cas.proxies(
                        term.lo, term.starts, [c1[i] for i in sub]
                    )
                    self.cascade_stats.stage1_ms += (
                        time.perf_counter() - t0
                    ) * 1e3
                    for row, i in zip(proxies, sub):
                        sel = self._cascade_finish(
                            sets[i], k, row, delta, c1[i]
                        )
                        if sel is None:
                            pending.append(i)
                        else:
                            results[i] = sel
            # Bound the materialized (shapes x candidates) prediction block
            # so arbitrarily large batches cannot exhaust memory.
            per_group = max(1, _BATCH_BLOCK_ELEMS // max(1, n))
            for lo in range(0, len(pending), per_group):
                sub = pending[lo:lo + per_group]
                rows = self._fit.y_scaler.inverse_transform(
                    term.to_candidates(self._folded.predict_batch(
                        term, [c1[i] for i in sub]
                    ))
                )
                for row, i in zip(rows, sub):
                    self.cascade_stats.exhaustive_queries += 1
                    results[i] = self._select(
                        sets[i].configs, row, k, shapes[i]
                    )
        return results  # type: ignore[return-value]
