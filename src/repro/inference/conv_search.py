"""Shape-aware candidate generation for the CONV search.

The CONV tuning space is the product of five tiled dimensions and is far
too large to enumerate directly (hundreds of millions of points).  But the
performance of an implicit-GEMM kernel depends on the five-dimensional
tiling almost entirely through the induced *implicit-GEMM tile*
(block_m, block_n, thread tile, staging depth, splits) — how block_m
factors into (NB, PB, QB) only changes padding waste and load contiguity.

So the runtime search enumerates the legal implicit-GEMM tiles (the cached
GEMM set) and factorizes each block/thread tile over (N, Q, P) *for the
query shape*, batch-first so small batches are never padded away — the
input-aware factorization real libraries hand-code.  The result is a
per-shape candidate list of a few 10^5 ConvConfigs, which the MLP scores
exactly like GEMM candidates.

:func:`conv_candidates_batch` is the supply, split at what the query
decides.  Once per (device, dtype) it builds a *base*
(:func:`_build_base`): the GEMM survivors whose ``kg`` is a CONV ``cg``
value and that pass ``conv_legal_mask``, with their eight GEMM-derived
CONV columns ``kt kb u cs cl cg vec db``, those columns' log features and
each row's block/thread tile (``ml``, ``ms``).  A query then only
factorizes the base's few distinct tiles (25 on the shipped spaces):
its bucket (:class:`ConvBucket`, :func:`_generate_bucket`) is that 25 x
6 table of split columns ``nb pb qb nt pt qt`` and their log features,
a few KiB.  Row ``i`` of the bucket is the base's row ``i`` with the
split of its tile; the configs are a lazily indexed view of the base's
eight columns and the table, and the 14 columns and the log-feature
matrix are derived on request, never held.  The bucket is cached per
*canonical bucket*: the factorization reads the batch only as
``min(next_pow2(n), ml)`` and the width only as
``min(next_pow2(q), ml // nb)`` (legality reads only the dtype), so
:func:`conv_bucket_key` clamps both extents to what the largest block
tile can tell apart: every shape with the same tile factorization shares
one candidate set, at most 45 per (device, dtype).  The result equals,
bit for bit and in order, a Python loop that projects, dedups and
legality-checks the GEMM tile set one row at a time (the tests' scalar
oracle); the proof is in :func:`_build_base`.

The search scores every bucket of a base through one first-layer term.
The base also keeps its rows in tile-group order (``order``, a stable
sort by tile) and each group's first position there (``starts``), and
:func:`conv_candidate_groups` hands both to the search
(``OpSpec.candidate_groups``): the eight shared columns' log features,
gathered in group order (:meth:`ConvBucket.features`), go through the
first layer into one term per (device, dtype, fit) (its float32 twin is
built once; the float64 passes gather and recompute their rows chunk by
chunk), and a bucket adds only its six split columns through the first
layer, one row per tile group: its table.
So no search derives a bucket's matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.config import ConvConfig
from repro.core.legality import conv_legal_mask
from repro.core.soa import LazyConfigList
from repro.core.space import CONV_SPACE, GEMM_SPACE
from repro.core.types import ConvShape, DType
from repro.gpu.device import DeviceSpec
from repro.inference.search import KeyedRecordCache, legal_record
from repro.sampling.features import config_matrix_from_params

#: The CONV columns a tile factorization sets, in :func:`factorize_tile`
#: order.
_SPLIT = ("nb", "pb", "qb", "nt", "pt", "qt")

#: The other eight CONV columns, each a GEMM column taken unchanged.
_FROM_GEMM = {
    "kt": "ns", "kb": "nl", "u": "u", "cs": "ks", "cl": "kl", "cg": "kg",
    "vec": "vec", "db": "db",
}


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


def factorize_tile(
    block: int, thread: int, shape: ConvShape
) -> tuple[int, int, int, int, int, int] | None:
    """Split an implicit-GEMM M-tile into (NB, PB, QB) / (NT, PT, QT).

    Batch-first: NB covers the batch up to its next power of two, then QB
    covers the output width, and PB takes the rest.  The thread tile is
    factored under the block tile with the same priorities.  Returns None
    when the factorization cannot respect divisibility.
    """
    nb = min(_next_pow2(shape.n), block)
    rest = block // nb
    qb = min(_next_pow2(shape.q), rest)
    pb = rest // qb
    if nb * pb * qb != block:
        return None

    nt = min(thread, nb)
    rest_t = thread // nt
    qt = min(rest_t, qb)
    pt = rest_t // qt
    if nt * pt * qt != thread or pt > pb:
        return None
    return nb, pb, qb, nt, pt, qt


# ----------------------------------------------------------------------
# Vectorized generation: one base per (device, dtype), one bucket per
# tile factorization
# ----------------------------------------------------------------------

@dataclass
class _ConvBase:
    """What every CONV bucket of one (device, dtype) shares.

    Rows are the base's candidates in GEMM enumeration order; a bucket
    sets each row's six split columns from its tile alone, so the tile
    groups are what the search scores with one constant each.  Cached
    in a :class:`KeyedRecordCache` beside the candidate records, so it
    is built once and always ready.
    """

    #: The eight GEMM-derived CONV columns (``_FROM_GEMM``).
    params: dict[str, np.ndarray]
    #: Their log-feature columns.
    logs: dict[str, np.ndarray]
    #: The distinct (ml, ms) block/thread tiles, one row each.
    tiles: np.ndarray
    #: Each candidate's row in ``tiles``: its tile group.
    tile_of: np.ndarray
    #: The candidates in tile-group order, stable (a stable argsort of
    #: ``tile_of``): the row order of the search's first-layer term.
    order: np.ndarray
    #: Each group's first position in ``order``.
    starts: np.ndarray
    space_params: tuple

    ready: ClassVar[bool] = True

    def materialize(self) -> "_ConvBase":
        return self


#: One :class:`_ConvBase` per (device, dtype).
_BASE_CACHE = KeyedRecordCache()

#: One :class:`ConvBucket` per bucket (device, dtype, canonical batch and
#: width extents), shared by every search over it.
_BUCKET_CACHE = KeyedRecordCache()


def _bucket_space_params() -> tuple:
    """The value sets a bucket's contents derive from.

    Buckets are projected from the GEMM survivor set and constrained by
    CONV_SPACE (the ``cg`` membership test and the legality mask), so a
    base or bucket built before an edit to *either* space must rebuild.
    """
    return GEMM_SPACE.params + CONV_SPACE.params


def _is_pow2(col: np.ndarray) -> np.ndarray:
    return (col > 0) & (col & (col - 1) == 0)


def _build_base(device: DeviceSpec, dtype: DType) -> _ConvBase:
    """The rows, in order, that every bucket of (device, dtype) holds.

    Per bucket, the scalar walk keeps a GEMM row when ``kg`` is a CONV
    ``cg`` value, its tile factorizes, its CONV row is new and that row
    is legal.  For powers of two ``ml`` and ``ms`` only the first
    test and legality can drop a row, and neither reads the bucket:

    * *The factorization never fails.*  ``nb = min(n', ml)`` divides
      ``ml``, ``qb = min(q', ml/nb)`` divides ``ml/nb``, ``nt = min(ms,
      nb)`` divides ``ms`` and ``qt = min(ms/nt, qb)`` divides
      ``ms/nt``, so ``nb·pb·qb = ml`` and ``nt·pt·qt = ms``.  And
      ``pt <= pb``: ``pt`` is 1 unless ``ms > nb·qb``, and then
      ``pt = ms/(nb·qb) <= ml/(nb·qb) = pb``, because GEMM legality has
      ``ms | ml``.  Each thread split is a power of two no larger than
      its block split, so it divides it.
    * *Legality reads the split only through products.*
      ``conv_legal_mask`` reads ``ml = nb·pb·qb``, ``ms = nt·pt·qt``
      and ``threads = (kb/kt)(pb/pt)(qb/qt)(nb/nt)·cl = (kb/kt)(ml/ms)·cl``
      (every quotient exact), besides the eight GEMM-derived columns.
      So one split decides it for all buckets: here, that of
      ``n = q = 1``, all of ``ml`` in ``pb`` and all of ``ms`` in ``pt``.
    * *Dedup removes nothing.*  The products recover the GEMM tile, so
      two CONV rows of one bucket that agree on all 14 columns come from
      one GEMM row, and the enumeration's rows are distinct.

    So a bucket is the base's rows, in GEMM order, with its own split.
    Raises ValueError if a space edit breaks the precondition (a
    non-power-of-two ``ml`` or ``ms``).
    """
    g = legal_record(device, dtype, "gemm", GEMM_SPACE).params
    rows = np.flatnonzero(np.isin(g["kg"], CONV_SPACE.values("cg")))
    ml, ms = g["ml"][rows], g["ms"][rows]
    if not (_is_pow2(ml) & _is_pow2(ms) & (ml % ms == 0)).all():
        raise ValueError(
            "CONV buckets derive from GEMM tiles whose ml and ms are "
            "powers of two with ms | ml; GEMM_SPACE breaks that"
        )
    cols = {c: g[src][rows] for c, src in _FROM_GEMM.items()}
    one = np.ones_like(ml)
    split = dict(zip(_SPLIT, (one, ml, one, one, ms, one)))
    keep = np.flatnonzero(conv_legal_mask(device, cols | split, dtype))
    params = {c: np.ascontiguousarray(col[keep]) for c, col in cols.items()}
    # One int64 per (ml, ms): a 1-D unique is ~30x faster than axis=0.
    packed, tile_of = np.unique(ml[keep] << 32 | ms[keep], return_inverse=True)
    sizes = np.bincount(tile_of, minlength=len(packed))
    return _ConvBase(
        params=params,
        logs={
            c: config_matrix_from_params(params, (c,)).ravel() for c in params
        },
        tiles=np.column_stack(divmod(packed, 1 << 32)),
        tile_of=tile_of,
        order=np.argsort(tile_of, kind="stable"),
        starts=np.concatenate(([0], np.cumsum(sizes)[:-1])),
        space_params=_bucket_space_params(),
    )


def _conv_base(device: DeviceSpec, dtype: DType) -> _ConvBase:
    return _BASE_CACHE.get(
        (device.name, dtype.name),
        lambda: _build_base(device, dtype),
        validate=lambda b: b.space_params == _bucket_space_params(),
    )


def _canonical_extents(n: int, q: int) -> tuple[int, int]:
    """The batch and width extents :func:`factorize_tile` can tell apart.

    With ``L`` the largest GEMM block tile ``ml``, the factorization of
    any tile ``ml <= L`` reads ``nb = min(next_pow2(n), ml)``, which
    equals ``min(n', ml)`` for ``n' = min(next_pow2(n), L)``, then
    ``qb = min(next_pow2(q), ml // nb)``.  ``ml // nb`` is ``ml // n'``
    when ``ml >= n'`` and 1 otherwise, at most ``L // n'`` either way,
    so clamping the width to ``q' = min(next_pow2(q), L // n')`` leaves
    every ``qb`` as it was.  (n', q') decides the whole factorization.
    """
    top = max(GEMM_SPACE.values("ml"))
    n_c = min(_next_pow2(n), top)
    return n_c, min(_next_pow2(q), top // n_c)


def conv_bucket_key(
    device: DeviceSpec, shape: ConvShape
) -> tuple[str, str, str, int, int]:
    """The cache bucket one CONV query shape falls into.

    The tile factorization reads the shape only through its canonical
    batch and width extents (:func:`_canonical_extents`; ``pb`` takes
    whatever block budget remains, so ``p`` never enters), and CONV
    legality only through the dtype — so every shape agreeing on these
    shares one candidate set.  With ``L = 256`` there are 45 extent
    pairs, so at most 45 sets per (device, dtype).
    """
    return (
        "conv",
        device.name,
        shape.dtype.name,
        *_canonical_extents(shape.n, shape.q),
    )


_NAMES = ConvConfig.param_names()

#: The split columns' positions in the config-feature matrix.
_SPLIT_COLUMNS = tuple(_NAMES.index(c) for c in _SPLIT)


def conv_candidate_groups(
    device: DeviceSpec, shape: ConvShape
) -> tuple[tuple[str, str, str], np.ndarray, np.ndarray, tuple[int, ...]]:
    """How the search scores one shape's bucket: by its base's tile groups.

    Every bucket of (device, dtype) holds the base's rows, and sets the
    six split columns from each row's tile alone, so the search keeps
    one first-layer term per base, keyed ``("conv", device, dtype)``,
    with rows in the base's tile-group ``order``, and per bucket only
    the split columns of each group (``OpSpec.candidate_groups``).
    """
    base = _conv_base(device, shape.dtype)
    key = ("conv", device.name, shape.dtype.name)
    return key, base.order, base.starts, _SPLIT_COLUMNS


@dataclass
class ConvBucket:
    """One bucket's candidate set: the base's rows with this bucket's split.

    It holds only what depends on the bucket: each tile's
    factorization (:func:`factorize_tile`, one row per tile group, 25
    on the shipped spaces) and its log features, a few KiB.  Row ``i``
    is the base's row ``i`` with the split of its tile ``tile_of[i]``:
    ``configs`` reads it so, one config per index, and :meth:`features`
    gathers any rows and columns of the log-feature matrix.  The search
    reads only the base's shared columns (in its first-layer term) and
    the per-group rows; :attr:`params` and :attr:`matrix` derive the 14
    columns and the whole matrix on every access, never cached, for
    callers outside the search (the tests, the benches,
    ``ExhaustiveSearch.candidates``).
    """

    base: _ConvBase
    #: One row per tile of the base: its six split columns (``_SPLIT``).
    split: np.ndarray
    #: Their log features, in the same layout.
    split_logs: np.ndarray
    configs: LazyConfigList
    space_params: tuple

    ready: ClassVar[bool] = True

    def materialize(self) -> "ConvBucket":
        return self

    @property
    def params(self) -> dict[str, np.ndarray]:
        """The 14 config columns; the base's eight are shared, not copied."""
        cols = self.base.params | {
            n: np.take(self.split[:, j], self.base.tile_of)
            for j, n in enumerate(_SPLIT)
        }
        return {n: cols[n] for n in _NAMES}

    @property
    def matrix(self) -> np.ndarray:
        """The whole log-feature matrix, rows in candidate order."""
        return self.features()

    def features(
        self, rows: np.ndarray | None = None, columns=None
    ) -> np.ndarray:
        """Log features of ``columns`` (matrix positions) at ``rows``.

        Both default to all.  Every value is a power of two, whose log2
        is exact, so these are the bits the op's
        ``config_matrix_from_params`` gives for the same configs.
        """
        base = self.base
        at = slice(None) if rows is None else rows
        names = _NAMES if columns is None else [_NAMES[j] for j in columns]
        tiles = base.tile_of[at]
        out = np.empty((len(tiles), len(names)))
        for j, name in enumerate(names):
            if name in _SPLIT:
                out[:, j] = self.split_logs[tiles, _SPLIT.index(name)]
            else:
                out[:, j] = base.logs[name][at]
        return out


def _generate_bucket(device: DeviceSpec, shape: ConvShape) -> ConvBucket:
    """One bucket: :func:`factorize_tile` once per tile of the base."""
    base = _conv_base(device, shape.dtype)
    split = np.array(
        [factorize_tile(int(ml), int(ms), shape) for ml, ms in base.tiles],
        dtype=np.int64,
    ).reshape(len(base.tiles), len(_SPLIT))
    per_tile = dict(zip(_SPLIT, split.T))
    return ConvBucket(
        base=base,
        split=split,
        split_logs=config_matrix_from_params(per_tile, _SPLIT),
        configs=LazyConfigList(
            ConvConfig, base.params, (base.tile_of, per_tile)
        ),
        space_params=base.space_params,
    )


def conv_candidates_batch(device: DeviceSpec, shape: ConvShape) -> ConvBucket:
    """The candidate record of one shape's bucket, via the bucket cache.

    Its configs and derived matrix are bit-identical to the scalar walk
    followed by the op's ``config_matrix`` (same candidates, same order,
    same float64 bits), but the bucket is derived from the (device,
    dtype) base and shared by every shape with the same
    :func:`conv_bucket_key`.  Thread-safe: concurrent queries build the
    base and each bucket once.
    """
    rec = _BUCKET_CACHE.get(
        conv_bucket_key(device, shape),
        lambda: _generate_bucket(device, shape),
        # A bucket built before a GEMM_SPACE/CONV_SPACE edit must
        # rebuild — its contents derive from both spaces.
        validate=lambda r: r.space_params == _bucket_space_params(),
    )
    if not rec.configs:
        raise RuntimeError(f"no CONV candidate for {shape} on {device.name}")
    return rec


def clear_bucket_cache() -> None:
    """Drop every CONV base and bucket."""
    _BASE_CACHE.clear()
    _BUCKET_CACHE.clear()
