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

Two supplies exist.  :func:`conv_candidates` is the scalar reference: a
Python loop over the GEMM tile set, one projection / dedup / legality
check at a time.  :func:`conv_candidates_batch` is the hot path: it runs
the same factorization as array arithmetic over the cached GEMM survivor
*columns*, dedups via one packed-exponent ``np.unique``, applies
``conv_legal_mask`` once, and caches the result per *canonical bucket*.
The factorization reads the batch only as ``min(next_pow2(n), ml)`` and
the width only as ``min(next_pow2(q), ml // nb)`` (legality reads only
the dtype), so :func:`conv_bucket_key` clamps both extents to what the
largest block tile can tell apart: every shape with the same tile
factorization shares one candidate set, at most 45 per (device, dtype).
Both paths produce bit-identical (configs, matrix) results in identical
order.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.config import ConvConfig, GemmConfig
from repro.core.legality import conv_legal_mask, is_legal_conv
from repro.core.space import CONV_SPACE, GEMM_SPACE
from repro.core.types import ConvShape
from repro.gpu.device import DeviceSpec
from repro.inference.search import (
    CandidateRecord,
    KeyedRecordCache,
    legal_configs,
    legal_record,
)


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


def conv_config_from_gemm(
    g: GemmConfig, shape: ConvShape
) -> ConvConfig | None:
    """Project one implicit-GEMM tile onto the 5-D CONV parameterization."""
    cg_vals = CONV_SPACE.values("cg")
    if g.kg not in cg_vals:
        return None
    factors = factorize_tile(g.ml, g.ms, shape)
    if factors is None:
        return None
    nb, pb, qb, nt, pt, qt = factors
    return ConvConfig(
        kt=g.ns,
        pt=pt,
        qt=qt,
        nt=nt,
        kb=g.nl,
        pb=pb,
        qb=qb,
        nb=nb,
        u=g.u,
        cs=g.ks,
        cl=g.kl,
        cg=g.kg,
        vec=g.vec,
        db=g.db,
    )


def conv_candidates(
    device: DeviceSpec,
    shape: ConvShape,
    *,
    max_candidates: int | None = None,
) -> list[ConvConfig]:
    """Legal CONV configs for one query shape, via tile factorization.

    The scalar reference path; the runtime search goes through the
    vectorized, bucket-cached :func:`conv_candidates_batch`.
    """
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


# ----------------------------------------------------------------------
# Vectorized generation, cached per pow2 bucket
# ----------------------------------------------------------------------

#: Generated CONV candidate sets, shared by every search over the same
#: bucket (device, dtype, canonical batch and width extents).
_BUCKET_CACHE = KeyedRecordCache()


def _bucket_space_params() -> tuple:
    """The value sets a bucket's contents derive from.

    Buckets are projected from the GEMM survivor set and constrained by
    CONV_SPACE (the ``cg`` membership test and the legality mask), so a
    record persisted before an edit to *either* space must regenerate.
    """
    return GEMM_SPACE.params + CONV_SPACE.params


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


def _dedup_first_rows(cols: dict[str, np.ndarray]) -> np.ndarray:
    """Indices of first occurrences of unique rows, in original order.

    Matches the scalar loop's ``seen``-set semantics.  Every column is a
    power of two <= 2**15, so a row packs into one int64 of 4-bit
    exponents — ``np.unique`` on that key is ~20x cheaper than on a 2-D
    row view.  Anything wider falls back to the row-wise unique.
    """
    names = ConvConfig.param_names()
    packable = all(
        (cols[n] > 0).all()
        and (cols[n] & (cols[n] - 1) == 0).all()
        and cols[n].max(initial=1) <= 1 << 15
        for n in names
    )
    if packable:
        key = np.zeros(len(cols[names[0]]), dtype=np.int64)
        for n in names:
            key = (key << 4) | np.log2(cols[n]).astype(np.int64)
        _, first = np.unique(key, return_index=True)
    else:
        rows = np.column_stack([cols[n] for n in names])
        _, first = np.unique(rows, axis=0, return_index=True)
    first.sort()
    return first


def _generate_bucket(
    device: DeviceSpec, shape: ConvShape
) -> CandidateRecord:
    """Vectorized :func:`conv_candidates` over the GEMM survivor columns."""
    gemm_rec = legal_record(device, shape.dtype, "gemm")
    g = gemm_rec.params
    if g is None:
        # The GEMM set came from the scalar fallback (op registered no
        # legal_mask / columns): generate scalar-wise too.
        configs = conv_candidates(device, shape)
        return CandidateRecord(op="conv", params=None, configs=configs)

    # conv_config_from_gemm, over columns: cg must be a CONV_SPACE value
    # (all powers of two, so membership is a range test on the exponent
    # domain — isin keeps it literal), then the batch-first factorization.
    cg_vals = np.asarray(CONV_SPACE.values("cg"), dtype=np.int64)
    ok = np.isin(g["kg"], cg_vals)

    np2n = _next_pow2(shape.n)
    np2q = _next_pow2(shape.q)
    nb = np.minimum(np2n, g["ml"])
    rest = g["ml"] // nb
    qb = np.minimum(np2q, rest)
    pb = rest // qb
    ok &= nb * pb * qb == g["ml"]

    nt = np.minimum(g["ms"], nb)
    rest_t = g["ms"] // nt
    qt = np.minimum(rest_t, qb)
    pt = rest_t // qt
    ok &= (nt * pt * qt == g["ms"]) & (pt <= pb)

    vi = np.flatnonzero(ok)
    cols = {
        "kt": g["ns"][vi], "pt": pt[vi], "qt": qt[vi], "nt": nt[vi],
        "kb": g["nl"][vi], "pb": pb[vi], "qb": qb[vi], "nb": nb[vi],
        "u": g["u"][vi], "cs": g["ks"][vi], "cl": g["kl"][vi],
        "cg": g["kg"][vi], "vec": g["vec"][vi], "db": g["db"][vi],
    }
    first = _dedup_first_rows(cols)
    deduped = {n: c[first] for n, c in cols.items()}
    legal = conv_legal_mask(device, deduped, shape.dtype)
    li = np.flatnonzero(legal)
    params = {n: np.ascontiguousarray(c[li]) for n, c in deduped.items()}
    return CandidateRecord(
        op="conv", params=params, space_params=_bucket_space_params()
    )


def conv_candidates_batch(
    device: DeviceSpec, shape: ConvShape
) -> tuple[list[ConvConfig], np.ndarray]:
    """Candidates + log-feature matrix for one shape, via the bucket cache.

    Bit-identical to ``conv_candidates`` followed by the op's
    ``config_matrix`` (same candidates, same order, same float64 bits),
    but generated as array arithmetic and shared by every shape with the
    same :func:`conv_bucket_key`.  Thread-safe: concurrent queries
    generate each bucket once.
    """
    key = conv_bucket_key(device, shape)
    rec = _BUCKET_CACHE.get(
        key,
        lambda: _generate_bucket(device, shape),
        # Buckets persisted before a GEMM_SPACE/CONV_SPACE edit must
        # regenerate — their contents derive from both spaces.
        validate=lambda r: (
            r.space_params is None
            or r.space_params == _bucket_space_params()
        ),
    )
    if not rec.configs:
        raise RuntimeError(f"no CONV candidate for {shape} on {device.name}")
    return rec.configs, rec.matrix


def canonical_bucket_key(key: Sequence) -> tuple[str, str, str, int, int]:
    """The key a stored bucket record is cached and looked up under.

    A record saved under an older, finer key (one per pow2 extent pair)
    maps to the key of its tile factorization; a canonical key maps to
    itself.
    """
    op, device, dtype, n, q = key
    return (op, device, dtype, *_canonical_extents(n, q))


def seed_bucket_record(
    key: Hashable,
    params: Mapping[str, np.ndarray],
    space_params: tuple | None = None,
) -> bool:
    """Publish a stored bucket (candidate-store load); True if kept.

    The record is seeded under its canonical key, which is the only key
    searches look up; when that key is already held, the duplicate is
    dropped.
    """
    return _BUCKET_CACHE.seed(
        canonical_bucket_key(key),
        CandidateRecord(
            op="conv", params=dict(params), space_params=space_params
        ),
    )


def bucket_cache_snapshot() -> dict[Hashable, CandidateRecord]:
    """Current bucket records (for the on-disk candidate store)."""
    return _BUCKET_CACHE.snapshot()


def clear_bucket_cache() -> None:
    _BUCKET_CACHE.clear()
