"""The candidate supply holds only what the search reads.

GEMM and bgemm enumerate X̂ in blocks, so no set-up holds X̂'s columns at
once; a CONV bucket holds its per-tile split rows, and the search never
derives its full log-feature matrix.  The blocked enumeration is held to
the one-shot grid and mask it replaced (``tests/oracles.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.space import GEMM_SPACE, ParamSpace
from repro.core.types import ConvShape, DType
from repro.gpu.device import GTX_980_TI, TESLA_P100
from repro.inference import conv_search, search
from repro.inference.search import ExhaustiveSearch, legal_record
from tests.conftest import TINY_GEMM_SPACE
from tests.oracles import enumeration_one_shot

MIB = 1 << 20


@pytest.fixture
def cleared():
    """Empty process-wide candidate caches, before and after the test."""
    search.clear_cache()
    yield
    search.clear_cache()


def _traced(fn):
    """``fn()``'s result, its peak and its retained bytes (tracemalloc
    sees numpy's allocations)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, now - before


def _conv(n, q, dtype=DType.FP32):
    return ConvShape.from_output(
        n=n, p=7, q=q, k=64, c=64, r=3, s=3, dtype=dtype
    )


#: The 45 canonical (n', q') extents of L = 256.
_EXTENTS = [
    (1 << a, 1 << b) for a in range(9) for b in range(9) if a + b <= 8
]


# ----------------------------------------------------------------------
# Memory pins
# ----------------------------------------------------------------------

def test_gemm_enumeration_peaks_below_64_mib(cleared):
    """The GEMM enumeration of P100/FP32, survivors and matrix included,
    never holds X̂'s 1.89M-row columns (one-shot: ~348 MiB)."""
    rec, peak, _ = _traced(
        lambda: legal_record(TESLA_P100, DType.FP32, "gemm")
    )
    assert len(rec.configs) > 100_000
    assert peak < 64 * MIB, peak / MIB


def test_conv_buckets_hold_only_their_split_rows(cleared):
    """With the base built, one bucket keeps under 64 KiB and all 45 of
    one (device, dtype) under 2 MiB (a bucket with its matrix and split
    columns held ~20 MiB)."""
    conv_search.conv_candidates_batch(TESLA_P100, _conv(1, 1))  # the base
    _, _, one = _traced(
        lambda: conv_search.conv_candidates_batch(TESLA_P100, _conv(8, 8))
    )
    assert one < 64 * 1024, one
    _, _, every = _traced(lambda: [
        conv_search.conv_candidates_batch(TESLA_P100, _conv(n, q))
        for n, q in _EXTENTS
    ])
    assert len(conv_search._BUCKET_CACHE.snapshot()) == 45
    assert every < 2 * MIB, every / MIB


@pytest.mark.parametrize(
    "cascade", [True, False], ids=["cascade", "exhaustive"]
)
def test_search_never_derives_a_bucket_matrix(
    small_conv_tuner, monkeypatch, cascade
):
    """Calibration and batched searches over new buckets read the base's
    shared columns and each bucket's per-group rows, never a bucket's
    full matrix."""
    full = []
    features = conv_search.ConvBucket.features

    def spy(self, rows=None, columns=None):
        if columns is None:
            full.append(rows is None)
        return features(self, rows, columns)

    monkeypatch.setattr(conv_search.ConvBucket, "features", spy)
    conv_search.clear_bucket_cache()
    fit = small_conv_tuner.fit_result
    fresh = ExhaustiveSearch(fit, TESLA_P100, "conv", cascade=cascade)
    fresh.calibrate_cascade((DType.FP32,), n_shapes=2)
    shapes = [_conv(2, 64), _conv(16, 4), _conv(128, 2), _conv(4, 4)]
    before = len(conv_search._BUCKET_CACHE.snapshot())
    top = fresh.top_k_batch(shapes, k=8)
    assert len(conv_search._BUCKET_CACHE.snapshot()) - before >= 3
    assert [len(t) for t in top] == [8] * len(shapes)
    stats = fresh.cascade_stats
    if cascade:
        assert stats.cascade_queries >= 1
    else:
        assert stats.exhaustive_queries == len(shapes)
    assert full == []
    # The derivation the spy watches is the one ``candidates`` makes.
    fresh.candidates(shapes[0])
    assert full == [True]


# ----------------------------------------------------------------------
# The blocked enumeration equals the one-shot grid and mask
# ----------------------------------------------------------------------

def _assert_equals_one_shot(device, dtype, op, space):
    rec = legal_record(device, dtype, op, space)
    want = enumeration_one_shot(device, dtype, op, space)
    assert list(rec.params) == list(want) == list(space.names)
    for name, col in want.items():
        got = rec.params[name]
        assert got.dtype == col.dtype, name
        assert got.flags.c_contiguous, name
        assert np.array_equal(got, col), name
    assert rec.space_params == space.params


@pytest.mark.parametrize("op", ["gemm", "bgemm"])
@pytest.mark.parametrize(
    "device", [GTX_980_TI, TESLA_P100], ids=["maxwell", "pascal"]
)
@pytest.mark.parametrize("dtype", list(DType), ids=lambda d: d.name)
def test_blocked_enumeration_equals_one_shot(cleared, op, device, dtype):
    _assert_equals_one_shot(device, dtype, op, GEMM_SPACE)


def test_blocked_enumeration_of_the_tiny_space(cleared):
    _assert_equals_one_shot(GTX_980_TI, DType.FP32, "gemm", TINY_GEMM_SPACE)


#: GEMM's values, but ``kg`` (which GEMM legality never reads) last and
#: with 70,000 values: no block can split it, so each block exceeds the
#: row limit on its own.
_WIDE_INNER = ParamSpace(
    name="gemm-wide-inner",
    params=(
        ("ms", (4, 8)), ("ns", (4,)), ("ml", (64,)), ("nl", (64,)),
        ("u", (8,)), ("ks", (1,)), ("kl", (1, 2)), ("vec", (1,)),
        ("db", (1,)), ("kg", tuple(range(1, 70_001))),
    ),
)


def test_blocked_enumeration_past_the_row_limit(cleared):
    assert len(GEMM_SPACE.names) == len(_WIDE_INNER.names)
    sizes = [b.size for b in search._blocks(_WIDE_INNER)]
    assert sizes == [70_000] * 4 and 70_000 > search._ENUM_BLOCK_ROWS
    _assert_equals_one_shot(TESLA_P100, DType.FP32, "gemm", _WIDE_INNER)
    assert len(legal_record(TESLA_P100, DType.FP32, "gemm", _WIDE_INNER)
               .configs) > 0


def test_gemm_blocks_fix_the_three_leading_parameters():
    blocks = list(search._blocks(GEMM_SPACE))
    assert len(blocks) == 125
    assert {b.size for b in blocks} == {15_120}
    assert sum(b.size for b in blocks) == GEMM_SPACE.size
    first = blocks[0]
    assert [v for _, v in first.params[:3]] == [(1,), (1,), (16,)]
    assert first.params[3:] == GEMM_SPACE.params[3:]


def test_store_hit_guard_still_sees_every_block(cleared, monkeypatch):
    """The candidate-store tests forbid enumeration by patching
    ``ParamSpace.grid``; the blocked walk goes through it."""
    calls = []
    grid = ParamSpace.grid

    def spy(self):
        calls.append(self.size)
        return grid(self)

    monkeypatch.setattr(ParamSpace, "grid", spy)
    legal_record(TESLA_P100, DType.FP32, "gemm")
    assert len(calls) == 125 and sum(calls) == GEMM_SPACE.size
