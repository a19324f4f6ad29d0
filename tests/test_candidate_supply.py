"""The candidate supply holds only what the search reads.

GEMM and bgemm enumerate X̂ in blocks, so no set-up holds X̂'s columns at
once; a CONV bucket holds its per-tile split rows, and the search never
derives its full log-feature matrix.  A search holds no array of one row
per candidate: every pass computes the first-layer rows it reads, float64
rows of ``A`` or stage 1's float32 products, and those rows are the bits
of one whole-set product.  The blocked enumeration and the first-layer
rows are held to the one-shot forms they replaced (``tests/oracles.py``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.batched import BatchedGemmShape
from repro.core.space import GEMM_SPACE, ParamSpace
from repro.core.tuner import Isaac
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import GTX_980_TI, TESLA_P100
from repro.inference import conv_search, partition, search
from repro.inference.search import (
    _CHUNK_ROWS,
    CandidateRecord,
    ExhaustiveSearch,
    _FoldedMLP,
    legal_record,
)
from repro.mlp.crossval import FitResult
from repro.mlp.serialize import fit_from_bytes, fit_to_bytes
from tests.conftest import TINY_GEMM_SPACE
from tests.oracles import (
    enumeration_one_shot,
    first_layer_whole_set,
    stage1_first_layer_whole_set,
)

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


def _held_arrays(root) -> list[np.ndarray]:
    """Every array ``root`` holds through attributes, slots, dicts and
    sequences; candidate records (the module-wide supply every search
    reads) and the fit (the model) are not the search's own."""
    out, stack, seen = [], [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (CandidateRecord, conv_search.ConvBucket, FitResult)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(
                getattr(obj, name) for name in getattr(obj, "__slots__", ())
                if hasattr(obj, name)
            )
    return out


def _rows_per_candidate(search) -> list[tuple]:
    """Shapes of the arrays ``search`` holds with one row per GEMM
    candidate (P100/FP32)."""
    n = len(legal_record(TESLA_P100, DType.FP32).configs)
    return [
        (a.dtype, a.shape) for a in _held_arrays(search)
        if a.ndim and len(a) == n
    ]


def test_a_search_holds_no_float64_row_per_candidate(trained_gemm_tuner):
    """After calibration and a batched search, a GEMM search holds no
    array of one row per candidate, of any dtype: not ``A`` (float64,
    ~39 MiB) nor its float32 twin (~20 MiB)."""
    fresh = ExhaustiveSearch(trained_gemm_tuner.fit_result, TESLA_P100)
    fresh.calibrate_cascade((DType.FP32,))
    shapes = [
        GemmShape(1000, 24, 3000, DType.FP32, False, False),
        GemmShape(77, 900, 4096, DType.FP32, True, False),
    ]
    assert [len(t) for t in fresh.top_k_batch(shapes, 8)] == [8, 8]
    assert fresh.cascade_stats.cascade_queries == len(shapes)
    assert fresh._terms  # the term is there, as where rows are read
    assert _rows_per_candidate(fresh) == []


@pytest.mark.parametrize("how", ["cascade-off", "uncalibrated"])
def test_an_exhaustive_search_holds_no_row_per_candidate(
    trained_gemm_tuner, how
):
    """A search that never runs stage 1 — the cascade switched off, or a
    fit without margins — holds nothing stage 1 would read either."""
    fit = trained_gemm_tuner.fit_result
    if how == "uncalibrated":
        fit = fit_from_bytes(fit_to_bytes(fit))
        fit.cascade = None
    fresh = ExhaustiveSearch(
        fit, TESLA_P100, cascade=how != "cascade-off"
    )
    shape = GemmShape(1000, 24, 3000, DType.FP32, False, False)
    assert len(fresh.top_k(shape, 8)) == 8
    assert fresh._cascade_state() is None
    assert fresh.cascade_stats.exhaustive_queries == 1
    assert _rows_per_candidate(fresh) == []


def test_swap_build_and_calibration_peaks_below_16_mib(trained_gemm_tuner):
    """What a hot swap builds off the tuner lock — ``Isaac.from_fit`` of
    the update's fit and its margins — allocates per-chunk rows and
    one calibration shape's score rows (~9 MiB), never a float32 twin
    of ``A`` (~20 MiB: a 29 MiB peak) or a whole-set float64 ``A``
    (~39 MiB: 79 MiB)."""
    legal_record(TESLA_P100, DType.FP32)  # the shared supply, built once
    fit = fit_from_bytes(fit_to_bytes(trained_gemm_tuner.fit_result))
    calibration, peak, _ = _traced(lambda: Isaac.from_fit(
        TESLA_P100, "gemm", fit, dtypes=(DType.FP32,)
    ).calibrate_cascade())
    assert calibration.margins["FP32"] > 0
    assert peak < 16 * MIB, peak / MIB


# ----------------------------------------------------------------------
# First-layer rows are the whole-set product's bits
# ----------------------------------------------------------------------

_TUNERS = {
    "gemm": "trained_gemm_tuner",
    "conv": "small_conv_tuner",
    "bgemm": "small_bgemm_tuner",
}

_SHAPES = {
    "gemm": GemmShape(1000, 24, 3000, DType.FP32, False, False),
    "conv": _conv(8, 8),
    "bgemm": BatchedGemmShape(batch=8, base=GemmShape(256, 32, 512)),
}


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_first_layer_rows_equal_the_whole_set_product(
    op, width, request, monkeypatch
):
    """At scoring widths 1 and 2, every first-layer row a pass computes
    is a whole-set product's row: stage 1's float32 ``x W1'`` in each
    chunk of a stage-1 pass, and the float64 ``A`` in each chunk of the
    exhaustive pass, its tail included, and each shortlist gather, a
    one-row gather included."""
    tuner = request.getfixturevalue(_TUNERS[op])
    monkeypatch.setattr(partition, "scoring_width", lambda: width)
    fresh = ExhaustiveSearch(tuner.fit_result, TESLA_P100, op)
    shape = _SHAPES[op]
    term = fresh._candidate_set(shape).term
    want = first_layer_whole_set(fresh, shape)
    want_lo = stage1_first_layer_whole_set(fresh, shape)
    n = len(want)
    assert want_lo.dtype == np.float32 and want_lo.shape == want.shape

    chunks = {}
    score_chunks = search._score_chunks

    def spy_chunks(n, starts, consts, out, widths, chunk_rows, score):
        def rows(c, e, bufs):
            chunks[c, e] = chunk_rows(c, e, bufs).copy()
            return chunks[c, e]

        score_chunks(n, starts, consts, out, widths, rows, score)

    cas = search._Cascade(fresh._folded, {})
    c1 = fresh._first_layer(fresh._candidate_set(shape), shape)
    with monkeypatch.context() as m:
        m.setattr(search, "_score_chunks", spy_chunks)
        cas.proxies(term, [c1])
    stage1, chunks = chunks, {}
    for (c, e), rows in stage1.items():
        assert rows.dtype == np.float32
        assert np.array_equal(rows, want_lo[c:e]), (c, e)

    gathers = []
    a_rows = _FoldedMLP.a_rows

    def spy_gathers(self, term, rows, out=None):
        a = a_rows(self, term, rows, out)
        if isinstance(rows, np.ndarray):
            gathers.append((rows, a.copy()))
        return a

    with monkeypatch.context() as m:
        m.setattr(search, "_score_chunks", spy_chunks)
        fresh.predictions(shape)
    with monkeypatch.context() as m:
        m.setattr(_FoldedMLP, "a_rows", spy_gathers)
        assert len(fresh.top_k(shape, 8)) == 8
    assert fresh.cascade_stats.cascade_queries == 1
    cuts = sorted(chunks)
    assert cuts[0][0] == 0 and cuts[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
    assert (n - cuts[-1][0]) % _CHUNK_ROWS  # a tail chunk
    assert sorted(stage1) == cuts  # stage 1 walks the same grid
    for (c, e), rows in chunks.items():
        assert np.array_equal(rows, want[c:e]), (c, e)
    ((shortlist, got),) = gathers
    assert np.array_equal(got, want[shortlist])
    rng = np.random.default_rng(3)
    w1, _ = fresh._folded.stage1_layer(term.columns)
    for size in (1, 2, 3, 257, _CHUNK_ROWS + 1):
        rows = np.sort(rng.choice(n, size, replace=False))
        got = fresh._folded.a_rows(term, rows)
        assert np.array_equal(got, want[rows]), size
        got = search._Cascade.stage1_rows(term, rows, w1)
        assert np.array_equal(got, want_lo[rows]), size


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
