"""The two-stage cascade search: provable parity, fallbacks, hot-swaps.

The cascade's whole contract is *bit-identical top-k for less time*:
stage 1 scores every candidate with the full model in float32, prunes to
a shortlist padded by an offline-calibrated margin, and stage 2 re-scores
only the shortlist in float64.  These tests pin the three legs:

* **parity** — cascade top-k equals exhaustive top-k exactly (configs
  *and* predicted TFLOPS) for gemm/conv/bgemm, single and batched,
  across hypothesis-random shapes and k;
* **safety fallbacks** — an uncalibrated fit, a stale weights digest
  (new weights, or a margin measured against an older stage-1 form), a
  fit whose layers stage 1 cannot threshold, a failed query-time margin
  check, or a too-small candidate set each force the exhaustive path
  (correct answers, counted fallbacks), never a silently wrong
  shortlist;
* **hot-swap regression** — an online fine-tune installs a search over
  the new fit whose margins were measured for the new weights before
  the lock is taken, so mid-traffic swaps can never serve stale-margin
  results; the worker tier re-arms from the broadcast fit bytes alone.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batched import BatchedGemmShape
from repro.core.tuner import Isaac
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.inference import search as search_module
from repro.mlp.crossval import CascadeCalibration
from repro.mlp import serialize
from repro.mlp.layers import ACTIVATIONS
from repro.mlp.serialize import (
    fit_from_bytes,
    fit_to_bytes,
    fit_weights_digest,
)
from repro.service.engine import Engine, KernelRequest, WorkerEngine
from repro.service.online import OnlineConfig
from repro.workloads.networks import NetworkStep
from tests.oracles import predictions_reference

DEVICE = TESLA_P100.name

_DIMS = st.sampled_from([16, 32, 48, 64, 128, 256, 512, 1024, 2560])


@st.composite
def gemm_shapes(draw) -> GemmShape:
    return GemmShape(
        m=draw(_DIMS),
        n=draw(_DIMS),
        k=draw(_DIMS),
        dtype=DType.FP32,
        ta=draw(st.booleans()),
        tb=draw(st.booleans()),
    )


def _tops_equal(a, b) -> bool:
    """Exact (config, predicted) equality — the bit-identity contract."""
    return len(a) == len(b) and all(
        x.config == y.config and x.predicted_tflops == y.predicted_tflops
        for x, y in zip(a, b)
    )


def _cascade_vs_exhaustive(tuner, shapes, k):
    """Run top_k + top_k_batch both ways on one searcher; return pairs."""
    search = tuner.searcher
    try:
        search.set_cascade(True)
        cas_single = [tuner.top_k(s, k) for s in shapes]
        cas_batch = tuner.top_k_batch(list(shapes), k)
        search.set_cascade(False)
        exh_single = [tuner.top_k(s, k) for s in shapes]
        exh_batch = tuner.top_k_batch(list(shapes), k)
    finally:
        search.set_cascade(True)
    return cas_single, cas_batch, exh_single, exh_batch


# ----------------------------------------------------------------------
# Parity: cascade == exhaustive, exactly
# ----------------------------------------------------------------------

@given(shape=gemm_shapes(), k=st.sampled_from([1, 7, 60, 300]))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_gemm_cascade_parity_random_shapes(trained_gemm_tuner, shape, k):
    """Hypothesis: any legal shape, any k — identical top-k both ways."""
    cas_s, cas_b, exh_s, exh_b = _cascade_vs_exhaustive(
        trained_gemm_tuner, [shape], k
    )
    assert _tops_equal(cas_s[0], exh_s[0])
    assert _tops_equal(cas_b[0], exh_b[0])
    assert _tops_equal(cas_s[0], cas_b[0])


def _golden_shapes(op: str):
    if op == "gemm":
        return [
            GemmShape(2560, 16, 2560, DType.FP32, False, False),
            GemmShape(512, 512, 512, DType.FP32, False, True),
            GemmShape(32, 32, 60000, DType.FP32, False, True),
        ]
    if op == "conv":
        return [
            ConvShape.from_output(n=2, p=6, q=6, k=16, c=8, r=3, s=3),
            ConvShape.from_output(n=4, p=12, q=12, k=64, c=32, r=3, s=3),
        ]
    return [
        BatchedGemmShape(batch=16, base=GemmShape(64, 64, 128)),
        BatchedGemmShape(batch=64, base=GemmShape(128, 96, 256)),
    ]


@pytest.mark.parametrize("op", ["gemm", "conv", "bgemm"])
def test_golden_shortlist_parity_all_ops(
    op, trained_gemm_tuner, small_conv_tuner, small_bgemm_tuner
):
    """Fixed shapes per op: the cascade engages (prunes > 90%) and its
    top-k — single and batched — matches the exhaustive reference."""
    tuner = {"gemm": trained_gemm_tuner, "conv": small_conv_tuner,
             "bgemm": small_bgemm_tuner}[op]
    shapes = _golden_shapes(op)
    stats = tuner.searcher.cascade_stats
    before = stats.cascade_queries
    fallbacks_before = stats.fallbacks
    pruned_before = stats.pruned
    cas_s, cas_b, exh_s, exh_b = _cascade_vs_exhaustive(tuner, shapes, 25)
    for c, e in zip(cas_s, exh_s):
        assert _tops_equal(c, e)
    for c, e in zip(cas_b, exh_b):
        assert _tops_equal(c, e)
    # The shortlist path actually served these (not a silent fallback) …
    assert stats.cascade_queries >= before + 2 * len(shapes)
    assert stats.fallbacks == fallbacks_before
    # … and it pruned candidates while doing so.
    assert stats.pruned > pruned_before
    # Stage 2 also reproduces the unfolded reference ranking: the top-k
    # scores come from the same prediction vector (within the folded
    # path's regression tolerance, see test_ops_registry).
    ref = predictions_reference(tuner.searcher, shapes[0])
    want = np.sort(ref)[-25:][::-1]
    got = np.array([p.predicted_tflops for p in cas_s[0]])
    np.testing.assert_allclose(np.log2(got), want, rtol=0, atol=2e-9)


# ----------------------------------------------------------------------
# Safety fallbacks: wrong state must mean exhaustive, never wrong
# ----------------------------------------------------------------------

def _tiny_tuner() -> Isaac:
    """A mutable tiny-budget tuner (session fixtures are off limits for
    weight mutation and calibration stripping)."""
    tuner = Isaac(TESLA_P100, op="gemm", dtypes=(DType.FP32,))
    tuner.tune(n_samples=900, seed=7, epochs=8, generative_target=80)
    return tuner


@pytest.fixture(scope="module")
def mutable_tuner() -> Isaac:
    return _tiny_tuner()


def test_uncalibrated_fit_searches_exhaustively(mutable_tuner):
    shape = GemmShape(256, 64, 256, DType.FP32, False, True)
    search = mutable_tuner.searcher
    calib = mutable_tuner.fit_result.cascade
    assert calib is not None
    want = mutable_tuner.top_k(shape, 10)
    try:
        mutable_tuner.fit_result.cascade = None
        before = search.cascade_stats.exhaustive_queries
        got = mutable_tuner.top_k(shape, 10)
        assert search.cascade_stats.exhaustive_queries == before + 1
        assert _tops_equal(got, want)
    finally:
        mutable_tuner.fit_result.cascade = calib


def test_corrupted_margin_trips_runtime_fallback(mutable_tuner):
    """A margin far too small fails the query-time observed-margin check:
    the query falls back to exhaustive and still answers correctly."""
    shape = GemmShape(320, 96, 512, DType.FP32, False, True)
    search = mutable_tuner.searcher
    calib = mutable_tuner.fit_result.cascade
    want = mutable_tuner.top_k(shape, 10)
    try:
        mutable_tuner.fit_result.cascade = CascadeCalibration(
            margins={k: 1e-14 for k in calib.margins},
            weights_digest=calib.weights_digest,
            n_shapes=calib.n_shapes,
            safety=calib.safety,
        )
        before = search.cascade_stats.fallbacks
        got = mutable_tuner.top_k(shape, 10)
        assert search.cascade_stats.fallbacks == before + 1
        assert _tops_equal(got, want)
    finally:
        mutable_tuner.fit_result.cascade = calib


def test_stale_weights_digest_disarms_until_recalibration(mutable_tuner):
    """In-place weight mutation (pruning, say) must disarm the cascade —
    the old margins hashed different weights — and a fresh calibration
    must re-arm it, still bit-identical."""
    shape = GemmShape(448, 64, 448, DType.FP32, False, True)
    search = mutable_tuner.searcher
    stats = search.cascade_stats
    layer = mutable_tuner.fit_result.model.layers[1]
    original = layer.w.copy()
    try:
        layer.w += 1e-4
        assert (mutable_tuner.fit_result.cascade.weights_digest
                != fit_weights_digest(mutable_tuner.fit_result))
        before_cas = stats.cascade_queries
        before_exh = stats.exhaustive_queries
        got = mutable_tuner.top_k(shape, 10)
        assert stats.cascade_queries == before_cas
        assert stats.exhaustive_queries == before_exh + 1
        # Recalibrate for the mutated weights: the cascade re-arms and
        # agrees with the exhaustive ranking of the *new* model.
        mutable_tuner.calibrate_cascade()
        cas = mutable_tuner.top_k(shape, 10)
        assert stats.cascade_queries == before_cas + 1
        assert _tops_equal(cas, got)
    finally:
        layer.w[:] = original
        mutable_tuner.calibrate_cascade()


def _add_then_clamp_digest(fit) -> str:
    """The digest calibrations carried while stage 1 added each shape
    term and bias and then clamped: the same fields, no stage-1 form."""
    h = hashlib.blake2b(digest_size=16)
    for layer in fit.model.layers:
        h.update(np.ascontiguousarray(layer.w, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(layer.b, dtype=np.float64).tobytes())
    for stat in (fit.x_scaler.mean_, fit.x_scaler.scale_):
        h.update(np.ascontiguousarray(stat, dtype=np.float64).tobytes())
    h.update(np.float64(fit.y_scaler.mean_).tobytes())
    h.update(np.float64(fit.y_scaler.scale_).tobytes())
    return h.hexdigest()


#: The stage-1 form calibrations carried while each CONV bucket scored
#: its own prescaled term, one shape constant per set.
_PER_SET_FORM = b"cascade stage 1: thresholded ReLU layers"


def _per_set_form_digest(fit, monkeypatch) -> str:
    with monkeypatch.context() as m:
        m.setattr(serialize, "_STAGE1_FORM", _PER_SET_FORM)
        return fit_weights_digest(fit)


def test_margin_of_the_previous_stage1_form_never_arms(
    mutable_tuner, tmp_path, monkeypatch
):
    """A margin measured against an older stage-1 form (per-set terms,
    or add-then-clamp before it) sized another proxy's rounding: the fit
    searches exhaustively (same top-k, counted) until warmup
    recalibrates it and re-saves it."""
    shape = GemmShape(288, 64, 288, DType.FP32, False, True)
    search = mutable_tuner.searcher
    stats = search.cascade_stats
    fit = mutable_tuner.fit_result
    calib = fit.cascade
    assert serialize._STAGE1_FORM != _PER_SET_FORM
    older = [_add_then_clamp_digest(fit),
             _per_set_form_digest(fit, monkeypatch)]
    assert calib.weights_digest not in older
    before_cas = stats.cascade_queries
    want = mutable_tuner.top_k(shape, 10)
    assert stats.cascade_queries == before_cas + 1
    # The digest hashes the stage-1 form: another form disarms too.
    with monkeypatch.context() as m:
        m.setattr(serialize, "_STAGE1_FORM", b"another stage 1")
        assert fit_weights_digest(fit) != calib.weights_digest
    try:
        for digest in older:
            fit.cascade = CascadeCalibration(
                margins=dict(calib.margins),
                weights_digest=digest,
                n_shapes=calib.n_shapes,
                safety=calib.safety,
            )
            before_exh = stats.exhaustive_queries
            got = mutable_tuner.top_k(shape, 10)
            assert stats.exhaustive_queries == before_exh + 1
            assert stats.cascade_queries == before_cas + 1
            assert _tops_equal(got, want)
        path = tmp_path / "older-form.npz"
        mutable_tuner.save(path)  # carries the per-set form's digest
    finally:
        fit.cascade = calib

    step = NetworkStep("probe", "one gemm", (("gemm", _shape(232)),))
    with Engine.open(tmp_path) as engine:
        engine.warmup(step, k=5, reps=1)
        loaded = engine._tuner(DEVICE, "gemm").fit_result
        assert loaded.cascade.weights_digest == fit_weights_digest(loaded)
        assert loaded.cascade.margins
        assert engine.stats().cascade_searches == 1
        assert engine.stats().exhaustive_searches == 0
    saved = fit_from_bytes(path.read_bytes())
    assert saved.cascade.weights_digest == fit_weights_digest(saved)


def test_tanh_fit_never_arms_the_cascade(mutable_tuner, tmp_path):
    """Stage 1 thresholds ReLU layers only: a tanh fit loaded from disk
    searches exhaustively, whatever margins it carries, and warmup arms
    nothing."""
    fit = fit_from_bytes(fit_to_bytes(mutable_tuner.fit_result))
    for layer in fit.model.layers[:-1]:
        layer.activation = ACTIVATIONS["tanh"]
    path = tmp_path / "tanh.npz"
    Isaac.from_fit(TESLA_P100, "gemm", fit,
                   dtypes=mutable_tuner.dtypes).save(path)
    tuner = Isaac.load(path)
    tanh_fit = tuner.fit_result
    assert all(lyr.activation.name == "tanh"
               for lyr in tanh_fit.model.layers[:-1])
    # The ReLU fit's margins came along, but the digest hashes the
    # activations: they do not arm the tanh network.
    assert tanh_fit.cascade.weights_digest != fit_weights_digest(tanh_fit)
    stats = tuner.searcher.cascade_stats
    shape = GemmShape(320, 64, 320, DType.FP32, False, True)
    got = tuner.top_k(shape, 10)
    assert stats.cascade_queries == 0 and stats.exhaustive_queries == 1
    # Nor does a calibration that matches the digest: stage 1 has no
    # thresholded form of a tanh layer to prune with.
    relu_calib = tanh_fit.cascade
    tanh_fit.cascade = CascadeCalibration(
        margins=dict(relu_calib.margins),
        weights_digest=fit_weights_digest(tanh_fit),
    )
    assert _tops_equal(tuner.top_k(shape, 10), got)
    assert tuner.calibrate_cascade().margins == {}
    assert _tops_equal(tuner.top_k(shape, 10), got)
    assert stats.cascade_queries == 0 and stats.exhaustive_queries == 3
    assert stats.fallbacks == 0  # stage 1 never ran

    step = NetworkStep("probe", "one gemm", (("gemm", _shape(248)),))
    with Engine.open(tmp_path) as engine:
        assert not engine.ensure_cascade(DEVICE, "gemm")
        engine.warmup(step, k=5, reps=1)
        assert engine.stats().cascade_searches == 0
        assert engine.stats().exhaustive_searches == 1


def test_tiny_candidate_set_skips_cascade(mutable_tuner):
    """keep within 4x of the set size: two passes cost more than one."""
    shape = GemmShape(128, 64, 128, DType.FP32, False, True)
    search = mutable_tuner.searcher
    n = len(search._candidate_set(shape).configs)
    try:
        search.set_cascade(True, keep=n)  # keep * 4 >= n
        before = search.cascade_stats.exhaustive_queries
        mutable_tuner.top_k(shape, 5)
        assert search.cascade_stats.exhaustive_queries == before + 1
    finally:
        search.set_cascade(True, keep=256)


# ----------------------------------------------------------------------
# Serialization: margins ride the fit bytes, back-compat intact
# ----------------------------------------------------------------------

def test_calibration_round_trips_through_fit_bytes(mutable_tuner):
    fit = mutable_tuner.fit_result
    restored = fit_from_bytes(fit_to_bytes(fit))
    assert restored.cascade is not None
    assert restored.cascade.margins == fit.cascade.margins
    assert restored.cascade.weights_digest == fit.cascade.weights_digest
    assert restored.cascade.n_shapes == fit.cascade.n_shapes
    assert restored.cascade.safety == fit.cascade.safety
    # The restored digest still matches the restored weights: a rebuilt
    # search (worker boot) arms itself from the bytes alone.
    assert restored.cascade.weights_digest == fit_weights_digest(restored)


def test_uncalibrated_fit_bytes_stay_backward_compatible(mutable_tuner):
    """Fits without a calibration (pre-cascade stores) serialize without
    the optional header and load with ``cascade=None``."""
    fit = mutable_tuner.fit_result
    calib = fit.cascade
    try:
        fit.cascade = None
        restored = fit_from_bytes(fit_to_bytes(fit))
        assert restored.cascade is None
    finally:
        fit.cascade = calib


# ----------------------------------------------------------------------
# Engine integration: hot-swaps mid-traffic, policy knobs, warmup
# ----------------------------------------------------------------------

def _shape(m, n=128, k=256) -> GemmShape:
    return GemmShape(m, n, k, DType.FP32, False, True)


def test_hot_swap_mid_traffic_never_serves_stale_margins():
    """The PR 7 regression: queries before, between and after online
    hot-swaps — every swap drops the old margins and recalibrates, so
    the cascade stays armed with fresh ones and never trips a fallback
    (a stale margin would either disarm it or fail the runtime check)."""
    engine = Engine(
        online=OnlineConfig(update_every=8, epochs=2, anchor_size=64,
                            batch_size=32),
        max_workers=0,
    )
    engine.register(_tiny_tuner())
    tuner = engine._tuner(DEVICE, "gemm")
    swaps = 0
    for m in (256, 288, 320, 352, 384):
        reply = engine.query(
            KernelRequest("gemm", _shape(m), k=10, reps=2)
        )
        assert reply.source == "search"
        updates = engine.run_online_updates()
        if updates:
            swaps += len(updates)
            fit = tuner.fit_result
            # The swapped-in fit carries margins for its own weights …
            assert fit.cascade is not None
            assert fit.cascade.weights_digest == fit_weights_digest(fit)
    assert swaps >= 1
    stats = engine.stats()
    assert stats.model_swaps == swaps
    assert stats.cascade_searches == 5
    assert stats.exhaustive_searches == 0
    assert stats.cascade_fallbacks == 0
    # … and the post-swap answers equal a clone built from the exported
    # bytes (margins included): the served state is exactly the bytes.
    blob, dtype_names = engine.export_fits([(DEVICE, "gemm")])[
        (DEVICE, "gemm")
    ]
    clone = Isaac.from_fit(
        TESLA_P100, "gemm", fit_from_bytes(blob),
        dtypes=tuple(DType[n] for n in dtype_names),
    )
    probe = _shape(500)
    reply = engine.query(KernelRequest("gemm", probe, k=10, reps=2))
    best = clone.best_kernel(probe, k=10, reps=2)
    assert reply.config == best.config
    assert clone.searcher.cascade_stats.cascade_queries == 1
    engine.close()


def test_hot_swap_calibrates_outside_the_tuner_lock(monkeypatch):
    """A hot-swap measures the new weights' margins before it takes the
    tuner lock, so no search waits on a recalibration.  The swap attaches
    exactly the margins an in-place recalibration measures, and the
    float32 twins they were measured on: the first post-swap search
    cascades without building a twin or a whole-set first-layer pass."""
    engine = Engine(
        online=OnlineConfig(update_every=8, epochs=2, anchor_size=64,
                            batch_size=32),
        max_workers=0,
    )
    engine.register(_tiny_tuner())
    tuner = engine._tuner(DEVICE, "gemm")
    lock = engine._tuner_locks[(DEVICE, "gemm")]
    held = []
    calibrate = Isaac.calibrate_cascade

    def spy_calibrate(self, **kwargs):
        held.append(lock.locked())
        return calibrate(self, **kwargs)

    monkeypatch.setattr(Isaac, "calibrate_cascade", spy_calibrate)
    updates = []
    for m in (256, 288, 320, 352, 384):
        engine.query(KernelRequest("gemm", _shape(m), k=10, reps=2))
        updates = engine.run_online_updates()
        if updates:
            break
    assert updates
    assert held and not any(held)
    fit = tuner.fit_result
    assert fit.cascade.weights_digest == fit_weights_digest(fit)

    twins = []
    twin = search_module.ExhaustiveSearch._twin

    def spy_twin(self, term, shape):
        twins.append(shape)
        return twin(self, term, shape)

    computed = []
    a_rows = search_module._FoldedMLP.a_rows

    def spy_a_rows(self, term, rows, out=None):
        a = a_rows(self, term, rows, out)
        computed.append(len(a))
        return a

    monkeypatch.setattr(search_module.ExhaustiveSearch, "_twin", spy_twin)
    monkeypatch.setattr(search_module._FoldedMLP, "a_rows", spy_a_rows)
    before = engine.stats()
    engine.query(KernelRequest("gemm", _shape(500), k=10, reps=2))
    after = engine.stats()
    assert twins == []
    # Stage 2's one shortlist gather, never the whole set.
    n = len(tuner.searcher._candidate_set(_shape(500)).configs)
    assert len(computed) == 1 and computed[0] < n
    assert after.cascade_searches == before.cascade_searches + 1
    assert after.cascade_fallbacks == before.cascade_fallbacks
    margins = dict(fit.cascade.margins)
    assert tuner.calibrate_cascade().margins == margins
    engine.close()


def test_hot_swap_installs_a_search_and_leaves_the_served_fit():
    """A swap installs the update's fit with a search of its own: the fit
    that served before keeps its weights and margins, and the engine's
    cascade counters keep counting across the swap."""
    engine = Engine(
        online=OnlineConfig(update_every=8, epochs=2, anchor_size=64,
                            batch_size=32),
        max_workers=0,
    )
    engine.register(_tiny_tuner())
    tuner = engine._tuner(DEVICE, "gemm")
    served, search = tuner.fit_result, tuner.searcher
    weights = served.model.get_weights()
    calib = served.cascade
    updates = []
    for m in (256, 288, 320, 352, 384):
        engine.query(KernelRequest("gemm", _shape(m), k=10, reps=2))
        updates = engine.run_online_updates()
        if updates:
            break
    assert updates
    assert all(
        np.array_equal(a, b)
        for a, b in zip(served.model.get_weights(), weights)
    )
    assert served.cascade is calib
    assert tuner.fit_result is updates[-1].fit
    assert tuner.searcher is not search
    before = engine.stats().cascade_searches
    assert before >= 1
    engine.query(KernelRequest("gemm", _shape(500), k=10, reps=2))
    assert engine.stats().cascade_searches == before + 1
    engine.close()


def test_engine_cascade_disabled_and_keep_override(mutable_tuner):
    try:
        stats = mutable_tuner.searcher.cascade_stats
        engine = Engine(cascade=False, max_workers=0)
        engine.register(mutable_tuner)
        before_cas, before_exh = stats.cascade_queries, stats.exhaustive_queries
        engine.query(KernelRequest("gemm", _shape(200), k=5, reps=1))
        assert stats.exhaustive_queries == before_exh + 1
        assert stats.cascade_queries == before_cas
        # The engine-level counters mirror the searcher's.
        assert engine.stats().exhaustive_searches == stats.exhaustive_queries
        engine.close()

        engine2 = Engine(cascade=True, cascade_keep=64, max_workers=0)
        engine2.register(mutable_tuner)
        assert mutable_tuner.searcher._cascade_keep == 64
        before = mutable_tuner.searcher.cascade_stats.cascade_queries
        engine2.query(KernelRequest("gemm", _shape(208), k=5, reps=1))
        assert (mutable_tuner.searcher.cascade_stats.cascade_queries
                == before + 1)
        assert (engine2.stats().cascade_searches
                == mutable_tuner.searcher.cascade_stats.cascade_queries)
        engine2.close()
    finally:
        # register() applies engine policy to the shared module tuner.
        mutable_tuner.searcher.set_cascade(True, keep=256)


def test_warmup_calibrates_and_persists_legacy_store(tmp_path):
    """A model store saved before the cascade existed: ``ensure_cascade``
    (the warmup path) calibrates the loaded fit and re-saves it, so the
    next process boots already armed."""
    tuner = _tiny_tuner()
    tuner.fit_result.cascade = None  # a pre-cascade fit on disk
    path = tmp_path / "legacy.npz"
    tuner.save(path)
    assert fit_from_bytes(path.read_bytes()).cascade is None

    with Engine.open(tmp_path) as engine:
        assert engine.ensure_cascade(DEVICE, "gemm")
        loaded = engine._tuner(DEVICE, "gemm")
        assert loaded.fit_result.cascade is not None
        reply = engine.query(
            KernelRequest("gemm", _shape(224), k=5, reps=1)
        )
        assert reply.source == "search"
        assert engine.stats().cascade_searches == 1
    # Persisted: a second open is calibrated without recalibrating.
    assert fit_from_bytes(path.read_bytes()).cascade is not None


# ----------------------------------------------------------------------
# Worker tier: cascade state ships zero-copy, policy follows the parent
# ----------------------------------------------------------------------

def test_worker_state_ships_and_adopts_cascade(trained_gemm_tuner):
    engine = Engine(max_workers=0)
    engine.register(trained_gemm_tuner)
    shape = GemmShape(96, 64, 96, DType.FP32, False, True)
    want = engine.query(KernelRequest("gemm", shape, k=8, reps=2))
    state = engine.export_worker_state()
    assert state.cascade_enabled
    twins = [term["lo"] for term in state.terms if term["lo"] is not None]
    assert len(twins) >= 1
    assert all(state.arrays[name].dtype == np.float32 for name in twins)

    worker = WorkerEngine(state, state.arrays)
    assert worker.adopted_terms == len(state.terms)
    ((ok, payload),) = worker.search_batch(DEVICE, "gemm", [shape], 8, 2)
    assert ok
    assert payload[0] == want.config
    assert payload[2] == want.measured_tflops
    assert worker.stats()["cascade_searches"] == 1
    assert worker.stats()["cascade_fallbacks"] == 0
    engine.close()


def test_worker_inherits_disabled_cascade_policy(trained_gemm_tuner):
    engine = Engine(max_workers=0, cascade=False)
    engine.register(trained_gemm_tuner)
    try:
        state = engine.export_worker_state()
        assert not state.cascade_enabled
        worker = WorkerEngine(state, state.arrays)
        shape = GemmShape(112, 64, 112, DType.FP32, False, True)
        ((ok, _),) = worker.search_batch(DEVICE, "gemm", [shape], 8, 2)
        assert ok
        assert worker.stats()["cascade_searches"] == 0
        assert worker.stats()["exhaustive_searches"] == 1
    finally:
        # register() flipped the shared session fixture's policy off.
        trained_gemm_tuner.searcher.set_cascade(True)
        engine.close()


def test_export_reads_fit_and_terms_under_the_pair_lock(
    trained_gemm_tuner, monkeypatch
):
    """A pool that boots while a search adds a term or a swap lands must
    ship one fit's bytes with that fit's terms: the export reads both
    with the pair's tuner lock held."""
    engine = Engine(max_workers=0)
    engine.register(trained_gemm_tuner)
    engine.query(KernelRequest("gemm", _shape(176), k=8, reps=2))
    lock = engine._tuner_locks[(DEVICE, "gemm")]
    held = []
    terms = search_module.ExhaustiveSearch.terms
    to_bytes = serialize.fit_to_bytes

    def spy_terms(self):
        held.append(("terms", lock.locked()))
        return terms(self)

    def spy_bytes(fit):
        held.append(("fit", lock.locked()))
        return to_bytes(fit)

    monkeypatch.setattr(search_module.ExhaustiveSearch, "terms", spy_terms)
    monkeypatch.setattr(serialize, "fit_to_bytes", spy_bytes)
    state = engine.export_worker_state()
    engine.close()
    assert held == [("fit", True), ("terms", True)]
    assert state.terms


def test_broadcast_drops_cascade_twins_for_updated_pairs():
    """After a hot-swap broadcast, the boot payload keeps no term of the
    updated pair — no float32 twin built from the old weights — so a
    respawned worker re-arms from the new fit bytes and rebuilds its
    twins lazily."""
    from repro.service.worker_pool import WorkerPool

    engine = Engine(
        online=OnlineConfig(update_every=4, epochs=2, anchor_size=64),
        max_workers=0,
    )
    engine.register(_tiny_tuner())
    engine.query(KernelRequest("gemm", _shape(96, 96, 96), k=8, reps=2))
    try:
        with WorkerPool(engine, 1) as pool:
            assert pool._boot.cascade_enabled
            assert any(t["lo"] is not None for t in pool._boot.terms)
            assert pool.ping(0)["adopted_terms"] >= 1

            engine.query(
                KernelRequest("gemm", _shape(224, 96, 224), k=8, reps=2)
            )
            assert engine.run_online_updates()
            fits = engine.export_fits([(DEVICE, "gemm")])
            assert pool.broadcast_fits(fits) == 1
            assert pool._boot.terms == []
            assert pool._boot.fits[(DEVICE, "gemm")] == fits[
                (DEVICE, "gemm")
            ]

            # The worker's rebuilt search armed itself from the shipped
            # calibration and serves the swap's answers via the cascade.
            shape = _shape(160, 80, 160)
            ((ok, payload),) = pool.submit_flush(
                0, DEVICE, "gemm", [shape], 8, 2
            ).result(timeout=300)
            assert ok
            want = engine._tuner(DEVICE, "gemm").best_kernel(
                shape, k=8, reps=2
            )
            assert payload[0] == want.config
            assert payload[2] == want.measured_tflops
            stats = pool.ping(0)
            assert stats["adopted_fits"] == 1
            assert stats["cascade_searches"] >= 1
            assert stats["cascade_fallbacks"] == 0
    finally:
        engine.close()
