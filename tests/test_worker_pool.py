"""The sharded worker tier: warm boot, routing, crash recovery.

The pool's contract has three legs and each gets hammered here:

* **zero-copy warm boot** — workers rebuild tuners from fit bytes and
  attach candidate columns / prescaled ``H0`` terms as views over one
  shared segment (the boot handshake reports the accounting);
* **determinism across processes** — a worker's answer for any request
  is config- and measurement-identical to the in-process search, even
  when two different workers answer the same batch;
* **crash recovery** — a worker hard-killed mid-flush is respawned
  against the same shared state and the job replayed, so callers see
  the identical result late rather than an error, and nothing leaks a
  stuck future.
"""

import threading
import time

import pytest

from repro.core.types import DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.service.async_engine import AsyncEngine
from repro.service.engine import Engine, KernelRequest
from repro.service.worker_pool import WorkerCrashed, WorkerPool

K = 8
REPS = 2

DEVICE = TESLA_P100.name


def _shape(m: int, n: int, k: int, ta=False, tb=True) -> GemmShape:
    return GemmShape(m, n, k, DType.FP32, ta, tb)


@pytest.fixture(scope="module")
def pool_engine(trained_gemm_tuner):
    engine = Engine(max_workers=0)
    engine.register(trained_gemm_tuner)
    # One warm query so the export has hot state to share: enumerated
    # candidate records and a prescaled H0 snapshot.
    engine.query(KernelRequest("gemm", _shape(64, 64, 64), k=K, reps=REPS))
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def pool(pool_engine):
    """One 2-worker pool shared by the module (boot costs two spawns)."""
    with WorkerPool(pool_engine, 2) as p:
        yield p


# ----------------------------------------------------------------------
# Warm boot + health
# ----------------------------------------------------------------------

def test_warm_boot_shares_state(pool):
    assert len(pool) == 2
    assert pool.shared_bytes > 0
    assert pool.pairs == {(DEVICE, "gemm")}
    for w in pool.stats():
        assert w["alive"]
        # Every worker mapped the same one segment (not a copy of it)
        # and seeded its candidate caches from shared views.
        assert w["boot_shared_bytes"] == pool.shared_bytes
        assert w["boot_seeded_records"] > 0
        # The parent's hot searcher had prescaled H0 terms to adopt.
        assert w["boot_adopted_h0"] >= 1


def test_ping_reports_live_accounting(pool):
    for w in range(len(pool)):
        stats = pool.ping(w)
        assert stats["shared_bytes"] == pool.shared_bytes
        assert stats["seeded_records"] > 0
        assert stats["searches"] >= 0


def test_workers_cap_blas_to_one_thread(pool_engine, monkeypatch):
    """Spawned from a parent with no BLAS variables set, every worker
    still runs one BLAS thread and so scores its rows serially."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    with WorkerPool(pool_engine, 2) as pool:
        for w in pool.stats():
            assert w["boot_blas_threads"] == 1
            assert w["boot_scoring_width"] == 1
        for w in range(len(pool)):
            stats = pool.ping(w)
            assert stats["blas_threads"] == 1
            assert stats["scoring_width"] == 1


def test_routing_is_consistent_and_spreads(pool):
    keys = [f"gemm|{DEVICE}|fp32|{i}" for i in range(200)]
    owners = [pool.route(k) for k in keys]
    assert owners == [pool.route(k) for k in keys]  # stable
    assert set(owners) == {0, 1}  # both workers own a share


# ----------------------------------------------------------------------
# Determinism across processes
# ----------------------------------------------------------------------

def test_flush_matches_inprocess_search_on_every_worker(
    pool, trained_gemm_tuner
):
    """Both workers answer the same batch; both equal the direct search."""
    shapes = [
        _shape(64, 96, 128),
        _shape(256, 48, 512, ta=True),
        _shape(320, 320, 64, tb=False),
    ]
    futures = [
        pool.submit_flush(w, DEVICE, "gemm", shapes, K, REPS)
        for w in range(len(pool))
    ]
    direct = [
        trained_gemm_tuner.best_kernel(s, k=K, reps=REPS) for s in shapes
    ]
    for future in futures:
        results = future.result(timeout=300)
        assert len(results) == len(shapes)
        for (ok, payload), want in zip(results, direct):
            assert ok, payload
            config, predicted, measured, version = payload
            assert config == want.config
            assert predicted == want.predicted_tflops
            assert measured == want.measured_tflops
            assert version == 0  # boot fit: the offline model


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------

def test_kill_mid_flush_respawns_and_replays(pool, trained_gemm_tuner):
    """A worker killed mid-flush answers anyway — late, not wrong."""
    from repro.service.faults import FaultPlan, FaultSpec

    shapes = [_shape(1024, 1024, 992 + 16 * i) for i in range(6)]
    victim = 0
    # Hold the flush open so the kill lands mid-flush however fast the
    # worker searches; the respawned worker boots without the plan.
    pool.arm_faults(victim, FaultPlan(
        (FaultSpec("worker.flush", action="sleep", delay_s=30.0),), seed=3,
    ))
    before = pool.stats()[victim]
    future = pool.submit_flush(victim, DEVICE, "gemm", shapes, K, REPS)
    time.sleep(0.2)
    pool.kill_worker(victim)

    results = future.result(timeout=600)  # not stuck, despite the kill
    after = pool.stats()[victim]
    assert after["alive"]
    assert after["respawns"] >= before["respawns"] + 1
    assert after["retries"] >= before["retries"] + 1
    for (ok, payload), shape in zip(results, shapes):
        assert ok, payload
        want = trained_gemm_tuner.best_kernel(shape, k=K, reps=REPS)
        assert payload[0] == want.config
        assert payload[2] == want.measured_tflops


def test_async_front_door_survives_worker_kill(trained_gemm_tuner):
    """End to end: AsyncEngine retries a killed worker transparently."""
    inner = Engine(max_workers=0)
    inner.register(trained_gemm_tuner)
    engine = AsyncEngine(inner, own_engine=True, workers=1).start()
    try:
        assert engine.start_workers() == 1
        shape = _shape(1024, 992, 1024, ta=True)
        request = KernelRequest("gemm", shape, k=K, reps=REPS)

        reply_box = {}

        def client():
            reply_box["reply"] = engine.query_sync(request)

        t = threading.Thread(target=client)
        t.start()
        time.sleep(0.3)  # let the flush reach the worker
        engine._pool.kill_worker(0)
        t.join(timeout=600)
        assert not t.is_alive(), "query stuck after worker kill"

        want = trained_gemm_tuner.best_kernel(shape, k=K, reps=REPS)
        reply = reply_box["reply"]
        assert reply.config == want.config
        assert reply.measured_tflops == want.measured_tflops
        stats = engine.stats()
        assert stats.workers == 1
        assert stats.worker_flushes >= 1
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------

def test_broadcast_fits_adopts_new_model_version():
    """An online hot-swap reaches the worker tier: after a broadcast,
    workers answer from the fine-tuned fit and tag its version."""
    from repro.core.tuner import Isaac
    from repro.service.online import OnlineConfig

    tuner = Isaac(TESLA_P100, op="gemm", dtypes=(DType.FP32,))
    tuner.tune(n_samples=900, seed=7, epochs=8, generative_target=80)
    engine = Engine(
        max_workers=0,
        online=OnlineConfig(update_every=4, epochs=2, anchor_size=64),
    )
    engine.register(tuner)
    # Traffic into the replay buffer (k measured pairs per miss).
    engine.query(KernelRequest("gemm", _shape(64, 64, 64), k=K, reps=REPS))
    try:
        with WorkerPool(engine, 1) as pool:
            shape = _shape(96, 96, 96)
            ((ok, payload),) = pool.submit_flush(
                0, DEVICE, "gemm", [shape], K, REPS
            ).result(timeout=300)
            assert ok and payload[3] == 0  # booted on the offline fit

            assert engine.run_online_updates()
            version = engine.model_version(DEVICE, "gemm")
            assert version >= 1
            fits = engine.export_fits([(DEVICE, "gemm")])
            assert pool.broadcast_fits(fits) == 1

            shape2 = _shape(128, 80, 128)
            ((ok, payload),) = pool.submit_flush(
                0, DEVICE, "gemm", [shape2], K, REPS
            ).result(timeout=300)
            assert ok and payload[3] == version
            # The adopted fit is bit-equal to the parent's: answers match.
            want = tuner.best_kernel(shape2, k=K, reps=REPS)
            assert payload[0] == want.config
            assert payload[2] == want.measured_tflops
            assert pool.ping(0)["adopted_fits"] == 1
    finally:
        engine.close()


def test_close_is_idempotent_and_fails_fast(pool_engine):
    pool = WorkerPool(pool_engine, 1)
    assert pool.ping(0)["searches"] == 0
    processes = [w.process for w in pool._workers]
    assert all(p is not None and p.is_alive() for p in processes)
    pool.close()
    pool.close()  # second close is a no-op, not an error
    # The drain escalation guarantees no zombie survives close(): every
    # child process is really gone, not just disowned.
    for p in processes:
        assert not p.is_alive()
        assert p.exitcode is not None
    with pytest.raises(WorkerCrashed):
        pool.submit_flush(0, DEVICE, "gemm", [_shape(64, 64, 64)], K, REPS)
    with pytest.raises(WorkerCrashed):
        pool.ping(0)


@pytest.mark.parametrize("kwargs, match", [
    ({"n_workers": 0}, "n_workers"),
    ({"n_workers": 2, "blas_threads": 0}, "blas_threads"),
    ({"n_workers": 2, "retries": -1}, "retries"),
    ({"n_workers": 2, "reply_timeout_s": 0.0}, "reply_timeout_s"),
    ({"n_workers": 2, "heartbeat_s": -1.0}, "heartbeat_s"),
])
def test_constructor_rejects_degenerate_knobs(kwargs, match):
    # Validation fires before the engine is touched or any process
    # spawns, so no engine fixture is needed.
    with pytest.raises(ValueError, match=match):
        WorkerPool(None, **kwargs)
