"""The miss path every front door shares.

``Engine.query``, ``Engine.query_many``, the async front door and the
worker processes answer a cache miss through one ranking helper
(:func:`repro.service.engine._rank_misses`), one publish step and one
in-process recovery.  These tests pin that each door really goes
through them: the re-rank call shape, the per-shape retry inside a
worker, the pool's in-process fallback batch and the planner's dedup
accounting.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import repro.service.engine as engine_module
from repro.core.tuner import Isaac
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.service.async_engine import AsyncEngine
from repro.service.engine import Engine, KernelRequest, WorkerEngine

DEVICE = TESLA_P100.name
K, REPS = 8, 2


def _shape(m: int) -> GemmShape:
    return GemmShape(m, 64, 64, DType.FP32, False, True)


def _req(shape, op: str = "gemm") -> KernelRequest:
    return KernelRequest(op, shape, k=K, reps=REPS)


def _engine(*tuners: Isaac) -> Engine:
    engine = Engine(max_workers=0)
    for tuner in tuners:
        engine.register(tuner)
    return engine


def _worker(engine: Engine) -> WorkerEngine:
    """A worker engine built in this process from the parent's export."""
    state = engine.export_worker_state()
    return WorkerEngine(state, state.arrays)


def test_every_front_door_ranks_through_the_one_helper(
    trained_gemm_tuner, monkeypatch
):
    calls: list[tuple[tuple, dict]] = []
    orig = engine_module.rerank

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return orig(*args, **kwargs)

    monkeypatch.setattr(engine_module, "rerank", spy)
    engine = _engine(trained_gemm_tuner)
    a, b, c, d, e = (_shape(m) for m in (72, 88, 104, 120, 136))

    engine.query(_req(a))
    assert [args[1] for args, _ in calls] == [a]
    engine.query_many([_req(b), _req(c)])
    assert [args[1] for args, _ in calls] == [a, b, c]
    results = _worker(engine).search_batch(DEVICE, "gemm", [d, e], K, REPS)
    assert all(ok for ok, _ in results)
    assert [args[1] for args, _ in calls] == [a, b, c, d, e]

    # (device, shape, candidates) positionally, the rest by keyword.
    for args, kwargs in calls:
        device, _shape_arg, candidates = args
        assert device.name == DEVICE
        assert len(candidates) == K
        assert set(kwargs) == {"op", "reps"}
    engine.close()


def test_worker_retries_a_failed_batch_shape_by_shape(
    trained_gemm_tuner, monkeypatch
):
    engine = _engine(trained_gemm_tuner)
    shapes = [_shape(m) for m in (144, 152, 168)]
    want = [engine.query(_req(s)) for s in shapes]
    worker = _worker(engine)
    bad = shapes[1]
    orig_top_k = Isaac.top_k

    def batch_down(self, shapes, k=100):
        raise RuntimeError("batch path down")

    def top_k(self, shape, k=100):
        if shape == bad:
            raise ValueError("poisoned shape")
        return orig_top_k(self, shape, k)

    monkeypatch.setattr(Isaac, "top_k_batch", batch_down)
    monkeypatch.setattr(Isaac, "top_k", top_k)
    results = worker.search_batch(DEVICE, "gemm", shapes, K, REPS)

    assert results[1] == (False, "ValueError: poisoned shape")
    for (ok, payload), reply in zip(results[::2], want[::2]):
        assert ok
        config, _predicted, measured, version = payload
        assert config == reply.config
        assert measured == reply.measured_tflops
        assert version == reply.model_version
    assert worker.stats()["searches"] == 2
    engine.close()


def test_pool_answers_unroutable_misses_in_one_inprocess_batch(
    trained_gemm_tuner, small_conv_tuner, monkeypatch
):
    inner = _engine(trained_gemm_tuner)
    shapes = [
        ConvShape.from_output(n=1, p=4, q=4, k=8, c=4, r=3, s=3),
        ConvShape.from_output(n=2, p=6, q=6, k=16, c=8, r=3, s=3),
    ]
    want = [small_conv_tuner.best_kernel(s, k=K, reps=REPS) for s in shapes]
    batches: list[int] = []
    orig = inner.query_many

    def counting_query_many(requests):
        batches.append(len(requests))
        return orig(requests)

    monkeypatch.setattr(inner, "query_many", counting_query_many)
    with AsyncEngine(inner, workers=1, window_ms=50.0) as front:
        assert front.start_workers() == 1
        # Registered after boot: the pool has no conv tuner to route to.
        inner.register(small_conv_tuner)
        replies = front.query_many_sync(
            [_req(s, "conv") for s in shapes], timeout=120
        )
        stats = front.stats()
    inner.close()

    for reply, ref in zip(replies, want):
        assert reply.source == "search"
        assert reply.config == ref.config
        assert reply.measured_tflops == ref.measured_tflops
    assert batches == [len(shapes)]
    assert stats.worker_fallbacks == len(shapes)
    assert stats.batch_failures == 0


def test_waiting_query_many_counts_one_dedup_wait(
    trained_gemm_tuner, monkeypatch
):
    engine = _engine(trained_gemm_tuner)
    entered, gate = threading.Event(), threading.Event()
    orig = trained_gemm_tuner.top_k

    def gated_top_k(shape, k=100):
        entered.set()
        gate.wait(30)
        return orig(shape, k)

    monkeypatch.setattr(trained_gemm_tuner, "top_k", gated_top_k)
    req = _req(_shape(176))
    with ThreadPoolExecutor(2) as pool:
        leader = pool.submit(engine.query, req)
        assert entered.wait(30)
        waiter = pool.submit(engine.query_many, [req])
        deadline = time.monotonic() + 30
        while (engine.stats().dedup_waits < 1
               and time.monotonic() < deadline):
            time.sleep(0.005)
        # Time for a waiter that counted its wait twice to get there.
        time.sleep(0.1)
        gate.set()
        lead_reply = leader.result(30)
        [wait_reply] = waiter.result(30)

    stats = engine.stats()
    assert stats.dedup_waits == 1
    assert stats.searches == 1
    assert stats.lru_hits == 1
    assert lead_reply.source == "search"
    assert wait_reply.source == "lru"
    assert wait_reply.config == lead_reply.config
    engine.close()


def test_planner_elects_a_new_leader_after_a_failed_search(
    trained_gemm_tuner, monkeypatch
):
    """Threads race ``query`` and one-request ``query_many`` calls over
    three shapes whose first search fails.  Only the failed leader sees
    the error: its waiters plan again, one of them searches, and every
    answered request counts once, as a cache hit or as the search."""
    engine = _engine(trained_gemm_tuner)
    shapes = [_shape(m) for m in (184, 200, 216)]
    tried: set = set()
    lock = threading.Lock()
    orig_top_k = trained_gemm_tuner.top_k
    orig_batch = trained_gemm_tuner.top_k_batch

    def first_search_fails(shapes_):
        with lock:
            first = [s for s in shapes_ if s not in tried]
            tried.update(shapes_)
        time.sleep(0.002)  # widen the window for waiters to pile up
        if first:
            raise RuntimeError("first search fails")

    def top_k(shape, k=100):
        first_search_fails([shape])
        return orig_top_k(shape, k)

    def top_k_batch(shapes_, k=100):
        first_search_fails(shapes_)
        return orig_batch(shapes_, k)

    monkeypatch.setattr(trained_gemm_tuner, "top_k", top_k)
    monkeypatch.setattr(trained_gemm_tuner, "top_k_batch", top_k_batch)
    n_threads = 16
    barrier = threading.Barrier(n_threads)

    def client(i):
        barrier.wait()
        out = []
        for shape in (shapes if i % 2 else shapes[::-1]):
            try:
                if i % 2:
                    out.append(engine.query(_req(shape)))
                else:
                    out.append(engine.query_many([_req(shape)])[0])
            except RuntimeError:
                out.append(None)
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(n_threads) as pool:
            futures = [pool.submit(client, i) for i in range(n_threads)]
            results = [f.result(120) for f in futures]
    finally:
        sys.setswitchinterval(interval)

    replies = [r for rs in results for r in rs]
    answered = [r for r in replies if r is not None]
    assert len(replies) - len(answered) == len(shapes)  # failed leaders
    for shape in shapes:
        configs = {r.config for r in answered if r.request.shape == shape}
        assert len(configs) == 1
    stats = engine.stats()
    assert stats.searches == len(shapes)
    assert stats.lru_hits + stats.profile_hits + stats.searches == len(
        answered
    )
    engine.close()
