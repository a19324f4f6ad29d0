"""Tests for the Engine facade: caching, batching, concurrency, lifecycle."""

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.batched import BatchedGemmShape
from repro.core.profile_cache import ProfileCache
from repro.core.tuner import Isaac
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.service.engine import Engine, EngineError, KernelRequest
from repro.workloads.networks import rnn_training_step

GEMM_SHAPES = [
    GemmShape(512, 512, 512, DType.FP32, False, True),
    GemmShape(2560, 16, 2560, DType.FP32, False, False),
    GemmShape(64, 64, 8192, DType.FP32, False, True),
]


def _engine(*tuners: Isaac, **kwargs) -> Engine:
    kwargs.setdefault("max_workers", 0)
    engine = Engine(**kwargs)
    for tuner in tuners:
        engine.register(tuner)
    return engine


class TestQuery:
    def test_search_then_lru(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        req = KernelRequest("gemm", GEMM_SHAPES[0], k=20, reps=2)
        first = engine.query(req)
        assert first.source == "search"
        again = engine.query(req)
        assert again.source == "lru"
        assert again.config == first.config
        assert again.measured_tflops == first.measured_tflops
        assert math.isnan(again.predicted_tflops)
        stats = engine.stats()
        assert stats.searches == 1 and stats.lru_hits == 1

    def test_matches_isaac_best_kernel(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        reply = engine.query(KernelRequest("gemm", GEMM_SHAPES[1], k=25,
                                           reps=2))
        best = trained_gemm_tuner.best_kernel(GEMM_SHAPES[1], k=25, reps=2)
        assert reply.config == best.config
        assert reply.measured_tflops == best.measured_tflops
        assert reply.predicted_tflops == best.predicted_tflops

    def test_device_inferred_when_unambiguous(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        reply = engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=10,
                                           reps=1))
        assert reply.request.device == TESLA_P100.name

    def test_device_alias_accepted(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        reply = engine.query(
            KernelRequest("gemm", GEMM_SHAPES[0], device="pascal", k=10,
                          reps=1)
        )
        assert reply.request.device == TESLA_P100.name

    def test_rejects_wrong_shape_type(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        with pytest.raises(EngineError, match="expects GemmShape"):
            engine.query(
                KernelRequest(
                    "gemm",
                    ConvShape.from_output(n=1, p=4, q=4, k=8, c=4, r=3, s=3),
                )
            )

    def test_rejects_unserved_op(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        shape = ConvShape.from_output(n=1, p=4, q=4, k=8, c=4, r=3, s=3)
        with pytest.raises(EngineError, match="no model"):
            engine.query(KernelRequest("conv", shape))

    def test_register_requires_tuned(self):
        with pytest.raises(EngineError, match="not tuned"):
            Engine().register(Isaac(TESLA_P100, op="gemm"))

    def test_rejects_nonpositive_k_and_reps(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        with pytest.raises(EngineError, match="k must be >= 1"):
            engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=0))
        with pytest.raises(EngineError, match="reps must be >= 1"):
            engine.query(
                KernelRequest("gemm", GEMM_SHAPES[0], k=10, reps=-1)
            )
        assert engine.stats().queries == 0  # nothing was admitted

    def test_constructor_rejects_degenerate_knobs(self):
        with pytest.raises(ValueError, match="max_workers"):
            Engine(max_workers=-1)
        with pytest.raises(ValueError, match="cascade_keep"):
            Engine(cascade_keep=0)


class TestStatsContract:
    """Fresh-engine stats never divide by zero: every ratio is 0.0
    before any traffic, and the ratios partition once traffic flows."""

    def test_fresh_engine_ratios_are_zero(self):
        engine = Engine(max_workers=0)
        stats = engine.stats()
        assert stats.queries == 0
        assert stats.lru_hit_ratio == 0.0
        assert stats.profile_hit_ratio == 0.0
        assert stats.hit_ratio == 0.0
        for value in (stats.lru_hit_ratio, stats.profile_hit_ratio,
                      stats.hit_ratio):
            assert isinstance(value, float)
            assert not math.isnan(value)
        engine.close()

    def test_fresh_async_engine_reports_zero_not_nan(self):
        """The async side follows the same contract: empty latency
        reservoirs and batch histograms report 0.0, not NaN."""
        from repro.service.async_engine import AsyncEngine, ShardStats

        engine = AsyncEngine(Engine(max_workers=0), own_engine=True)
        try:
            stats = engine.stats()
            for value in (stats.hit_p50_ms, stats.hit_p95_ms,
                          stats.miss_p50_ms, stats.miss_p95_ms):
                assert value == 0.0
        finally:
            engine.close()
        empty_shard = ShardStats(
            shard=("d", "gemm", "fp32", 10, 2), queue_depth=0,
            submitted=0, batches=0, flush_reasons={}, batch_sizes={},
            p50_ms=0.0, p95_ms=0.0, max_ms=0.0,
        )
        assert empty_shard.mean_batch == 0.0

    def test_unsettled_shard_reports_zero_not_nan(self, trained_gemm_tuner,
                                                  monkeypatch):
        """While a shard's first flush runs, no request has settled:
        its max latency reads 0.0 like its percentiles, never NaN."""
        import asyncio

        from repro.service.async_engine import AsyncEngine

        inner = _engine(trained_gemm_tuner)
        entered, gate = threading.Event(), threading.Event()
        orig = inner.query_many

        def gated_query_many(requests):
            entered.set()
            gate.wait(30)
            return orig(requests)

        monkeypatch.setattr(inner, "query_many", gated_query_many)
        engine = AsyncEngine(inner, own_engine=True, window_ms=0.0)

        async def main():
            task = asyncio.ensure_future(engine.query(
                KernelRequest("gemm", GEMM_SHAPES[0], k=10, reps=2)
            ))
            deadline = time.monotonic() + 30
            while not entered.is_set() and time.monotonic() < deadline:
                await asyncio.sleep(0.001)
            stats = engine.stats()
            gate.set()
            await task
            await engine.aclose()
            return stats

        stats = asyncio.run(main())
        [shard] = stats.shards
        assert shard.submitted == 1
        assert (shard.p50_ms, shard.p95_ms, shard.max_ms,
                shard.mean_batch) == (0.0, 0.0, 0.0, 0.0)
        assert "nan" not in stats.describe()

    def test_ratios_partition_after_traffic(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        req = KernelRequest("gemm", GEMM_SHAPES[0], k=10, reps=2)
        engine.query(req)   # search
        engine.query(req)   # lru hit
        stats = engine.stats()
        assert stats.queries == 2
        assert stats.lru_hit_ratio == 0.5
        assert stats.profile_hit_ratio == 0.0
        assert stats.hit_ratio == 0.5


class TestTwoLevelCache:
    def test_lru_eviction_falls_back_to_profile_cache(
        self, trained_gemm_tuner, tmp_path
    ):
        engine = _engine(
            trained_gemm_tuner,
            profile_cache=tmp_path / "profiles.json",
            lru_capacity=2,
        )
        replies = [
            engine.query(KernelRequest("gemm", s, k=15, reps=2))
            for s in GEMM_SHAPES
        ]
        assert engine.stats().evictions == 1
        # The oldest shape fell out of the LRU but not out of the engine:
        # the write-through profile cache still has it — no re-search.
        again = engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=15,
                                           reps=2))
        assert again.source == "profile"
        assert again.config == replies[0].config
        assert again.measured_tflops == replies[0].measured_tflops
        assert engine.stats().searches == len(GEMM_SHAPES)

    def test_profiles_survive_reopen(self, trained_gemm_tuner, tmp_path):
        path = tmp_path / "profiles.json"
        with _engine(trained_gemm_tuner, profile_cache=path) as engine:
            first = engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=15,
                                               reps=2))
        assert path.exists()  # close() flushed atomically

        fresh = _engine(trained_gemm_tuner, profile_cache=path)
        reply = fresh.query(KernelRequest("gemm", GEMM_SHAPES[0], k=15,
                                          reps=2))
        assert reply.source == "profile"
        assert reply.config == first.config
        assert fresh.stats().searches == 0

    def test_closed_engine_rejects_queries(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(EngineError, match="closed"):
            engine.query(KernelRequest("gemm", GEMM_SHAPES[0]))


class TestConcurrency:
    N_THREADS = 12

    def _counting_engine(self, tuner, monkeypatch):
        engine = _engine(tuner, lru_capacity=64)
        calls: list = []
        lock = threading.Lock()
        orig = tuner.top_k

        def counting_top_k(shape, k=100):
            with lock:
                calls.append(shape)
            time.sleep(0.005)  # widen the race window
            return orig(shape, k)

        monkeypatch.setattr(tuner, "top_k", counting_top_k)
        return engine, calls

    def test_concurrent_same_shape_searches_once(
        self, trained_gemm_tuner, monkeypatch
    ):
        engine, calls = self._counting_engine(trained_gemm_tuner, monkeypatch)
        barrier = threading.Barrier(self.N_THREADS)

        def ask(_):
            barrier.wait()
            return engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=10,
                                              reps=2))

        with ThreadPoolExecutor(self.N_THREADS) as pool:
            replies = list(pool.map(ask, range(self.N_THREADS)))

        assert len(calls) == 1  # one leader searched; the rest waited
        assert len({str(r.config) for r in replies}) == 1
        assert {r.measured_tflops for r in replies} == {
            replies[0].measured_tflops
        }
        stats = engine.stats()
        assert stats.searches == 1
        # Every non-leader ends up served from the LRU (after waiting on
        # the in-flight search if it arrived during it).
        assert stats.lru_hits == self.N_THREADS - 1

    def test_concurrent_distinct_shapes_search_each_once(
        self, trained_gemm_tuner, monkeypatch
    ):
        engine, calls = self._counting_engine(trained_gemm_tuner, monkeypatch)
        requests = [
            KernelRequest("gemm", GEMM_SHAPES[i % len(GEMM_SHAPES)], k=10,
                          reps=2)
            for i in range(self.N_THREADS)
        ]
        barrier = threading.Barrier(self.N_THREADS)

        def ask(req):
            barrier.wait()
            return engine.query(req)

        with ThreadPoolExecutor(self.N_THREADS) as pool:
            replies = list(pool.map(ask, requests))

        assert len(calls) == len(GEMM_SHAPES)  # exactly one per distinct
        assert engine.stats().searches == len(GEMM_SHAPES)
        # No cross-contamination: every reply matches its own shape's
        # sequential answer.
        for req, reply in zip(requests, replies):
            expected = engine.query(req)  # cache hit now
            assert expected.source in ("lru", "profile")
            assert reply.config == expected.config

    def test_concurrent_query_many(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner, lru_capacity=64)
        requests = [
            KernelRequest("gemm", s, k=10, reps=2) for s in GEMM_SHAPES
        ]

        def ask_many(_):
            return engine.query_many(requests)

        with ThreadPoolExecutor(4) as pool:
            batches = list(pool.map(ask_many, range(4)))

        for batch in batches:
            assert [str(r.config) for r in batch] == [
                str(r.config) for r in batches[0]
            ]
        # 4 concurrent batches over 3 shapes still cost 3 searches total.
        assert engine.stats().searches == len(GEMM_SHAPES)


class TestQueryMany:
    def test_mixed_ops_match_per_shape_best_kernel(
        self, trained_gemm_tuner, small_conv_tuner, small_bgemm_tuner
    ):
        engine = Engine()  # default thread pool: the parallel path
        for tuner in (trained_gemm_tuner, small_conv_tuner, small_bgemm_tuner):
            engine.register(tuner)
        tuners = {"gemm": trained_gemm_tuner, "conv": small_conv_tuner,
                  "bgemm": small_bgemm_tuner}

        conv_shapes = [
            ConvShape.from_output(n=2, p=6, q=6, k=16, c=8, r=3, s=3),
            ConvShape.from_output(n=1, p=8, q=8, k=32, c=16, r=3, s=3),
        ]
        bgemm_shapes = [
            BatchedGemmShape(batch=32, base=GemmShape(64, 64, 256)),
            BatchedGemmShape(batch=8, base=GemmShape(128, 32, 512)),
        ]
        requests = [
            KernelRequest("gemm", s, k=15, reps=2) for s in GEMM_SHAPES
        ] + [
            KernelRequest("conv", s, k=15, reps=2) for s in conv_shapes
        ] + [
            KernelRequest("bgemm", s, k=15, reps=2) for s in bgemm_shapes
        ]

        replies = engine.query_many(requests)

        assert [r.request.op for r in replies] == [r.op for r in requests]
        for req, reply in zip(requests, replies):
            best = tuners[req.op].best_kernel(req.shape, k=15, reps=2)
            assert reply.config == best.config, req
            assert reply.measured_tflops == best.measured_tflops
            assert reply.source == "search"
        engine.close()

    def test_duplicate_requests_collapse(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        shape = GEMM_SHAPES[0]
        replies = engine.query_many(
            [KernelRequest("gemm", shape, k=10, reps=2)] * 5
        )
        assert engine.stats().searches == 1
        assert len({str(r.config) for r in replies}) == 1

    def test_empty_request_list(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        assert engine.query_many([]) == []


class TestWarmup:
    def test_warmup_populates_cache(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        step = rnn_training_step(hidden=256, batch=16, timesteps=2)
        distinct = len({shape for _, shape in step.kernels})
        fresh = engine.warmup(step, k=10, reps=2)
        assert fresh == distinct
        # Everything is now hot: a second warmup searches nothing.
        assert engine.warmup(step, k=10, reps=2) == 0
        for _, shape in step.kernels:
            reply = engine.query(KernelRequest("gemm", shape, k=10, reps=2))
            assert reply.source == "lru"

    def test_op_for_shape(self, trained_gemm_tuner):
        engine = _engine(trained_gemm_tuner)
        assert engine.op_for_shape(GEMM_SHAPES[0]) == "gemm"
        with pytest.raises(EngineError, match="no served op"):
            engine.op_for_shape(
                ConvShape.from_output(n=1, p=4, q=4, k=8, c=4, r=3, s=3)
            )


class TestModelStore:
    def test_open_lazily_loads_saved_fits(self, trained_gemm_tuner,
                                          tmp_path):
        trained_gemm_tuner.save(tmp_path / "pascal--gemm.npz")
        with Engine.open(tmp_path, max_workers=0) as engine:
            assert engine.devices() == (TESLA_P100.name,)
            assert engine.ops() == ("gemm",)
            reply = engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=15,
                                               reps=2))
            assert reply.source == "search"
            best = trained_gemm_tuner.best_kernel(GEMM_SHAPES[0], k=15,
                                                  reps=2)
            assert reply.config == best.config
        # close() flushed the default profile store inside the model dir.
        assert (tmp_path / "profiles.json").exists()

        with Engine.open(tmp_path, max_workers=0) as engine:
            reply = engine.query(KernelRequest("gemm", GEMM_SHAPES[0], k=15,
                                               reps=2))
            assert reply.source == "profile"

    def test_open_rejects_missing_dir(self, tmp_path):
        with pytest.raises(EngineError, match="does not exist"):
            Engine.open(tmp_path / "nope")

    def test_open_ignores_unrelated_files(self, tmp_path):
        (tmp_path / "notes.npz").write_bytes(b"not a model")
        engine = Engine.open(tmp_path)
        assert engine.devices() == ()
        with pytest.raises(EngineError, match="no model"):
            engine.query(KernelRequest("gemm", GEMM_SHAPES[0],
                                       device="pascal"))


class TestRankedKernelSource:
    def test_best_kernel_distinguishes_cache_hits(self, trained_gemm_tuner,
                                                  tmp_path):
        cache = ProfileCache(tmp_path / "profiles.json")
        shape = GemmShape(384, 384, 384, DType.FP32, False, True)
        first = trained_gemm_tuner.best_kernel(shape, k=10, reps=2,
                                               cache=cache)
        assert first.source == "reranked"
        assert first.predicted_tflops > 0

        hit = trained_gemm_tuner.best_kernel(shape, k=10, reps=2,
                                             cache=cache)
        assert hit.source == "cache"
        assert hit.config == first.config
        assert hit.measured_tflops == first.measured_tflops
        # The cache stores only measurements; no fake prediction.
        assert math.isnan(hit.predicted_tflops)
