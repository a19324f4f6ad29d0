"""Concurrency stress tests for the caching/dedup machinery.

PRs 2 and 4 built three concurrency guarantees the serving stack leans
on, and this module hammers each from many threads/tasks at once:

* :class:`KeyedRecordCache` builds every key exactly once, no matter how
  many threads race the first access (and ``seed`` never clobbers a
  built record into a broken state);
* the Engine's two-level cache never loses a write-through: every search
  result lands in the profile cache even while the tiny LRU is thrashing
  under concurrent traffic;
* in-flight dedup holds under mixed ``query``/``query_many`` fire and
  through the AsyncEngine's coalescing layer: N concurrent requests for
  one shape cost exactly one search.
"""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.config import GemmConfig
from repro.core.types import DType, GemmShape
from repro.inference.search import CandidateRecord, KeyedRecordCache
from repro.service.async_engine import AsyncEngine
from repro.service.engine import Engine, KernelRequest

N_THREADS = 16

SHAPES = [
    GemmShape(512, 512, 512, DType.FP32, False, True),
    GemmShape(2560, 16, 2560, DType.FP32, False, False),
    GemmShape(64, 64, 8192, DType.FP32, False, True),
    GemmShape(128, 256, 1024, DType.FP32, True, False),
    GemmShape(96, 96, 4096, DType.FP32, False, False),
    GemmShape(320, 48, 640, DType.FP32, False, True),
]


def _ready_record() -> CandidateRecord:
    cfg = GemmConfig(ms=8, ns=8, ml=64, nl=64, u=8, vec=2, db=2)
    return CandidateRecord(
        op="gemm",
        params={n: np.array([v]) for n, v in cfg.as_dict().items()},
        matrix=np.zeros((1, len(cfg.as_dict()))),
        configs=[cfg],
    )


class TestKeyedRecordCache:
    def test_exactly_one_build_per_key(self):
        cache = KeyedRecordCache()
        builds = []
        lock = threading.Lock()
        barrier = threading.Barrier(N_THREADS)

        def build():
            with lock:
                builds.append(threading.get_ident())
            time.sleep(0.01)  # widen the race window
            return _ready_record()

        def hit(_):
            barrier.wait()
            return cache.get("key", build)

        with ThreadPoolExecutor(N_THREADS) as pool:
            records = list(pool.map(hit, range(N_THREADS)))

        assert len(builds) == 1
        assert all(r is records[0] for r in records)

    def test_distinct_keys_build_once_each(self):
        cache = KeyedRecordCache()
        builds = []
        lock = threading.Lock()
        keys = [f"k{i % 4}" for i in range(N_THREADS * 4)]
        barrier = threading.Barrier(N_THREADS)

        def hit(chunk):
            barrier.wait()
            out = []
            for key in chunk:
                def build(key=key):
                    with lock:
                        builds.append(key)
                    time.sleep(0.002)
                    return _ready_record()
                out.append((key, cache.get(key, build)))
            return out

        chunks = [keys[i::N_THREADS] for i in range(N_THREADS)]
        with ThreadPoolExecutor(N_THREADS) as pool:
            results = [r for rs in pool.map(hit, chunks) for r in rs]

        assert sorted(builds) == ["k0", "k1", "k2", "k3"]
        by_key: dict = {}
        for key, rec in results:
            assert by_key.setdefault(key, rec) is rec  # one object per key

    def test_seed_race_never_double_builds(self):
        cache = KeyedRecordCache()
        builds = []
        lock = threading.Lock()
        barrier = threading.Barrier(N_THREADS + 1)

        def build():
            with lock:
                builds.append(1)
            time.sleep(0.01)
            return _ready_record()

        def getter(_):
            barrier.wait()
            return cache.get("key", build)

        def seeder():
            barrier.wait()
            cache.seed("key", _ready_record())

        seed_thread = threading.Thread(target=seeder)
        seed_thread.start()
        with ThreadPoolExecutor(N_THREADS) as pool:
            records = list(pool.map(getter, range(N_THREADS)))
        seed_thread.join()

        assert len(builds) <= 1
        assert all(rec.ready for rec in records)
        # Everyone converged on one published record.
        assert len({id(rec) for rec in records}) == 1


class TestEngineWriteThrough:
    def test_thrashing_lru_loses_no_profile_writes(
        self, trained_gemm_tuner, tmp_path
    ):
        """A 2-deep LRU under 16-thread fire: every result still lands
        in the profile cache, and repeat rounds never re-search."""
        path = tmp_path / "profiles.json"
        engine = Engine(max_workers=0, profile_cache=path, lru_capacity=2)
        engine.register(trained_gemm_tuner)

        rng = np.random.default_rng(0)
        rounds = [
            [SHAPES[i] for i in rng.permutation(len(SHAPES))]
            for _ in range(N_THREADS)
        ]
        barrier = threading.Barrier(N_THREADS)

        def client(order):
            barrier.wait()
            return [
                engine.query(KernelRequest("gemm", s, k=10, reps=2))
                for s in order
            ]

        with ThreadPoolExecutor(N_THREADS) as pool:
            all_replies = list(pool.map(client, rounds))

        stats = engine.stats()
        assert stats.searches == len(SHAPES)
        assert stats.evictions > 0  # the LRU really did thrash
        engine.close()

        # No lost writes: a fresh engine over the flushed profile cache
        # serves every shape without searching, with identical answers.
        fresh = Engine(max_workers=0, profile_cache=path)
        fresh.register(trained_gemm_tuner)
        by_shape = {
            r.request.shape: r for replies in all_replies for r in replies
        }
        for shape in SHAPES:
            reply = fresh.query(KernelRequest("gemm", shape, k=10, reps=2))
            assert reply.source == "profile"
            assert reply.config == by_shape[shape].config
            assert reply.measured_tflops == by_shape[shape].measured_tflops
        assert fresh.stats().searches == 0

    def test_all_threads_see_consistent_replies(self, trained_gemm_tuner):
        engine = Engine(max_workers=0, lru_capacity=3)
        engine.register(trained_gemm_tuner)
        barrier = threading.Barrier(N_THREADS)

        def client(i):
            barrier.wait()
            shape = SHAPES[i % len(SHAPES)]
            return i, engine.query(KernelRequest("gemm", shape, k=10,
                                                 reps=2))

        with ThreadPoolExecutor(N_THREADS) as pool:
            results = list(pool.map(client, range(N_THREADS)))

        canonical: dict = {}
        for i, reply in results:
            shape = SHAPES[i % len(SHAPES)]
            ref = canonical.setdefault(shape, reply)
            assert reply.config == ref.config
            assert reply.measured_tflops == ref.measured_tflops


class TestInflightDedup:
    def test_mixed_query_and_query_many_search_once_per_shape(
        self, trained_gemm_tuner, monkeypatch
    ):
        engine = Engine(lru_capacity=64)
        engine.register(trained_gemm_tuner)
        searches = []
        lock = threading.Lock()
        orig_top_k = trained_gemm_tuner.top_k
        orig_batch = trained_gemm_tuner.top_k_batch

        def counting_top_k(shape, k=100):
            with lock:
                searches.append(shape)
            time.sleep(0.003)
            return orig_top_k(shape, k)

        def counting_batch(shapes, k=100):
            with lock:
                searches.extend(shapes)
            time.sleep(0.003)
            return orig_batch(shapes, k)

        monkeypatch.setattr(trained_gemm_tuner, "top_k", counting_top_k)
        monkeypatch.setattr(trained_gemm_tuner, "top_k_batch",
                            counting_batch)

        subset = SHAPES[:4]
        barrier = threading.Barrier(N_THREADS)
        rng = np.random.default_rng(3)
        orders = [rng.permutation(4) for _ in range(N_THREADS)]

        def client(i):
            barrier.wait()
            order = [subset[j] for j in orders[i]]
            if i % 2:
                return engine.query_many([
                    KernelRequest("gemm", s, k=10, reps=2) for s in order
                ])
            return [
                engine.query(KernelRequest("gemm", s, k=10, reps=2))
                for s in order
            ]

        with ThreadPoolExecutor(N_THREADS) as pool:
            list(pool.map(client, range(N_THREADS)))
        engine.close()

        # Exactly one model search per distinct shape, across every
        # dispatch path at once.
        assert sorted(str(s) for s in searches) == sorted(
            str(s) for s in subset
        )
        assert engine.stats().searches == len(subset)

    def test_async_coalescing_searches_once_per_shape(
        self, trained_gemm_tuner
    ):
        inner = Engine(max_workers=0)
        inner.register(trained_gemm_tuner)

        async def main():
            async with AsyncEngine(inner, own_engine=True,
                                   max_workers=2) as engine:
                rng = np.random.default_rng(1)
                requests = [
                    KernelRequest("gemm", SHAPES[i], k=10, reps=2)
                    for i in rng.integers(0, len(SHAPES), size=64)
                ]
                replies = await engine.query_many(requests)
                return requests, replies, engine.stats()

        requests, replies, stats = asyncio.run(main())
        assert inner.stats().searches == len(SHAPES)
        assert stats.pending == 0
        canonical: dict = {}
        for req, reply in zip(requests, replies):
            ref = canonical.setdefault(req.shape, reply)
            assert reply.config == ref.config
        assert stats.coalesced + stats.cache_hits == 64 - len(SHAPES)
