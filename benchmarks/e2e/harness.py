"""One benchmark run: set-up, the timed closed loop, checks, metrics.

The service is driven only through its public API (``Isaac.tune``,
``Engine``, ``AsyncEngine``, ``ProfileCache``, ``OnlineConfig``); the
traced run additionally wraps public entry points (see ``tracer.py``).
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import resource
import shutil
import tempfile
import time
from array import array
from collections import Counter
from itertools import islice
from pathlib import Path

import numpy as np

from repro.baselines.cublas import CuBLASLike
from repro.baselines.cudnn import CuDNNLike
from repro.core.ops import get_op
from repro.core.tuner import Isaac
from repro.inference import search as search_module
from repro.service.async_engine import AsyncEngine
from repro.service.engine import Engine, EngineError
from repro.service.online import OnlineConfig
from hostspeed import BLAS_VARS, HostSpeed
from workloads import DEVICE, DTYPE, TUNE, WORKLOADS, Workload, request_key

#: Set-ups per run; ``setup_s`` is their median and the last one serves.
SETUP_REPEATS = 3
#: Distinct served shapes re-checked against ``Isaac.best_kernel``.
CHECK_SHAPES = 16
#: The online cadence of the drift workload.
ONLINE = dict(update_every=2048, seed=0)

_HIT_SOURCES = ("lru", "profile")


def percentile(values, q: float) -> float | None:
    """The ``q``-th percentile (ms), or None unless at least ten samples
    lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q / 100.0) < 10:
        return None
    return float(np.percentile(np.asarray(values), q)) * 1e3


class Service:
    """What one set-up builds: tuners, the sync engine, its front door."""

    def __init__(self, wl: Workload, tmp: Path, tune: dict):
        self.tuners = {}
        for op in wl.ops:
            tuner = Isaac(DEVICE, op=op, dtypes=(DTYPE,))
            tuner.tune(**tune[op])
            self.tuners[op] = tuner
        self.engine = Engine(
            profile_cache=tmp / "profiles.json",
            online=OnlineConfig(**ONLINE) if wl.online else None,
        )
        for tuner in self.tuners.values():
            self.engine.register(tuner)
        #: online updates in progress
        self.updating = 0
        if wl.online:
            self.engine.run_online_updates = self._counted(
                self.engine.run_online_updates)
        self.front = AsyncEngine(self.engine, workers=wl.workers,
                                 own_engine=True)
        self.boot_s = 0.0
        if wl.workers:
            # The pool's children apply its one-thread BLAS cap only after
            # numpy has loaded, too late to take effect; put the cap in
            # the environment they are spawned with.  This process's BLAS
            # was set up when numpy loaded and keeps the library default.
            for var in BLAS_VARS:
                os.environ.setdefault(var, "1")
            t0 = time.perf_counter()
            self.front.start_workers()
            self.boot_s = time.perf_counter() - t0

    def _counted(self, run_updates):
        """``run_updates``, counted in ``updating`` while it runs."""

        def counted():
            self.updating += 1
            try:
                return run_updates()
            finally:
                self.updating -= 1
        return counted


class _Client:
    """Closed-loop client records shared by every client task."""

    def __init__(self):
        self.hit = array("d")
        self.miss = array("d")
        self.errors: Counter[str] = Counter()
        self.inconsistent = 0
        #: first reply per shape: (request, config, measured, source)
        self.first: dict = {}

    def record(self, req, reply, dt: float) -> None:
        (self.hit if reply.source in _HIT_SOURCES else self.miss).append(dt)
        prev = self.first.get(req.shape)
        if prev is None:
            self.first[req.shape] = (req, reply.config,
                                     reply.measured_tflops, reply.source)
        elif (prev[2] != reply.measured_tflops
              or (prev[1] is not reply.config and prev[1] != reply.config)):
            # Every answer for one shape must be the same kernel.
            self.inconsistent += 1


async def _drive(svc: Service, stream, wl: Workload, seconds: float,
                 rec: _Client, host: HostSpeed) -> dict[str, float]:
    """The timed phase: rounds of ``wl.round_n`` requests, each sent by
    ``wl.clients`` closed-loop tasks and followed by a host-speed sample.
    Returns the phase's start and end, its rounds, and the wall and
    process CPU seconds they took."""
    clock = time.perf_counter
    t_start = clock()
    cpu = 0.0
    round_s = []
    rounds = max(1, round(seconds / wl.round_s))

    async def client(round_):
        for req in round_:
            t0 = clock()
            try:
                reply = await svc.front.query(req)
            except EngineError as exc:
                rec.errors[type(exc).__name__] += 1
            else:
                rec.record(req, reply, clock() - t0)
            # Hand the loop to the other clients even on an inline hit.
            await asyncio.sleep(0)

    # The same rounds in every run, about ``seconds`` of them on the
    # nominal host.  Rounds differ in cost (a block whose conv shapes fall
    # in new buckets pays for their candidates), so a run that stopped on
    # the clock would average over more, cheaper rounds on a faster host.
    for _ in range(rounds):
        round_ = islice(stream, wl.round_n)  # shared by the round's clients
        r0, c0 = clock(), time.process_time()
        await asyncio.gather(*(client(round_) for _ in range(wl.clients)))
        round_s.append(clock() - r0)
        cpu += time.process_time() - c0
        # The sample needs the host to itself: let an online update that
        # the round started finish first.  The sample blocks the loop, so
        # no update starts during it.
        while svc.updating:
            await asyncio.sleep(0.01)
        host.sample()
    return {"start": t_start, "end": clock(), "rounds": round_s,
            "busy": sum(round_s), "cpu": cpu}


def _check(wl: Workload, svc: Service, rec: _Client, seed: int) -> dict:
    """Re-derive sampled answers outside the serving path.

    Frozen models: the served config and TFLOPS must equal
    ``Isaac.best_kernel`` on the same tuner.  Drift-online (the model
    changes while serving): each sampled search reply's TFLOPS must equal
    a fresh simulator benchmark of its config.
    """
    served = sorted(rec.first.values(), key=lambda v: request_key(v[0]))
    if wl.online:
        served = [v for v in served if v[3] == "search"]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(served), size=min(CHECK_SHAPES, len(served)),
                       replace=False) if served else []
    mismatches = 0
    for i in picks:
        req, config, measured, _source = served[int(i)]
        tuner = svc.tuners[req.op]
        if wl.online:
            fresh = get_op(req.op).benchmark_pairs(
                DEVICE, [config], [req.shape], reps=req.reps
            )
            ok = float(fresh[0]) == measured
        else:
            best = tuner.best_kernel(req.shape, k=req.k, reps=req.reps)
            ok = best.config == config and best.measured_tflops == measured
        mismatches += not ok
    return {"checked": len(picks), "mismatches": mismatches}


def _vendor_speedup(wl: Workload, rec: _Client) -> tuple[float, int]:
    """Geomean of served TFLOPS over the vendor-heuristic kernel's (the
    paper's headline ratio), over the gemm/conv shapes of the workload's
    fixed quality set that the run served.  The set does not depend on
    the seed or on how far a run gets, so with a frozen model the value
    is the same in every run."""
    vendors = {"gemm": CuBLASLike(DEVICE), "conv": CuDNNLike(DEVICE)}
    logs = []
    for req in wl.quality():
        vendor = vendors.get(req.op)
        served = rec.first.get(req.shape)
        if vendor is not None and served is not None:
            logs.append(math.log(served[2] / vendor.tflops(req.shape)))
    return (math.exp(sum(logs) / len(logs)) if logs else 0.0), len(logs)


def run(name: str, seed: int, seconds: float, trace: bool, *,
        tune: dict | None = None, setup_repeats: int = SETUP_REPEATS,
        scratch: Path | None = None) -> dict:
    """One run of workload ``name``; returns metrics and accounting.

    ``tune`` and ``setup_repeats`` shrink the set-up for smoke tests.
    """
    wl = WORKLOADS[name]
    tune = tune or TUNE
    tracer = None
    if trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    scratch_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    host = HostSpeed()
    try:
        return _run(wl, seed, seconds, tracer, tune, setup_repeats,
                    scratch_dir, host)
    finally:
        host.close()
        shutil.rmtree(scratch_dir, ignore_errors=True)
        if tracer is not None:
            tracer.restore()


def _run(wl: Workload, seed: int, seconds: float, tracer, tune: dict,
         setup_repeats: int, scratch: Path, host: HostSpeed) -> dict:
    setup_s, windows = [], []
    svc = None
    for rep in range(setup_repeats):
        if svc is not None:
            svc.front.close()
            svc = None  # free it before the next set-up allocates
            gc.collect()
        # No service is up: the sample sees the host the set-up meets.
        host.sample()
        # Each set-up starts from empty candidate caches, as a fresh
        # process would.
        search_module.clear_cache()
        t0 = time.perf_counter_ns()
        svc = Service(wl, scratch / f"setup{rep}", tune)
        t1 = time.perf_counter_ns()
        setup_s.append((t1 - t0) / 1e9)
        windows.append((t0, t1))

    rec = _Client()
    stream = wl.traffic(seed)
    e0 = svc.engine.stats()

    async def timed():
        try:
            phase = await _drive(svc, stream, wl, seconds, rec, host)
            return phase, svc.front.stats()
        finally:
            await svc.front.aclose()

    phase, astats = asyncio.run(timed())
    e1 = svc.engine.stats()
    busy = phase["busy"]

    check = _check(wl, svc, rec, seed)
    speedup, n_vendor = _vendor_speedup(wl, rec)
    hits, misses = np.asarray(rec.hit), np.asarray(rec.miss)
    both = np.concatenate([hits, misses])
    errors = sum(rec.errors.values())
    attempted = len(both) + errors + check["checked"]
    failed = errors + rec.inconsistent + check["mismatches"]

    # Times at the nominal host speed (see HostSpeed): one speed per run,
    # the median of the samples before each set-up and after each round.
    # The speed drifts over minutes, more than over one run.
    speed = host.speed()
    raw_rps = len(both) / busy
    raw_ms = float(np.mean(both)) * 1e3 if len(both) else None
    values = {
        "setup_s": float(np.median(setup_s)) * speed,
        "throughput_rps": raw_rps / speed,
        "latency_mean_ms": raw_ms * speed if raw_ms is not None else None,
        "kernel_speedup_vs_vendor": speedup,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": len(setup_s), "throughput_rps": len(both),
        "latency_mean_ms": len(both),
        "kernel_speedup_vs_vendor": n_vendor, "peak_rss_mb": 1,
    }
    # Split by answer class: hits are too few on the cold workloads for an
    # end-to-end metric.  0 = too few samples.
    client = {
        "client.latency_p50_ms": percentile(both, 50),
        "client.latency_p90_ms": percentile(both, 90),
        "client.hit_latency_p50_ms": percentile(hits, 50),
        "client.miss_latency_p50_ms": percentile(misses, 50),
        "client.miss_latency_p90_ms": percentile(misses, 90),
        "client.miss_throughput_per_s":
            (e1.searches - e0.searches) / busy,
        "client.failed_ratio": failed / attempted,
    }
    client = {k: v or 0.0 for k, v in client.items()}
    out = {
        "values": values,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and check["checked"] > 0,
        "info": {
            "elapsed_s": phase["end"] - phase["start"], "busy_s": busy,
            "round_s_each": phase["rounds"], "host_speed": speed,
            "host_rates": list(host.rates),
            "raw_throughput_rps": raw_rps, "raw_latency_mean_ms": raw_ms,
            "hits": len(hits), "misses": len(misses),
            "searches": e1.searches - e0.searches,
            "errors": dict(rec.errors), "inconsistent": rec.inconsistent,
            **check, "setup_s_each": setup_s, **client,
        },
    }
    if tracer is not None:
        from layers import per_layer

        out["tracer"] = tracer
        out["layers"] = per_layer(tracer, {
            "window": (int(phase["start"] * 1e9), int(phase["end"] * 1e9)),
            "setup_windows": windows,
            "async_stats": astats,
            "engine_stats": (e0, e1),
            "update_log": (svc.engine.online.update_log()
                           if svc.engine.online else ()),
            "boot_s": svc.boot_s,
            "cpu_util": phase["cpu"] / (busy * (os.cpu_count() or 1)),
            "client": client,
        })
    return out
