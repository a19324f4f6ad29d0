"""AsyncEngine: time-windowed dynamic micro-batching over the Engine.

The sync :class:`~repro.service.engine.Engine` already batches requests —
but only the ones a single caller hands it together in one
:meth:`~repro.service.engine.Engine.query_many` call.  A service does not
see traffic that way: requests arrive one at a time from thousands of
independent clients, and mapping each onto a thread means every miss pays
a *full* model pass while the per-tuner lock serializes them anyway.

:class:`AsyncEngine` is the asyncio front door that turns independent
request streams back into batches:

* **sharding** — misses are routed to a per-(device, op, dtype, k, reps)
  shard, the exact grouping :meth:`Isaac.top_k_batch` can answer in one
  model pass;
* **dynamic micro-batching** — each shard's worker task accumulates
  requests for a configurable window (default 2 ms) or until a maximum
  batch size, then flushes the whole batch through the engine's batched
  search path on a worker thread.  Under load, batches fill instantly;
  when idle, a lone request waits at most one window;
* **coalescing** — duplicate in-flight shapes attach to the leader's
  future before they ever occupy queue space (on top of the engine's own
  thread-level dedup);
* **admission control** — a global pending bound plus bounded per-shard
  queues; when the service is saturated, submits fail fast with
  :class:`BackpressureError` instead of growing an unbounded backlog;
* **graceful drain** — :meth:`aclose` stops admissions, lets every shard
  flush what it already accepted (those batches are marked ``drain``),
  then flushes the engine's caches to disk;
* **stats** — per-shard queue depth, batch-size histogram, flush-reason
  counts and a p50/p95/max latency reservoir (:meth:`stats`).

Answers are *config-identical* to ``Engine.query`` and to
``Isaac.best_kernel``: the front door only changes when and with whom a
request reaches the search, never what the search returns
(``tests/test_engine_equivalence.py`` holds that bar, and
``benchmarks/bench_serving_async.py`` holds the >=3x throughput bar at
concurrency 64).

Async use (servers, tests)::

    async with AsyncEngine.open("models/") as engine:
        reply = await engine.query(KernelRequest("gemm", shape))

Sync use (harness, legacy callers) — a background event-loop thread::

    engine = AsyncEngine(sync_engine).start()
    replies = engine.query_many_sync(requests)
    engine.close()
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from repro.core.ops import OpSpec
from repro.inference.topk import RankedKernel
from repro.service.engine import (
    DeadlineExceeded,
    Engine,
    EngineError,
    KernelReply,
    KernelRequest,
)
from repro.service.faults import InjectedFault, inject


class BackpressureError(EngineError):
    """The service is saturated; the request was refused, not queued.

    Raised by :meth:`AsyncEngine.query` when the global pending bound or
    the target shard's queue is full.  Clients should treat it like HTTP
    503: back off and retry, or shed the request.

    ``transient`` distinguishes load (queues full — draining, retry
    after a window) from configuration (the shard bound hit — permanent
    until the service is reconfigured; retrying cannot help).
    """

    def __init__(self, message: str, *, transient: bool = True):
        super().__init__(message)
        self.transient = transient


#: Sentinel a draining shard worker stops on (after flushing the backlog).
_CLOSE = object()


def _consume_result(future: asyncio.Future) -> None:
    """Mark an abandoned future's outcome as retrieved.

    A client whose deadline expired stops waiting, but the search (and
    its :meth:`_settle`) still completes; without this callback a failed
    settle would log "exception was never retrieved" noise.
    """
    if not future.cancelled():
        future.exception()


class _CircuitBreaker:
    """Closed / open / half-open gate in front of the worker pool.

    ``record_failure`` counts *consecutive* pool-RPC failures; at
    ``threshold`` the breaker trips open and :meth:`allow` refuses the
    pool, sending every flush down the in-process path (answers stay
    config-identical — only placement changes).  After ``reset_s`` the
    next flush becomes a half-open probe: exactly one flush is allowed
    through; its success closes the breaker (a *recovery*), its failure
    re-opens it.  Thread-safe — flushes record from executor threads.
    """

    def __init__(self, threshold: int, reset_s: float):
        self._threshold = threshold
        self._reset_s = reset_s
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probing = False
        self.trips = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        now = time.monotonic()
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if now - self._opened_at >= self._reset_s:
                    self._state = "half-open"
                    self._probing = True
                    return True
                return False
            # half-open: one probe at a time.
            if not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == "half-open":
                self.recoveries += 1
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        now = time.monotonic()
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= self._threshold:
                if self._state != "open":
                    self.trips += 1
                self._state = "open"
                self._opened_at = now
                self._failures = 0
                self._probing = False

    def abandon_probe(self) -> None:
        """A probe flush that never reached the pool (all cache hits /
        fallbacks) proves nothing: return to open and wait again."""
        now = time.monotonic()
        with self._lock:
            if self._state == "half-open" and self._probing:
                self._state = "open"
                self._opened_at = now
                self._probing = False


@dataclass
class _Pending:
    """One admitted cache miss waiting for its shard to flush."""

    request: KernelRequest
    key: str
    future: asyncio.Future
    t_submit: float
    deadline: float | None = None


class _Shard:
    """One (device, op, dtype, k, reps) queue + its worker task + stats.

    ``lock`` guards the stats containers only: mutation happens on the
    event loop, but :meth:`AsyncEngine.stats` may read from any thread
    (including after a shutdown race), so reservoir/counter access is
    locked rather than relying on loop affinity.
    """

    __slots__ = (
        "key", "queue", "worker", "lock", "submitted", "batches",
        "reasons", "sizes", "latencies", "queue_waits", "search_times",
    )

    def __init__(self, key: tuple, maxsize: int):
        self.key = key
        self.queue: asyncio.Queue = asyncio.Queue(maxsize)
        self.worker: asyncio.Task | None = None
        self.lock = threading.Lock()
        self.submitted = 0
        self.batches = 0
        self.reasons = Counter()      # "window" | "full" | "drain"
        self.sizes = Counter()        # batch size -> count
        self.latencies: deque[float] = deque(maxlen=4096)
        # The miss latency split: time spent waiting for the batch to
        # form vs. time inside the dispatched search itself.
        self.queue_waits: deque[float] = deque(maxlen=4096)
        self.search_times: deque[float] = deque(maxlen=4096)


def _percentile_ms(sorted_s: list[float], q: float) -> float:
    # Fresh-engine contract: empty reservoirs report 0.0, matching the
    # EngineStats hit-ratio properties (never NaN, never a div-by-zero).
    if not sorted_s:
        return 0.0
    return sorted_s[int(q * (len(sorted_s) - 1))] * 1e3


def _ring_index(key: object, n: int) -> int:
    """Deterministic slot for ``key`` among ``n`` survivors (re-homing)."""
    import hashlib

    digest = hashlib.blake2b(repr(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n


@dataclass(frozen=True)
class ShardStats:
    """One shard's counters (a point-in-time snapshot)."""

    shard: tuple                 # (device, op, dtype, k, reps)
    queue_depth: int
    submitted: int
    batches: int
    flush_reasons: dict[str, int]
    batch_sizes: dict[int, int]
    p50_ms: float
    p95_ms: float
    max_ms: float

    @property
    def mean_batch(self) -> float:
        n = sum(self.batch_sizes.values())
        if n == 0:
            # Same fresh-engine contract as the hit-ratio properties:
            # no traffic reports 0.0, not NaN.
            return 0.0
        return sum(s * c for s, c in self.batch_sizes.items()) / n


@dataclass(frozen=True)
class AsyncEngineStats:
    """Service-level counters plus one :class:`ShardStats` per shard.

    Latency is reported **split**: ``hit_*`` covers requests answered
    inline from the caches (microseconds), ``miss_*`` covers everything
    that waited for a search (leaders and coalesced waiters).  A single
    merged reservoir would report the search latency as if every caller
    paid it the moment the hit ratio is high.  Misses split once more —
    ``miss_queue_p50_ms`` (batching-window wait) vs ``miss_search_p50_ms``
    (the dispatched search itself) — so a fat window and a slow search
    are distinguishable from the outside.

    The ``cascade_*`` counters come from the underlying engine (summed
    over its hot tuners): shortlist-path searches, exhaustive ones, and
    query-time safety fallbacks.
    """

    submitted: int
    cache_hits: int
    coalesced: int
    rejected: int
    batch_failures: int
    pending: int
    workers: int
    worker_flushes: int
    worker_fallbacks: int
    hit_p50_ms: float
    hit_p95_ms: float
    miss_p50_ms: float
    miss_p95_ms: float
    miss_queue_p50_ms: float
    miss_search_p50_ms: float
    cascade_searches: int
    exhaustive_searches: int
    cascade_fallbacks: int
    model_versions: dict[int, int]
    online_updates: int
    shards: tuple[ShardStats, ...]
    deadlines_exceeded: int = 0
    deadline_shed: int = 0
    breaker_state: str = "closed"
    breaker_trips: int = 0
    breaker_recoveries: int = 0

    def describe(self) -> str:
        lines = [
            f"submitted={self.submitted} cache_hits={self.cache_hits} "
            f"coalesced={self.coalesced} rejected={self.rejected} "
            f"pending={self.pending}",
            f"  hit p50={self.hit_p50_ms:.3f}ms "
            f"p95={self.hit_p95_ms:.3f}ms | "
            f"miss p50={self.miss_p50_ms:.1f}ms "
            f"p95={self.miss_p95_ms:.1f}ms "
            f"(queue p50={self.miss_queue_p50_ms:.1f}ms, "
            f"search p50={self.miss_search_p50_ms:.1f}ms)",
        ]
        if self.cascade_searches or self.cascade_fallbacks:
            lines.append(
                f"  cascade searches={self.cascade_searches} "
                f"exhaustive={self.exhaustive_searches} "
                f"fallbacks={self.cascade_fallbacks}"
            )
        if self.deadlines_exceeded or self.deadline_shed:
            lines.append(
                f"  deadlines exceeded={self.deadlines_exceeded} "
                f"shed={self.deadline_shed}"
            )
        if self.workers:
            lines.append(
                f"  workers={self.workers} "
                f"worker_flushes={self.worker_flushes} "
                f"worker_fallbacks={self.worker_fallbacks} "
                f"breaker={self.breaker_state} "
                f"trips={self.breaker_trips} "
                f"recoveries={self.breaker_recoveries}"
            )
        if self.model_versions:
            by_version = " ".join(
                f"v{v}={n}" for v, n in sorted(self.model_versions.items())
            )
            lines.append(
                f"  online updates={self.online_updates} "
                f"searches by model version: {by_version}"
            )
        for s in self.shards:
            dev, op, dtype, k, reps = s.shard
            lines.append(
                f"  [{op}/{dtype} k={k} reps={reps} @ {dev}] "
                f"depth={s.queue_depth} batches={s.batches} "
                f"mean_batch={s.mean_batch:.1f} "
                f"reasons={dict(s.flush_reasons)} "
                f"p50={s.p50_ms:.1f}ms p95={s.p95_ms:.1f}ms "
                f"max={s.max_ms:.1f}ms"
            )
        return "\n".join(lines)


class AsyncEngine:
    """Asyncio front door with per-shard dynamic micro-batching.

    Parameters
    ----------
    engine:
        The sync :class:`Engine` doing the actual serving.  ``None``
        builds a private one from ``engine_kwargs`` (then owned: closed
        by :meth:`aclose`).  Passing an engine you constructed leaves its
        lifetime to you unless ``own_engine=True``.
    window_ms:
        How long the first request of a batch waits for company.  ``0``
        selects the explicit immediate-flush mode: each batch is
        whatever is already queued when its first request is picked up
        (coalescing still applies), no flush timer is ever armed, and
        an idle shard parks on its queue instead of spinning.
    max_batch:
        Flush early once a batch reaches this size.
    max_pending:
        Global bound on admitted-but-unanswered misses; beyond it,
        :meth:`query` raises :class:`BackpressureError`.
    max_queue:
        Per-shard queue bound (second line of admission control).
    max_shards:
        Bound on live shards.  ``k``/``reps`` are client-controlled
        parts of the shard key, and every shard owns a worker task, a
        queue and a latency reservoir for the engine's lifetime — the
        bound stops a client sweeping those knobs from leaking one of
        each per distinct tuple.  Exceeding it raises a *non-transient*
        :class:`BackpressureError`.
    max_workers:
        Threads flushing batches (defaults to one per CPU up to 4).
        Distinct shards flush concurrently; one shard flushes one batch
        at a time (the per-tuner lock would serialize it anyway).
    workers:
        Worker *processes* for the sharded serving tier.  ``0`` (the
        default) keeps every flush in-process; ``N >= 1`` boots a
        :class:`~repro.service.worker_pool.WorkerPool` (lazily, on the
        first miss flush, or eagerly via :meth:`start_workers`) and
        executes miss searches there — each flush stripes its request
        keys across the pool's consistent-hash ring, so even a single
        hot shard fans out over every worker.  The parent keeps the
        caches authoritative: only misses ship, results write back
        through :meth:`Engine.store_search_result`.  Worker failures
        fall back to the in-process path, so answers (and their
        config-identity to ``Engine.query``) never depend on pool
        health.
    worker_timeout_s:
        Per-RPC reply deadline for the worker tier (pool
        ``reply_timeout_s``).  A hung-but-alive worker is detected when
        its reply misses this deadline, killed, respawned from the same
        shared segment and the flush replayed.  ``None`` (default)
        keeps the crash-only detection.
    worker_heartbeat_s:
        Watchdog ping period for the worker tier; ``None`` disables.
    breaker_threshold:
        Consecutive pool-RPC failures before the circuit breaker trips
        open and every flush falls back in-process.
    breaker_reset_s:
        Seconds an open breaker waits before letting one half-open
        probe flush test the pool again (success re-closes it).
    """

    def __init__(
        self,
        engine: Engine | None = None,
        *,
        window_ms: float = 2.0,
        max_batch: int = 32,
        max_pending: int = 1024,
        max_queue: int = 256,
        max_shards: int = 64,
        max_workers: int | None = None,
        workers: int = 0,
        worker_timeout_s: float | None = None,
        worker_heartbeat_s: float | None = None,
        breaker_threshold: int = 8,
        breaker_reset_s: float = 30.0,
        own_engine: bool | None = None,
        **engine_kwargs,
    ):
        if engine is None:
            engine = Engine(**engine_kwargs)
            own_engine = True if own_engine is None else own_engine
        elif engine_kwargs:
            raise TypeError(
                "engine_kwargs are only accepted when AsyncEngine builds "
                f"its own Engine, got {sorted(engine_kwargs)}"
            )
        if window_ms < 0:
            raise ValueError(f"window_ms must be >= 0, got {window_ms}")
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_pending <= 0:
            raise ValueError(
                f"max_pending must be positive, got {max_pending}"
            )
        if max_queue <= 0:
            # asyncio.Queue(0) means *unbounded*; refuse rather than
            # silently disable the per-shard admission bound.
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if max_shards <= 0:
            raise ValueError(
                f"max_shards must be positive, got {max_shards}"
            )
        if max_batch > max_pending:
            raise ValueError(
                f"max_batch ({max_batch}) must not exceed max_pending "
                f"({max_pending}): a full batch could never be admitted"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1 when given, got {max_workers}"
            )
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if worker_timeout_s is not None and worker_timeout_s <= 0:
            raise ValueError(
                f"worker_timeout_s must be positive, got {worker_timeout_s}"
            )
        if worker_heartbeat_s is not None and worker_heartbeat_s <= 0:
            raise ValueError(
                f"worker_heartbeat_s must be positive, got "
                f"{worker_heartbeat_s}"
            )
        if breaker_threshold <= 0:
            raise ValueError(
                f"breaker_threshold must be positive, got {breaker_threshold}"
            )
        if breaker_reset_s <= 0:
            raise ValueError(
                f"breaker_reset_s must be positive, got {breaker_reset_s}"
            )
        self._engine = engine
        self._own_engine = bool(own_engine)
        self._window_s = window_ms / 1e3
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._max_queue = max_queue
        self._max_shards = max_shards
        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        #: the compiled ServingPlan when built via from_slo, else None.
        self._plan = None

        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._start_lock = threading.Lock()
        self._shards: dict[tuple, _Shard] = {}
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending = 0
        self._closed = False
        self._drained = False

        self._n_workers = workers
        self._pool = None
        self._pool_lock = threading.Lock()
        self._worker_timeout_s = worker_timeout_s
        self._worker_heartbeat_s = worker_heartbeat_s
        self._breaker = _CircuitBreaker(breaker_threshold, breaker_reset_s)

        #: the background fine-tune driver (created on loop bind when
        #: the engine has an online learner configured).
        self._online_task: asyncio.Task | None = None
        self._version_counts: Counter[int] = Counter()

        # Hits are answered inline and misses via shard reservoirs; the
        # split keeps a cache-dominated workload from reporting the
        # (huge) search latency as if every caller paid it.  The lock
        # also guards the counters that executor threads bump.
        self._lat_lock = threading.Lock()
        self._hit_latencies: deque[float] = deque(maxlen=4096)
        self._coalesced_latencies: deque[float] = deque(maxlen=4096)

        self._n_submitted = 0
        self._n_cache_hits = 0
        self._n_coalesced = 0
        self._n_rejected = 0
        self._n_batch_failures = 0
        self._n_worker_flushes = 0
        self._n_worker_fallbacks = 0
        self._n_deadlines = 0
        self._n_deadline_shed = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        model_dir: str | Path,
        *,
        window_ms: float = 2.0,
        max_batch: int = 32,
        max_pending: int = 1024,
        max_queue: int = 256,
        max_shards: int = 64,
        max_workers: int | None = None,
        workers: int = 0,
        worker_timeout_s: float | None = None,
        worker_heartbeat_s: float | None = None,
        breaker_threshold: int = 8,
        breaker_reset_s: float = 30.0,
        **engine_kwargs,
    ) -> "AsyncEngine":
        """An owned front door over ``Engine.open(model_dir)``."""
        return cls(
            Engine.open(model_dir, **engine_kwargs),
            window_ms=window_ms,
            max_batch=max_batch,
            max_pending=max_pending,
            max_queue=max_queue,
            max_shards=max_shards,
            max_workers=max_workers,
            workers=workers,
            worker_timeout_s=worker_timeout_s,
            worker_heartbeat_s=worker_heartbeat_s,
            breaker_threshold=breaker_threshold,
            breaker_reset_s=breaker_reset_s,
            own_engine=True,
        )

    @classmethod
    def from_slo(
        cls,
        source: "Engine | str | Path",
        slo,
        **engine_kwargs,
    ) -> "AsyncEngine":
        """Boot a fully derived configuration from a :class:`ServingSLO`.

        ``source`` is either a model directory (an owned ``Engine`` is
        opened with the plan's cache/cascade settings, plus any extra
        ``engine_kwargs``) or an already-built ``Engine`` (the caller is
        responsible for sizing it; only ``own_engine`` is accepted as a
        keyword then).  ``slo`` may be a ``ServingSLO`` -- compiled
        here, so an infeasible spec fails before anything boots -- or an
        already-compiled ``ServingPlan``.
        """
        from repro.service.slo import ServingPlan, ServingSLO

        if isinstance(slo, ServingSLO):
            plan = slo.compile()
        elif isinstance(slo, ServingPlan):
            plan = slo
        else:
            raise TypeError(
                f"expected ServingSLO or ServingPlan, got {type(slo)!r}"
            )
        if isinstance(source, Engine):
            own = bool(engine_kwargs.pop("own_engine", False))
            if engine_kwargs:
                raise TypeError(
                    "engine_kwargs are only accepted when from_slo opens "
                    f"its own Engine, got {sorted(engine_kwargs)}"
                )
            engine = cls(source, own_engine=own, **plan.async_kwargs())
        else:
            inner = Engine.open(
                source, **{**plan.engine_kwargs(), **engine_kwargs}
            )
            engine = cls(inner, own_engine=True, **plan.async_kwargs())
        engine._plan = plan
        return engine

    @property
    def plan(self):
        """The compiled ``ServingPlan`` when built via ``from_slo``."""
        return self._plan

    @property
    def engine(self) -> Engine:
        """The sync engine underneath (model store, caches, stats)."""
        return self._engine

    # Thin delegations so harness code can treat either front door alike.
    def devices(self) -> tuple[str, ...]:
        return self._engine.devices()

    def ops(self, device: str | None = None) -> tuple[str, ...]:
        return self._engine.ops(device)

    def op_for_shape(self, shape: Any, *, device: str | None = None) -> str:
        return self._engine.op_for_shape(shape, device=device)

    # ------------------------------------------------------------------
    # The async serving path
    # ------------------------------------------------------------------
    async def query(self, request: KernelRequest) -> KernelReply:
        """Answer one request: cache -> coalesce -> shard micro-batch.

        Cache hits are answered inline on the event loop (no thread hop,
        no queueing).  Misses join their shard's current batch; duplicate
        in-flight shapes await the leader's future.  Raises
        :class:`BackpressureError` when saturated.
        """
        if self._closed:
            raise EngineError("async engine is closed")
        loop = self._bind_loop()
        t0 = loop.time()
        try:
            request, spec, key = self._engine.resolve(request)
        except DeadlineExceeded:
            # Admission check: a non-positive budget is dead on arrival.
            self._n_deadlines += 1
            raise
        deadline = None
        if request.deadline_ms is not None:
            deadline = t0 + request.deadline_ms / 1e3
        self._n_submitted += 1

        reply = self._engine.probe_cache(request, spec, key)
        if reply is not None:
            self._n_cache_hits += 1
            with self._lat_lock:
                self._hit_latencies.append(loop.time() - t0)
            return reply

        leader = self._inflight.get(key)
        if leader is not None:
            self._n_coalesced += 1
            reply = await self._await_reply(leader, deadline, request,
                                            own=False)
            # A coalesced waiter paid (part of) the leader's search, so
            # its wait belongs on the miss side of the latency split.
            with self._lat_lock:
                self._coalesced_latencies.append(loop.time() - t0)
            # The leader's reply carries the leader's request envelope.
            return replace(reply, request=request)

        if self._pending >= self._max_pending:
            self._n_rejected += 1
            raise BackpressureError(
                f"{self._pending} requests pending (bound "
                f"{self._max_pending}); request refused"
            )
        future: asyncio.Future = loop.create_future()
        shard = self._shard_for(request, spec)
        item = _Pending(request, key, future, loop.time(), deadline)
        try:
            shard.queue.put_nowait(item)
        except asyncio.QueueFull:
            self._n_rejected += 1
            raise BackpressureError(
                f"shard {shard.key} queue full "
                f"({shard.queue.maxsize} deep); request refused"
            ) from None
        self._inflight[key] = future
        self._pending += 1
        shard.submitted += 1
        return await self._await_reply(future, deadline, request, own=True)

    async def _await_reply(
        self,
        future: asyncio.Future,
        deadline: float | None,
        request: KernelRequest,
        *,
        own: bool,
    ) -> KernelReply:
        """Await a (shielded) reply future within the request's deadline.

        The shield matters twice over: a coalesced waiter timing out
        must not cancel the leader's future, and a leader timing out
        must not cancel the search — the flush still completes, settles
        the future and warms the cache for the next request.  ``own``
        marks the future this caller created (nobody else will read it,
        so its eventual outcome is explicitly consumed).
        """
        if deadline is None:
            return await asyncio.shield(future)
        remaining = deadline - self._loop.time()
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), max(0.0, remaining)
            )
        except asyncio.TimeoutError:
            self._n_deadlines += 1
            if own:
                future.add_done_callback(_consume_result)
            raise DeadlineExceeded(
                f"deadline_ms={request.deadline_ms} expired while waiting "
                "for the search"
            ) from None

    async def query_many(
        self, requests: Sequence[KernelRequest]
    ) -> list[KernelReply]:
        """Concurrent :meth:`query` for every request; replies align.

        A batch API: callers asked for every answer, so submissions that
        hit admission control wait one batching window and retry instead
        of failing the whole batch (matching ``Engine.query_many``,
        which cannot fail that way).  Per-request fail-fast backpressure
        remains :meth:`query`'s contract.
        """

        async def with_retry(request: KernelRequest) -> KernelReply:
            while True:
                try:
                    return await self.query(request)
                except BackpressureError as exc:
                    if not exc.transient:  # shard bound: retry can't help
                        raise
                    await asyncio.sleep(max(self._window_s, 1e-3))

        return list(
            await asyncio.gather(*(with_retry(r) for r in requests))
        )

    # ------------------------------------------------------------------
    # Shards and their workers
    # ------------------------------------------------------------------
    def _shard_for(self, request: KernelRequest, spec: OpSpec) -> _Shard:
        # One shard per batchable unit — KernelRequest.group_key is the
        # same grouping the sync batching planner flushes through one
        # top_k_batch pass, shared so the two can never diverge.
        key = request.group_key()
        shard = self._shards.get(key)
        if shard is None:
            if len(self._shards) >= self._max_shards:
                # k/reps are client-controlled: without a bound, a
                # client sweeping them would leak one worker task +
                # queue + reservoir per distinct tuple, forever.
                self._n_rejected += 1
                raise BackpressureError(
                    f"{len(self._shards)} shards live (bound "
                    f"{self._max_shards}); request for new shard {key} "
                    "refused",
                    transient=False,
                )
            shard = _Shard(key, self._max_queue)
            shard.worker = self._loop.create_task(self._worker(shard))
            self._shards[key] = shard
        return shard

    async def _worker(self, shard: _Shard) -> None:
        """Accumulate one shard's batches and flush them, forever.

        One batch at a time per shard: while a flush runs on its worker
        thread, the event loop keeps admitting requests into the queue,
        so the next batch is already forming.  With ``window_ms=0`` the
        window's deadline has passed before the first wait, so a batch
        is whatever is already queued, taken without arming a timer: an
        idle shard parks on the blocking ``get()`` -- no timer churn and
        no busy spin -- and the flush reason is ``"immediate"``.
        """
        loop = self._loop
        immediate = self._window_s <= 0.0
        while True:
            item = await shard.queue.get()
            if item is _CLOSE:
                return
            batch = [item]
            draining = False
            deadline = loop.time() + self._window_s
            while len(batch) < self._max_batch:
                remaining = deadline - loop.time()
                try:
                    if remaining <= 0:
                        nxt = shard.queue.get_nowait()
                    else:
                        nxt = await asyncio.wait_for(
                            shard.queue.get(), remaining
                        )
                except (asyncio.QueueEmpty, asyncio.TimeoutError):
                    break
                if nxt is _CLOSE:
                    draining = True
                    break
                batch.append(nxt)
            if draining:
                # Nothing can sit behind the sentinel: aclose() enqueues
                # it only after admissions stop, so consuming it means
                # this batch is the shard's last.
                reason = "drain"
            elif len(batch) >= self._max_batch:
                reason = "full"
            elif immediate:
                reason = "immediate"
            else:
                reason = "window"
            batch = self._shed_expired(shard, batch)
            if batch:
                await self._flush(shard, batch, reason)
            if draining:
                return

    def _shed_expired(
        self, shard: _Shard, batch: list[_Pending]
    ) -> list[_Pending]:
        """Drop batch members whose deadline already passed.

        Queue shedding, not just client-side timeouts: an expired
        request would burn a worker's search budget on an answer nobody
        is waiting for, and in a deep queue that work delays every
        live request behind it.
        """
        now = self._loop.time()
        kept: list[_Pending] = []
        for p in batch:
            if p.deadline is not None and now >= p.deadline:
                self._n_deadline_shed += 1
                self._settle(
                    shard, p, None,
                    DeadlineExceeded(
                        f"deadline_ms={p.request.deadline_ms} expired in "
                        "the shard queue before the flush"
                    ),
                )
            else:
                kept.append(p)
        return kept

    async def _flush(
        self, shard: _Shard, batch: list[_Pending], reason: str
    ) -> None:
        """One micro-batch through the engine's batched search path.

        With a worker tier configured, the batch goes to the process
        pool instead (still on an executor thread — the parent side of
        the RPC blocks on pipe futures); any pool-level failure falls
        back to the in-process path below, so worker health can delay an
        answer but never change or lose one.
        """
        loop = self._loop
        requests = [p.request for p in batch]
        t_flush = loop.time()
        outcomes = None
        try:
            inject("async.flush")
        except InjectedFault as exc:
            # A chaos fault at the flush site settles the whole batch
            # with a typed error; letting it propagate would kill the
            # shard's worker task and deadlock every later request.
            outcomes = [(None, exc)] * len(batch)
        use_pool = outcomes is None and bool(self._n_workers)
        if use_pool and not self._breaker.allow():
            # Breaker open: the pool has been failing; route in-process
            # until a half-open probe proves it healthy again.
            use_pool = False
            with self._lat_lock:
                self._n_worker_fallbacks += len(batch)
        if use_pool:
            # A live deadline caps how long we wait on worker pipes; the
            # earliest one in the batch governs (plus slack so a reply
            # racing the deadline still lands).
            timeout_s = None
            deadlines = [p.deadline for p in batch if p.deadline is not None]
            if deadlines:
                timeout_s = max(0.05, min(deadlines) - loop.time() + 0.25)
                if self._worker_timeout_s is not None:
                    # The deadline tightens the configured RPC timeout,
                    # never loosens it.
                    timeout_s = min(timeout_s, self._worker_timeout_s)
            try:
                outcomes = await loop.run_in_executor(
                    self._get_executor(),
                    functools.partial(self._pool_flush, requests, timeout_s),
                )
            except Exception:
                # Pool unusable (e.g. boot failure, now disabled):
                # serve this batch in-process like workers=0.
                self._breaker.record_failure()
                with self._lat_lock:
                    self._n_worker_fallbacks += len(batch)
        if outcomes is None:
            outcomes = await loop.run_in_executor(
                self._get_executor(), self._answer_inprocess, requests
            )
        for p, (reply, exc) in zip(batch, outcomes):
            self._settle(shard, p, reply, exc, t_flush)
        with shard.lock:
            shard.batches += 1
            shard.reasons[reason] += 1
            shard.sizes[len(batch)] += 1

    def _answer_inprocess(
        self, requests: Sequence[KernelRequest]
    ) -> list[tuple[KernelReply | None, BaseException | None]]:
        """Answer a batch in-process (executor thread): one
        ``query_many``, then per-request ``query`` only if that raised.

        A poisoned batch (one illegal request) must not take its
        neighbours down: on the per-request retry only the genuinely bad
        requests fail, each with its own error.
        """
        try:
            return [(r, None) for r in self._engine.query_many(requests)]
        except Exception:
            with self._lat_lock:
                self._n_batch_failures += 1
        out: list[tuple[KernelReply | None, BaseException | None]] = []
        for request in requests:
            try:
                out.append((self._engine.query(request), None))
            except Exception as exc:
                out.append((None, exc))
        return out

    def _settle(
        self,
        shard: _Shard,
        p: _Pending,
        reply: KernelReply | None,
        exc: BaseException | None,
        t_flush: float | None = None,
    ) -> None:
        if self._inflight.get(p.key) is p.future:
            del self._inflight[p.key]
        self._pending -= 1
        now = self._loop.time()
        with shard.lock:
            shard.latencies.append(now - p.t_submit)
            if t_flush is not None:
                # Split the miss: batching-window wait vs. search time.
                shard.queue_waits.append(max(0.0, t_flush - p.t_submit))
                shard.search_times.append(max(0.0, now - t_flush))
        if reply is not None and reply.source == "search":
            with self._lat_lock:
                self._version_counts[reply.model_version or 0] += 1
        if p.future.done():  # e.g. cancelled by a dying caller
            return
        if exc is not None:
            p.future.set_exception(exc)
        else:
            p.future.set_result(reply)

    # ------------------------------------------------------------------
    # The sharded worker tier (workers >= 1)
    # ------------------------------------------------------------------
    def start_workers(self) -> int:
        """Boot the worker pool now instead of on the first miss flush.

        Returns the number of live worker processes (0 when the tier is
        not configured).  Idempotent; callers that want boot cost out of
        their serving latency (the CLI, benchmarks) call this once
        up front.
        """
        if not self._n_workers:
            return 0
        return len(self._ensure_pool())

    def _ensure_pool(self):
        pool = self._pool
        if pool is not None:
            return pool
        with self._pool_lock:
            if self._pool is None:
                from repro.service.worker_pool import WorkerPool

                try:
                    self._pool = WorkerPool(
                        self._engine,
                        self._n_workers,
                        reply_timeout_s=self._worker_timeout_s,
                        heartbeat_s=self._worker_heartbeat_s,
                    )
                except BaseException:
                    # A boot that cannot succeed (resource limits, bad
                    # state) must not be retried on every flush; degrade
                    # to the in-process path for the engine's lifetime.
                    self._n_workers = 0
                    raise
            return self._pool

    def _pool_flush(
        self,
        requests: Sequence[KernelRequest],
        timeout_s: float | None = None,
    ) -> list[tuple[KernelReply | None, BaseException | None]]:
        """One shard batch through the worker pool (executor thread).

        The parent stays cache-authoritative: each request probes the
        two cache levels here (a racing flush may have stored its key),
        only true misses ship to workers, and every worker result is
        written back through :meth:`Engine.store_search_result`.  Misses
        stripe across the ring *by request cache key*, so one hot shard
        spreads over every worker.  Every per-request worker failure —
        crash after retries, unservable pair, search error — falls back
        in-process, all of them together in one
        :meth:`_answer_inprocess` batch, which re-raises genuine request
        errors with their real tracebacks.
        """
        pool = self._ensure_pool()
        resolved = [self._engine.resolve(r) for r in requests]
        out: list = [None] * len(requests)
        by_worker: dict[int, list[int]] = {}
        fallbacks: list[int] = []
        alive = [w for w in range(len(pool)) if pool.alive(w)]
        for i, (req, spec, key) in enumerate(resolved):
            reply = self._engine.probe_cache(req, spec, key)
            if reply is not None:
                out[i] = (reply, None)
                continue
            wid = None
            if alive and (req.device, req.op) in pool.pairs:
                wid = pool.route(key)
                if not pool.alive(wid):
                    # Deterministic re-home keeps retries stable.
                    wid = alive[_ring_index(key, len(alive))]
            if wid is None:
                fallbacks.append(i)
            else:
                by_worker.setdefault(wid, []).append(i)
        submitted = []
        for wid, idxs in by_worker.items():
            req0 = resolved[idxs[0]][0]
            shapes = [resolved[i][0].shape for i in idxs]
            # One shard per batch => one (device, op, k, reps) per batch.
            submitted.append((idxs, pool.submit_flush(
                wid, req0.device, req0.op, shapes, req0.k, req0.reps,
                timeout_s=timeout_s,
            )))
            with self._lat_lock:
                self._n_worker_flushes += 1
        if not submitted:
            # A half-open probe that never reached the pool proves
            # nothing; re-open so the next flush probes for real.
            self._breaker.abandon_probe()
        for idxs, future in submitted:
            try:
                results = future.result()
            except Exception:
                self._breaker.record_failure()
                results = [(False, "worker crashed")] * len(idxs)
            else:
                self._breaker.record_success()
            for i, (ok, payload) in zip(idxs, results):
                req = resolved[i][0]
                if not ok:
                    fallbacks.append(i)
                    continue
                cfg, pred, meas, version = payload
                best = RankedKernel(
                    config=cfg, predicted_tflops=pred,
                    measured_tflops=meas, source="reranked",
                    model_version=version,
                )
                try:
                    out[i] = (
                        self._engine.store_search_result(req, best), None
                    )
                except Exception as exc:
                    out[i] = (None, exc)
        if fallbacks:
            with self._lat_lock:
                self._n_worker_fallbacks += len(fallbacks)
            answers = self._answer_inprocess(
                [resolved[i][0] for i in fallbacks]
            )
            for i, outcome in zip(fallbacks, answers):
                out[i] = outcome
        return out

    def _get_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            import os

            workers = self._max_workers or max(
                self._n_workers + 1, min(4, (os.cpu_count() or 2))
            )
            self._executor = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-async-engine",
            )
        return self._executor

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            # First use binds the serving loop; under _start_lock so a
            # concurrent start()/auto-start cannot bind a second loop
            # and strand one side's submissions.
            with self._start_lock:
                if self._loop is None:
                    self._loop = loop
        if loop is not self._loop:
            raise EngineError(
                "AsyncEngine is bound to another event loop; create one "
                "front door per loop (or use start() + query_sync)"
            )
        if (
            self._online_task is None
            and not self._closed
            and self._engine.online is not None
        ):
            self._online_task = loop.create_task(self._online_loop())
        return loop

    # ------------------------------------------------------------------
    # The online fine-tune driver (asyncio side)
    # ------------------------------------------------------------------
    async def _online_loop(self) -> None:
        """Drive the engine's online learner from the serving loop.

        Training and hot-swapping run on the executor (they hold the
        tuner locks, never the loop); finished updates propagate to the
        worker tier so workers answer with the same model version the
        parent would.
        """
        learner = self._engine.online
        interval = learner.config.interval_s if learner else None
        poll = min(interval / 2, 1.0) if interval else 0.25
        loop = self._loop
        while not self._closed:
            await asyncio.sleep(poll)
            try:
                await loop.run_in_executor(
                    self._get_executor(), self._run_online_once
                )
            except asyncio.CancelledError:
                raise
            except Exception:
                continue  # serving never depends on fine-tune health

    def _run_online_once(self) -> int:
        """One cadence step (executor thread): train, swap, propagate."""
        updates = self._engine.run_online_updates()
        pool = self._pool
        if updates and pool is not None:
            fits = self._engine.export_fits(
                sorted({(u.device, u.op) for u in updates})
            )
            pool.broadcast_fits(fits)
        return len(updates)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self) -> AsyncEngineStats:
        """A consistent snapshot of service + per-shard counters.

        Safe from any thread: if the serving loop (background bridge or
        caller-owned) is running and we are not on it, the snapshot is
        taken *on* the loop so counters and reservoirs are never read
        mid-update.
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is not loop:
                try:
                    return asyncio.run_coroutine_threadsafe(
                        self._snapshot_async(), loop
                    ).result(timeout=1.0)
                except (FuturesTimeoutError, RuntimeError):
                    # The loop stopped (close() raced us) or is blocked;
                    # the direct read below is still safe — the shard
                    # stats containers are lock-guarded.
                    pass
        return self._snapshot()

    async def _snapshot_async(self) -> AsyncEngineStats:
        return self._snapshot()

    def _snapshot(self) -> AsyncEngineStats:
        shards = []
        miss_all: list[float] = []
        queue_all: list[float] = []
        search_all: list[float] = []
        for shard in list(self._shards.values()):
            with shard.lock:
                lat = sorted(shard.latencies)
                reasons = dict(shard.reasons)
                sizes = dict(shard.sizes)
                batches = shard.batches
                queue_all.extend(shard.queue_waits)
                search_all.extend(shard.search_times)
            miss_all.extend(lat)
            shards.append(ShardStats(
                shard=shard.key,
                queue_depth=shard.queue.qsize(),
                submitted=shard.submitted,
                batches=batches,
                flush_reasons=reasons,
                batch_sizes=sizes,
                p50_ms=_percentile_ms(lat, 0.50),
                p95_ms=_percentile_ms(lat, 0.95),
                max_ms=_percentile_ms(lat, 1.0),
            ))
        with self._lat_lock:
            hits = sorted(self._hit_latencies)
            miss_all.extend(self._coalesced_latencies)
            versions = dict(self._version_counts)
        miss_all.sort()
        queue_all.sort()
        search_all.sort()
        learner = self._engine.online
        online_updates = len(learner.update_log()) if learner else 0
        estats = self._engine.stats()
        return AsyncEngineStats(
            submitted=self._n_submitted,
            cache_hits=self._n_cache_hits,
            coalesced=self._n_coalesced,
            rejected=self._n_rejected,
            batch_failures=self._n_batch_failures,
            pending=self._pending,
            workers=self._n_workers,
            worker_flushes=self._n_worker_flushes,
            worker_fallbacks=self._n_worker_fallbacks,
            hit_p50_ms=_percentile_ms(hits, 0.50),
            hit_p95_ms=_percentile_ms(hits, 0.95),
            miss_p50_ms=_percentile_ms(miss_all, 0.50),
            miss_p95_ms=_percentile_ms(miss_all, 0.95),
            miss_queue_p50_ms=_percentile_ms(queue_all, 0.50),
            miss_search_p50_ms=_percentile_ms(search_all, 0.50),
            cascade_searches=estats.cascade_searches,
            exhaustive_searches=estats.exhaustive_searches,
            cascade_fallbacks=estats.cascade_fallbacks,
            model_versions=versions,
            online_updates=online_updates,
            shards=tuple(shards),
            deadlines_exceeded=self._n_deadlines,
            deadline_shed=self._n_deadline_shed,
            breaker_state=self._breaker.state,
            breaker_trips=self._breaker.trips,
            breaker_recoveries=self._breaker.recoveries,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Graceful drain: refuse new work, flush the backlog, flush disk.

        Everything admitted before ``aclose`` is answered (those batches
        flush with reason ``drain``); then the executor stops and, for an
        owned engine, ``Engine.close()`` persists profiles + candidates.
        Idempotent.  Must run on the engine's bound loop (from sync code
        use :meth:`close`); the guard raises *before* the engine refuses
        new work, and finalization is in a ``finally`` so a failed drain
        can never skip the disk flush.
        """
        if self._loop is not None:
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is not None and running is not self._loop:
                raise EngineError(
                    "aclose() must run on the engine's bound event "
                    "loop; from sync code use close()"
                )
        self._closed = True
        if self._drained:
            return
        try:
            for shard in list(self._shards.values()):
                await shard.queue.put(_CLOSE)
            workers = [s.worker for s in self._shards.values() if s.worker]
            if workers:
                await asyncio.gather(*workers)
        finally:
            self._drained = True
            if self._online_task is not None:
                self._online_task.cancel()
                try:
                    await self._online_task
                except (asyncio.CancelledError, Exception):
                    pass
                self._online_task = None
            # Shards are drained (or died trying): no flush can still
            # reach the pool, so stop the worker processes and free the
            # shared segment before the caches flush to disk.
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            if self._own_engine:
                self._engine.close()

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Sync bridge: a background event-loop thread
    # ------------------------------------------------------------------
    def start(self) -> "AsyncEngine":
        """Run the front door on a private background event loop.

        For sync callers (the harness, the CLI, legacy scripts): after
        ``start()``, :meth:`query_sync` / :meth:`query_many_sync` submit
        from any thread and :meth:`close` drains and stops the loop.
        """
        with self._start_lock:
            if self._loop is not None:
                raise EngineError(
                    "AsyncEngine already bound to an event loop"
                )
            self._spawn_loop_locked()
        return self

    def _spawn_loop_locked(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="repro-async-engine-loop",
            daemon=True,
        )
        self._thread.start()

    def _bridge_submit(self, coro):
        """Schedule a coroutine on the background loop; races with
        :meth:`close` are serialized by ``_start_lock``, so a submission
        either lands before the loop stops (its callback runs — FIFO —
        and resolves the future, if only with an error) or observes the
        closed engine and fails cleanly, never hangs."""
        with self._start_lock:
            if self._closed:
                coro.close()
                raise EngineError("async engine is closed")
            if self._thread is None:
                if self._loop is not None:
                    coro.close()
                    raise EngineError(
                        "AsyncEngine is bound to a caller-owned event "
                        "loop; use the async API there"
                    )
                self._spawn_loop_locked()
            return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def query_sync(
        self, request: KernelRequest, timeout: float | None = None
    ) -> KernelReply:
        """Blocking :meth:`query` via the background loop (auto-started)."""
        return self._bridge_submit(self.query(request)).result(timeout)

    def query_many_sync(
        self,
        requests: Sequence[KernelRequest],
        timeout: float | None = None,
    ) -> list[KernelReply]:
        """Blocking :meth:`query_many` via the background loop."""
        return self._bridge_submit(
            self.query_many(list(requests))
        ).result(timeout)

    def close(self) -> None:
        """Sync drain + shutdown (for background-loop / never-started use).

        Inside a caller-owned running loop use ``await aclose()``
        instead.  Holds ``_start_lock`` for the whole teardown, so a
        racing :meth:`query_sync` either submits before the loop stops
        (and gets an answer or a clean error) or waits and is refused.
        """
        if self._loop is not None and self._loop.is_running():
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is self._loop:
                raise EngineError(
                    "close() called from inside the event loop; use "
                    "`await aclose()`"
                )
        with self._start_lock:
            if self._thread is not None:
                asyncio.run_coroutine_threadsafe(
                    self.aclose(), self._loop
                ).result()
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join()
                self._loop.close()
                self._thread = None
                return
            if self._loop is not None and self._loop.is_running():
                raise EngineError(
                    "a caller-owned event loop is still serving; "
                    "`await aclose()` there instead"
                )
            # Never served from a loop: nothing to drain.
            self._closed = True
            self._drained = True
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            if self._own_engine:
                self._engine.close()

    def __enter__(self) -> "AsyncEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
