"""The Engine: one concurrent front door for tuning, search and serving.

The paper's deliverable is a runtime answer to *"which kernel for this
shape, now"*.  The low-level API answers it one pair at a time: callers
hand-wire an :class:`~repro.core.tuner.Isaac` per (device, op), consult a
:class:`~repro.core.profile_cache.ProfileCache` themselves, and loop over
shapes.  That cannot serve heavy multi-tenant traffic.  Like AutoTVM's
``task -> tuner -> apply_history_best`` flow and cuDNN's single-handle
heuristics API, :class:`Engine` is the one stable facade in front of the
whole pipeline:

* **model store** — :meth:`Engine.open` points the engine at a directory
  of fits saved by :meth:`Engine.tune` / :meth:`Isaac.save`; each
  (device, op) tuner is loaded lazily on first use and kept hot;
* **two-level cache** — a thread-safe in-memory LRU in front of the
  on-disk :class:`ProfileCache`, consulted before any model search; new
  results are written through to both levels, so LRU eviction falls back
  to the profile cache rather than re-searching;
* **batching planner** — :meth:`query_many` groups concurrent mixed-op /
  mixed-device requests by (device, op, dtype, k, reps) and routes each
  group through :meth:`Isaac.top_k_batch`, amortizing the model pass the
  way a deployment warms its cache for a whole network
  (:meth:`Engine.warmup`);
* **candidate store** — enumerated candidate sets (the vectorized
  product-space survivors; CONV buckets derive from the GEMM ones)
  persist as ``.npz`` records next to the profile cache;
  :meth:`Engine.open` seeds the in-process caches from it, so a warmed
  deployment cold-starts without enumerating any product space (saved
  on :meth:`warmup` / :meth:`close`);
* **concurrency** — :meth:`query` / :meth:`query_many` are thread-safe:
  per-tuner locks serialize the (stateful) exhaustive search, duplicate
  in-flight shapes are deduplicated so N concurrent queries for one shape
  cost one search, and groups are dispatched on a ``ThreadPoolExecutor``.

``Isaac`` remains the documented low-level API; the engine composes it
without changing its semantics — :meth:`query` returns exactly what
:meth:`Isaac.best_kernel` would for the same (shape, k, reps).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core import integrity
from repro.core.candidate_store import CandidateStore
from repro.core.ops import OpSpec, get_op
from repro.core.profile_cache import ProfileCache
from repro.core.tuner import Isaac, TuneReport
from repro.core.types import DType
from repro.gpu.device import DeviceSpec, get_device
from repro.inference.partition import blas_threads, scoring_width
from repro.inference.topk import RankedKernel, rerank
from repro.service.faults import inject
from repro.service.online import ModelUpdate, OnlineConfig, OnlineLearner
from repro.workloads.networks import NetworkStep


class EngineError(RuntimeError):
    """A request the engine cannot serve (unknown model, closed engine)."""


class DeadlineExceeded(EngineError):
    """A request's ``deadline_ms`` budget ran out before its answer.

    Raised at admission when the budget is already non-positive, when a
    queued request expires before its batch flushes (shed, never
    searched), and to a waiting client whose reply did not arrive in
    time.  Always a per-request error: the engine itself stays healthy.
    """


# ----------------------------------------------------------------------
# Request / reply envelope
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelRequest:
    """One "which kernel?" question.

    ``device`` may be omitted when the engine serves a single device.
    ``k`` (re-ranked short-list length) and ``reps`` (benchmark
    repetitions) are search-time knobs: like ``Isaac.best_kernel``'s
    ``cache`` parameter, they are not part of the cached result's
    identity — the first answer for a (device, op, shape) is served to
    every later request for it.

    ``deadline_ms`` is this request's end-to-end budget, measured from
    admission.  ``None`` (the default) means wait forever.  A request
    whose budget runs out fails with :class:`DeadlineExceeded` — at
    admission if already non-positive, shed from its shard queue if it
    expires before the batch flushes, or raised to the waiting client.
    Like ``k``/``reps`` it is not part of result identity or of
    :meth:`group_key`.
    """

    op: str
    shape: Any
    device: str | None = None
    k: int = 100
    reps: int = 3
    deadline_ms: float | None = None

    def group_key(self) -> tuple:
        """The batchable-unit key for a *resolved* request.

        Requests sharing this tuple can be answered by one
        :meth:`Isaac.top_k_batch` pass — it is the grouping of the sync
        engine's batching planner and of the async engine's shards, kept
        in one place so the two can never diverge.
        """
        return (self.device, self.op, self.shape.dtype.name, self.k,
                self.reps)


@dataclass(frozen=True)
class KernelReply:
    """The engine's answer, with provenance.

    ``source`` is ``"search"`` for a fresh model search + re-rank,
    ``"lru"`` for an in-memory hit and ``"profile"`` for an on-disk
    profile-cache hit (both cache sources report ``predicted_tflops`` as
    NaN — the caches persist only measurements).

    ``model_version`` names the fit that ranked a ``"search"`` answer
    (0 = offline fit, incremented by each online fine-tune); cache hits
    carry None — the caches persist measurements, not provenance.
    """

    request: KernelRequest
    config: Any
    predicted_tflops: float
    measured_tflops: float
    source: str
    model_version: int | None = None

    @property
    def tflops(self) -> float:
        return self.measured_tflops


@dataclass
class EngineStats:
    """Counters since construction (returned by :meth:`Engine.stats`).

    The ``cascade_*`` fields aggregate the two-stage cascade counters of
    every hot tuner's search: searches served from the shortlist path,
    searches that ran exhaustively (disabled/uncalibrated/tiny sets),
    query-time fallbacks (failed margin or width check), candidates
    stage 2 never scored, and wall-clock spent in each stage.
    """

    lru_hits: int = 0
    profile_hits: int = 0
    searches: int = 0
    dedup_waits: int = 0
    evictions: int = 0
    online_updates: int = 0
    model_swaps: int = 0
    cascade_searches: int = 0
    exhaustive_searches: int = 0
    cascade_fallbacks: int = 0
    cascade_pruned: int = 0
    cascade_stage1_ms: float = 0.0
    cascade_stage2_ms: float = 0.0

    @property
    def queries(self) -> int:
        return self.lru_hits + self.profile_hits + self.searches

    @property
    def lru_hit_ratio(self) -> float:
        """Fraction of queries served from the in-memory LRU."""
        return self.lru_hits / self.queries if self.queries else 0.0

    @property
    def profile_hit_ratio(self) -> float:
        """Fraction of queries served from the on-disk profile cache."""
        return self.profile_hits / self.queries if self.queries else 0.0

    @property
    def hit_ratio(self) -> float:
        """Fraction of queries served from either cache level."""
        hits = self.lru_hits + self.profile_hits
        return hits / self.queries if self.queries else 0.0


# ----------------------------------------------------------------------
# In-memory level-1 cache
# ----------------------------------------------------------------------

class _LruCache:
    """A bounded mapping with least-recently-used eviction.

    Not internally locked: the engine guards every access with its cache
    lock (the same lock that orders writes to the profile cache behind
    it).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"lru_capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.evictions = 0
        self._data: OrderedDict[str, tuple[Any, float]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> tuple[Any, float] | None:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: str, value: tuple[Any, float]) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1


def _device_slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _model_filename(device_name: str, op_name: str) -> str:
    return f"{_device_slug(device_name)}--{op_name}.npz"


def _set_cascade(tuner: Isaac, enabled: bool, keep: int | None) -> None:
    """Apply a front door's cascade policy to one tuner's search."""
    search = tuner.searcher
    if search is not None:
        search.set_cascade(enabled, keep=keep)


# ----------------------------------------------------------------------
# The miss path's search step, shared by every front door
# ----------------------------------------------------------------------

def _rank_misses(
    tuner: Isaac,
    lock: threading.Lock,
    shapes: Sequence,
    k: int,
    reps: int,
) -> Iterator[list[RankedKernel]]:
    """Model top-k plus device re-rank for one batch of missed shapes.

    Yields each shape's re-ranked shortlist, best measured first, as
    soon as its own re-rank ends, so a caller can publish it before the
    next shape's re-rank.  Its head is what
    ``Isaac.best_kernel(shape, k=k, reps=reps)`` returns, stamped with
    the ``model_version`` of the fit that ranked it.  A one-shape batch
    ranks through ``top_k``, larger ones through one ``top_k_batch``
    model pass.  ``Engine`` flushes and worker processes both search
    through here.
    """
    with lock:
        # ExhaustiveSearch mutates per-instance caches: one search per
        # tuner at a time.  The version is read under the lock the
        # hot-swap takes, so it names the fit that ranked these lists.
        if len(shapes) == 1:
            tops = [tuner.top_k(shapes[0], k)]
        else:
            tops = tuner.top_k_batch(list(shapes), k)
        version = tuner.fit_result.model_version
    for shape, top in zip(shapes, tops):
        ranked = rerank(tuner.device, shape, top, op=tuner.spec, reps=reps)
        ranked[0].model_version = version
        yield ranked


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class Engine:
    """Concurrent facade over every (device, op) tuner.

    Typical service use::

        with Engine.open("models/") as engine:
            reply = engine.query(KernelRequest("gemm", shape))
            replies = engine.query_many(requests)   # batched dispatch

    Typical offline use::

        engine = Engine(model_dir="models/")
        engine.tune("pascal", "gemm", n_samples=20_000)   # fits + saves
    """

    def __init__(
        self,
        *,
        model_dir: str | Path | None = None,
        profile_cache: ProfileCache | str | Path | None = None,
        candidate_store: CandidateStore | str | Path | None = None,
        lru_capacity: int = 4096,
        max_workers: int | None = None,
        online: OnlineConfig | None = None,
        cascade: bool = True,
        cascade_keep: int | None = None,
    ):
        if max_workers is not None and max_workers < 0:
            # 0 is meaningful (inline group dispatch, no executor).
            raise ValueError(
                f"max_workers must be >= 0 when given, got {max_workers}"
            )
        if cascade_keep is not None and cascade_keep < 1:
            raise ValueError(
                f"cascade_keep must be >= 1 when given, got {cascade_keep}"
            )
        self._model_dir = Path(model_dir) if model_dir is not None else None
        #: two-stage cascade policy, applied to every tuner the engine
        #: serves (registered, tuned or lazily loaded).
        self._cascade_enabled = bool(cascade)
        self._cascade_keep = cascade_keep
        if isinstance(profile_cache, (str, Path)):
            profile_cache = ProfileCache(profile_cache)
        self._profiles = profile_cache
        if isinstance(candidate_store, (str, Path)):
            candidate_store = CandidateStore(candidate_store)
        self._candidates = candidate_store
        if self._candidates is not None:
            # Seed the in-process candidate caches: a warmed store means
            # this engine never re-enumerates a product space.
            self._candidates.load()
        self._lru = _LruCache(lru_capacity)
        self._stats = EngineStats()

        #: hot tuners + lazily loadable fits, both keyed (device name, op).
        self._tuners: dict[tuple[str, str], Isaac] = {}
        self._model_index: dict[tuple[str, str], Path] = {}
        self._tuner_locks: dict[tuple[str, str], threading.Lock] = {}
        self._load_locks: dict[tuple[str, str], threading.Lock] = {}

        self._registry_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}

        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._closed = False

        #: the online learning loop (None = frozen fits, the default —
        #: the offline determinism contract depends on that default).
        self._learner = OnlineLearner(online) if online is not None else None
        self._online_thread: threading.Thread | None = None
        self._online_stop = threading.Event()
        self._online_wake = threading.Event()
        self._online_finalized = False
        self._n_swaps = 0

        if self._model_dir is not None and self._model_dir.is_dir():
            self._scan_model_dir()

    # ------------------------------------------------------------------
    # Model store
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        model_dir: str | Path,
        *,
        profile_cache: ProfileCache | str | Path | None = None,
        candidate_store: CandidateStore | str | Path | None = None,
        **kwargs,
    ) -> "Engine":
        """An engine over a directory of saved fits.

        Every ``*.npz`` with an ``Isaac.save`` sidecar is indexed; the
        tuner itself is loaded on first query for its (device, op) and
        kept hot.  Unless overridden, tuned-kernel profiles persist in
        ``<model_dir>/profiles.json`` and enumerated candidate sets in
        ``<model_dir>/candidates/`` (loaded now, so a warmed store makes
        cold start skip product-space enumeration entirely).
        """
        model_dir = Path(model_dir)
        if not model_dir.is_dir():
            raise EngineError(
                f"model directory {model_dir} does not exist; create one "
                "with Engine(model_dir=...).tune(...) or Isaac.save()"
            )
        if profile_cache is None:
            profile_cache = model_dir / "profiles.json"
        if candidate_store is None:
            candidate_store = model_dir / "candidates"
        return cls(
            model_dir=model_dir,
            profile_cache=profile_cache,
            candidate_store=candidate_store,
            **kwargs,
        )

    def _scan_model_dir(self) -> None:
        import json
        import warnings

        for path in sorted(self._model_dir.glob("*.npz")):
            sidecar = path.with_suffix(path.suffix + ".meta.json")
            if not sidecar.exists():
                continue
            if integrity.check(path) is False:
                target = integrity.quarantine(path)
                warnings.warn(
                    f"model file {path} failed its integrity check; "
                    f"quarantined to {target.name} — retune or restore "
                    "the fit to serve this (device, op) again",
                    stacklevel=2,
                )
                continue
            meta = json.loads(sidecar.read_text())
            self._model_index[(meta["device"], meta["op"])] = path

    def register(self, tuner: Isaac) -> None:
        """Serve an already-tuned (or loaded) ``Isaac`` through the engine."""
        if not tuner.is_tuned:
            raise EngineError(
                f"tuner for ({tuner.device.name}, {tuner.op}) is not tuned"
            )
        key = (tuner.device.name, tuner.op)
        _set_cascade(tuner, self._cascade_enabled, self._cascade_keep)
        with self._registry_lock:
            self._tuners[key] = tuner
            self._tuner_locks.setdefault(key, threading.Lock())

    def tune(
        self,
        device: str | DeviceSpec,
        op: str | OpSpec,
        *,
        dtypes: Sequence[DType] | None = None,
        save: bool = True,
        **tune_kwargs,
    ) -> TuneReport:
        """Run the offline phase for one (device, op) and serve the result.

        With a ``model_dir`` configured (and ``save=True``), the fit is
        persisted there under a canonical name so a later
        :meth:`Engine.open` finds it.
        """
        if isinstance(device, str):
            device = get_device(device)
        tuner = Isaac(device, op=op, dtypes=dtypes)
        report = tuner.tune(**tune_kwargs)
        if save and self._model_dir is not None:
            self._model_dir.mkdir(parents=True, exist_ok=True)
            path = self._model_dir / _model_filename(device.name, tuner.op)
            tuner.save(path)
            with self._registry_lock:
                self._model_index[(device.name, tuner.op)] = path
        self.register(tuner)
        return report

    def _tuner(self, device_name: str, op_name: str) -> Isaac:
        """The hot tuner for (device, op), lazily loading a saved fit.

        The load itself runs outside ``_registry_lock`` (under a per-key
        lock) so one cold model load never stalls lookups of already-hot
        pairs.
        """
        key = (device_name, op_name)
        with self._registry_lock:
            tuner = self._tuners.get(key)
            if tuner is not None:
                return tuner
            path = self._model_index.get(key)
            if path is None:
                known = sorted(set(self._tuners) | set(self._model_index))
                raise EngineError(
                    f"no model for device={device_name!r} op={op_name!r}; "
                    f"available: {known or 'none'}"
                )
            load_lock = self._load_locks.setdefault(key, threading.Lock())
        with load_lock:
            with self._registry_lock:
                tuner = self._tuners.get(key)
                if tuner is not None:
                    return tuner
            try:
                tuner = Isaac.load(path)
            except Exception as exc:
                # A fit that rotted after the boot-time scan: quarantine
                # it and drop the index entry so later queries fail fast
                # with a typed error instead of re-parsing garbage.
                import warnings

                target = None
                if path.exists():
                    target = integrity.quarantine(path)
                with self._registry_lock:
                    self._model_index.pop(key, None)
                warnings.warn(
                    f"model file {path} is unreadable; quarantined to "
                    f"{target.name if target else '(missing)'}",
                    stacklevel=2,
                )
                raise EngineError(
                    f"model for device={device_name!r} op={op_name!r} is "
                    f"unreadable and was quarantined ({exc})"
                ) from exc
            _set_cascade(tuner, self._cascade_enabled, self._cascade_keep)
            with self._registry_lock:
                self._tuners[key] = tuner
                self._tuner_locks.setdefault(key, threading.Lock())
            return tuner

    def _known_pairs(self) -> set[tuple[str, str]]:
        with self._registry_lock:
            return set(self._tuners) | set(self._model_index)

    def devices(self) -> tuple[str, ...]:
        """Device names the engine can serve (hot or lazily loadable)."""
        return tuple(sorted({d for d, _ in self._known_pairs()}))

    def ops(self, device: str | None = None) -> tuple[str, ...]:
        """Op names servable (optionally restricted to one device)."""
        pairs = self._known_pairs()
        return tuple(
            sorted({o for d, o in pairs if device is None or d == device})
        )

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def _resolve(
        self, request: KernelRequest
    ) -> tuple[KernelRequest, OpSpec, str]:
        """Canonicalize one request: full device name + its cache key."""
        if self._closed:
            raise EngineError("engine is closed")
        spec = get_op(request.op)
        device_name = request.device
        if device_name is None:
            known = self.devices()
            if len(known) != 1:
                raise EngineError(
                    "request names no device and the engine serves "
                    f"{list(known) or 'none'}; set KernelRequest.device"
                )
            device_name = known[0]
        else:
            # Accept aliases ("pascal") but key everything canonically.
            device_name = get_device(device_name).name
        if not isinstance(request.shape, spec.shape_type):
            raise EngineError(
                f"op {spec.name!r} expects {spec.shape_type.__name__}, "
                f"got {type(request.shape).__name__}"
            )
        if request.k < 1:
            raise EngineError(f"k must be >= 1, got {request.k}")
        if request.reps < 1:
            raise EngineError(f"reps must be >= 1, got {request.reps}")
        if request.deadline_ms is not None and request.deadline_ms <= 0:
            raise DeadlineExceeded(
                f"deadline_ms={request.deadline_ms} was already spent at "
                "admission"
            )
        if request.device != device_name or request.op != spec.name:
            request = replace(request, device=device_name, op=spec.name)
        return request, spec, spec.profile_key(device_name, request.shape)

    def _cached_reply_locked(
        self, request: KernelRequest, spec: OpSpec, key: str
    ) -> KernelReply | None:
        """Level-1 then level-2 lookup; caller holds the cache lock."""
        hit = self._lru.get(key)
        if hit is not None:
            self._stats.lru_hits += 1
            cfg, tflops = hit
            return self._cache_reply(request, cfg, tflops, "lru")
        if self._profiles is not None:
            found = self._profiles.get(spec, request.device, request.shape)
            if found is not None:
                cfg, tflops = found
                self._lru.put(key, (cfg, tflops))
                self._stats.profile_hits += 1
                return self._cache_reply(request, cfg, tflops, "profile")
        return None

    @staticmethod
    def _cache_reply(
        request: KernelRequest, cfg: Any, tflops: float, source: str
    ) -> KernelReply:
        return KernelReply(
            request=request,
            config=cfg,
            predicted_tflops=float("nan"),
            measured_tflops=tflops,
            source=source,
        )

    def _store_locked(
        self, request: KernelRequest, spec: OpSpec, key: str,
        best: RankedKernel,
    ) -> None:
        """Write-through: LRU + the profile cache's in-memory map."""
        self._lru.put(key, (best.config, best.measured_tflops))
        self._stats.evictions = self._lru.evictions
        self._stats.searches += 1
        if self._profiles is not None:
            self._profiles.put(
                spec,
                request.device,
                request.shape,
                best.config,
                best.measured_tflops,
            )

    def _publish(
        self, request: KernelRequest, spec: OpSpec, key: str,
        ranked: Sequence[RankedKernel],
    ) -> KernelReply:
        """Turn one search's re-ranked list into its answer.

        The winner ``ranked[0]`` is written through both cache levels,
        every measured pair in ``ranked`` goes to the online learner, and
        the ``"search"`` reply is built — for in-process searches and
        worker results alike.
        """
        best = ranked[0]
        with self._cache_lock:
            self._store_locked(request, spec, key, best)
        self._observe_rerank(request, spec, ranked)
        return KernelReply(
            request=request,
            config=best.config,
            predicted_tflops=best.predicted_tflops,
            measured_tflops=best.measured_tflops,
            source="search",
            model_version=best.model_version,
        )

    # ------------------------------------------------------------------
    # Hooks for the asyncio front door (service/async_engine.py)
    # ------------------------------------------------------------------
    def resolve(self, request: KernelRequest) -> tuple[KernelRequest, OpSpec, str]:
        """Canonicalized request, its :class:`OpSpec` and its cache key.

        The cache key identifies a (device, op, shape) result — ``k`` and
        ``reps`` are search-time knobs, not part of result identity — so
        front doors (e.g. :class:`~repro.service.async_engine.AsyncEngine`)
        can coalesce duplicate traffic before it ever reaches a queue.
        """
        return self._resolve(request)

    def probe_cache(
        self, request: KernelRequest, spec: OpSpec, key: str
    ) -> KernelReply | None:
        """Serve one resolved request from the two cache levels only.

        Returns None on a full miss (no search is started).  Thread-safe;
        hits count in :meth:`stats` exactly like :meth:`query` hits.
        """
        with self._cache_lock:
            return self._cached_reply_locked(request, spec, key)

    def store_search_result(
        self, request: KernelRequest, best: RankedKernel
    ) -> KernelReply:
        """Publish a search result computed elsewhere (the worker tier).

        Published exactly as if :meth:`query` had run the search (the
        worker tier ships back only its winning pair, so that is all the
        online learner sees); returns the reply to hand to the caller.
        """
        inject("engine.store")
        request, spec, key = self._resolve(request)
        return self._publish(request, spec, key, [best])

    def export_fits(
        self, pairs: Iterable[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[bytes, tuple[str, ...]]]:
        """Current fit bytes (+ dtype names) for the given (device, op)
        pairs — what :meth:`WorkerPool.broadcast_fits` ships after an
        online hot-swap.  Each pair's bytes are read under its tuner
        lock, so a concurrent swap can never export a half-written fit.
        """
        from repro.mlp.serialize import fit_to_bytes

        out: dict[tuple[str, str], tuple[bytes, tuple[str, ...]]] = {}
        for device_name, op_name in pairs:
            tuner = self._tuner(device_name, op_name)
            lock = self._tuner_locks.get((device_name, op_name))
            if lock is None:
                continue
            with lock:
                out[(device_name, op_name)] = (
                    fit_to_bytes(tuner.fit_result),
                    tuple(d.name for d in tuner.dtypes),
                )
        return out

    def export_worker_state(self) -> "WorkerState":
        """Everything a worker process needs to serve this engine's pairs.

        Fits are serialized once per (device, op) — this loads any still
        lazy tuner, which is intended: worker boot is serve start.  The
        cached enumerations and every first-layer term the searches have
        built (its float32 twin, the one array a term holds) export as
        named arrays destined for one shared-memory segment
        (see :class:`~repro.core.soa.SharedArrayPack`); the metadata
        references arrays by name only, so it stays pipe-sized.  Each
        pair's fit bytes and terms are read together under its tuner
        lock, so a concurrent search or hot-swap can never ship one
        fit's bytes with another fit's terms.  CONV buckets do not ship:
        a worker derives them from the GEMM enumeration, and the CONV
        term ships once per (device, dtype), under its base key,
        whatever buckets the parent touched.
        """
        from repro.core.candidate_store import collect_cache_records
        from repro.mlp.serialize import fit_to_bytes

        fits: dict[tuple[str, str], tuple[bytes, tuple[str, ...]]] = {}
        arrays: dict[str, np.ndarray] = {}
        records: list[dict] = []
        for i, (key, op, space, params) in enumerate(
            collect_cache_records()
        ):
            columns = {}
            for pname, col in params.items():
                aname = f"rec{i}.{pname}"
                arrays[aname] = np.asarray(col)
                columns[pname] = aname
            records.append({
                "key": key, "op": op, "space": space, "columns": columns,
            })
        terms: list[dict] = []
        for pair in sorted(self._known_pairs()):
            tuner = self._tuner(*pair)
            with self._tuner_locks[pair]:
                fits[pair] = (
                    fit_to_bytes(tuner.fit_result),
                    tuple(d.name for d in tuner.dtypes),
                )
                snapshot = tuner.searcher.terms()
            for key, lo in snapshot.items():
                name = f"lo.{len(terms)}"
                arrays[name] = np.ascontiguousarray(lo)
                terms.append({
                    "device": pair[0], "op": pair[1], "key": key, "lo": name,
                })
        return WorkerState(
            fits=fits, records=records, terms=terms, arrays=arrays,
            cascade_enabled=self._cascade_enabled,
            cascade_keep=self._cascade_keep,
        )

    # ------------------------------------------------------------------
    # The batching planner (with in-flight deduplication)
    # ------------------------------------------------------------------
    def query(self, request: KernelRequest) -> KernelReply:
        """Answer one request: LRU -> profile cache -> model search.

        The planner of :meth:`query_many` run on one request.
        Thread-safe: concurrent queries for the same (device, op, shape)
        run exactly one search — the first becomes the leader, the rest
        wait on its result and read it from the cache.
        """
        return self._plan([self._resolve(request)])[0]

    def query_many(
        self, requests: Sequence[KernelRequest]
    ) -> list[KernelReply]:
        """Answer many requests through the batching planner.

        Cache hits are resolved inline; the misses are deduplicated and
        grouped by (device, op, dtype, k, reps), each group runs one
        :meth:`Isaac.top_k_batch` model pass, and groups execute
        concurrently on the engine's thread pool.  Replies align with
        ``requests`` and match per-request :meth:`query` exactly.
        """
        return self._plan([self._resolve(r) for r in requests])

    def _plan(
        self, resolved: list[tuple[KernelRequest, OpSpec, str]]
    ) -> list[KernelReply]:
        """The planner behind :meth:`query` and :meth:`query_many`."""
        replies: list[KernelReply | None] = [None] * len(resolved)
        todo = range(len(resolved))
        while todo:
            # Pass 1 — serve from the two cache levels, dedupe the misses.
            owned: dict[str, list[int]] = {}
            theirs: dict[str, list[int]] = {}
            waits: list[threading.Event] = []
            with self._cache_lock:
                for i in todo:
                    req, spec, key = resolved[i]
                    if key in owned:
                        owned[key].append(i)
                        continue
                    if key in theirs:
                        theirs[key].append(i)
                        continue
                    reply = self._cached_reply_locked(req, spec, key)
                    if reply is not None:
                        replies[i] = reply
                    elif key in self._inflight:
                        # Another thread is already searching this shape.
                        self._stats.dedup_waits += 1
                        theirs[key] = [i]
                        waits.append(self._inflight[key])
                    else:
                        self._inflight[key] = threading.Event()
                        owned[key] = [i]

            # Pass 2 — group our misses for batched dispatch.
            groups: dict[tuple, list[str]] = {}
            for key, idxs in owned.items():
                req, _spec, _ = resolved[idxs[0]]
                groups.setdefault(req.group_key(), []).append(key)
            try:
                self._run_groups(groups, owned, resolved, replies)
            finally:
                with self._cache_lock:
                    events = [self._inflight.pop(k) for k in owned]
                for event in events:
                    event.set()

            # Pass 3 — wait out the other leaders, then plan their shapes
            # again: answered from the cache, or led by us if one failed.
            for event in waits:
                event.wait()
            todo = [i for idxs in theirs.values() for i in idxs]
        return replies  # type: ignore[return-value]

    def _run_groups(
        self,
        groups: dict[tuple, list[str]],
        owned: dict[str, list[int]],
        resolved: list[tuple[KernelRequest, OpSpec, str]],
        replies: list[KernelReply | None],
    ) -> None:
        if not groups:
            return
        work = list(groups.items())
        executor = self._get_executor() if len(work) > 1 else None
        if executor is None:
            for item in work:
                self._search_group(item, owned, resolved, replies)
            return
        futures = [
            executor.submit(self._search_group, item, owned, resolved,
                            replies)
            for item in work
        ]
        wait(futures)
        for future in futures:
            future.result()  # propagate the first failure

    def _search_group(
        self,
        item: tuple[tuple, list[str]],
        owned: dict[str, list[int]],
        resolved: list[tuple[KernelRequest, OpSpec, str]],
        replies: list[KernelReply | None],
    ) -> None:
        """One (device, op, dtype, k, reps) group: batch search + rerank."""
        inject("engine.search")
        (device_name, op_name, _dtype, k, reps), keys = item
        tuner = self._tuner(device_name, op_name)
        leaders = [resolved[owned[key][0]] for key in keys]
        rankeds = _rank_misses(
            tuner, self._tuner_locks[(device_name, op_name)],
            [req.shape for req, _spec, _key in leaders], k, reps,
        )
        # Each winner is cached as soon as its own re-rank ends, so a
        # request arriving meanwhile is answered from the LRU.
        for (req, spec, key), ranked in zip(leaders, rankeds):
            reply = self._publish(req, spec, key, ranked)
            for i in owned[key]:
                replies[i] = self._realign(reply, resolved[i][0])

    @staticmethod
    def _realign(reply: KernelReply, request: KernelRequest) -> KernelReply:
        if reply.request is request:
            return reply
        return replace(reply, request=request)

    def _get_executor(self) -> ThreadPoolExecutor | None:
        if self._max_workers == 0:
            return None
        with self._executor_lock:
            if self._executor is None:
                import os

                workers = self._max_workers or min(
                    8, (os.cpu_count() or 2)
                )
                self._executor = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix="repro-engine",
                )
            return self._executor

    # ------------------------------------------------------------------
    # Warmup
    # ------------------------------------------------------------------
    def warmup(
        self,
        network: NetworkStep | Iterable[NetworkStep],
        *,
        device: str | None = None,
        k: int = 100,
        reps: int = 3,
    ) -> int:
        """Pre-populate the cache for whole network graphs.

        Accepts one :class:`NetworkStep` or an iterable of them; each
        kernel's op is inferred from its shape type among the ops served
        for the device.  Returns the number of fresh searches (shapes
        already cached cost nothing).
        """
        steps = [network] if isinstance(network, NetworkStep) else list(network)
        requests = []
        seen: set[str] = set()
        for step in steps:
            for _label, shape in step.kernels:
                req = KernelRequest(
                    op=self.op_for_shape(shape, device=device),
                    shape=shape,
                    device=device,
                    k=k,
                    reps=reps,
                )
                req, _spec, key = self._resolve(req)
                if key not in seen:
                    seen.add(key)
                    requests.append(req)
        # Calibrate cascade margins for every pair the warmup touches so
        # the cold searches below (and all later traffic) already serve
        # from the shortlist path.  Fits loaded from a store that predates
        # the cascade get calibrated here and re-persisted.
        for device_name, op_name in sorted(
            {(r.device, r.op) for r in requests}
        ):
            self.ensure_cascade(device_name, op_name)
        replies = self.query_many(requests)
        # Searches populate the candidate caches; persist them so the next
        # process cold-starts off the store instead of re-enumerating.
        self.save_candidates()
        return sum(1 for r in replies if r.source == "search")

    def ensure_cascade(self, device: str, op: str) -> bool:
        """Make (device, op)'s cascade calibration current; True if armed.

        No-op when the engine disables the cascade.  Otherwise, if the
        pair's fit carries no calibration — or one whose weights digest
        no longer matches the live weights or stage-1 form — the margins
        are recalibrated under the tuner lock and, when the fit came from
        the model store, re-saved so the next process boots already
        calibrated.  A fit stage 1 cannot score gets no margins and stays
        unarmed.
        """
        if not self._cascade_enabled:
            return False
        from repro.mlp.serialize import fit_weights_digest

        key = (get_device(device).name, get_op(op).name)
        tuner = self._tuner(*key)
        with self._tuner_locks[key]:
            fit = tuner.fit_result
            if fit is None or tuner.searcher is None:
                return False
            calib = fit.cascade
            if (calib is None
                    or calib.weights_digest != fit_weights_digest(fit)):
                calib = tuner.calibrate_cascade()
                path = self._model_index.get(key)
                if path is not None:
                    tuner.save(path)
        return bool(calib.margins)

    def op_for_shape(self, shape: Any, *, device: str | None = None) -> str:
        """The served op whose shape type matches ``shape``.

        This is how workload graphs (which carry bare shapes, not op
        names) map onto the engine: a ``GemmShape`` resolves to ``gemm``,
        a ``ConvShape`` to ``conv``, and so on for registered ops.
        """
        if device is None:
            known = self.devices()
            device_ops = self.ops() if len(known) != 1 else self.ops(known[0])
        else:
            device_ops = self.ops(get_device(device).name)
        for op_name in device_ops:
            if isinstance(shape, get_op(op_name).shape_type):
                return op_name
        raise EngineError(
            f"no served op accepts shape type {type(shape).__name__} "
            f"(ops: {list(device_ops) or 'none'})"
        )

    # ------------------------------------------------------------------
    # The online learning loop
    # ------------------------------------------------------------------
    @property
    def online(self) -> OnlineLearner | None:
        """The online learner (None when serving frozen fits)."""
        return self._learner

    def _observe_rerank(
        self, request: KernelRequest, spec: OpSpec, ranked: Sequence
    ) -> None:
        """Feed every measured (config, time) pair of one re-rank into
        the replay buffer.  A no-op on frozen engines; never raises into
        the serving path."""
        learner = self._learner
        if learner is None:
            return
        device_name, op_name = request.device, request.op
        tuner = self._tuner(device_name, op_name)

        def make():
            ds = tuner.dataset
            ax = ds.x if ds is not None else None
            ay = ds.y if ds is not None else None
            return tuner.fit_result, ax, ay, len(spec.feature_names)

        learner.ensure_registered(device_name, op_name, make)
        due = False
        for kernel in ranked:
            features = spec.encode(kernel.config, request.shape, log=False)
            due |= learner.observe(
                device_name, op_name, features, kernel.measured_tflops
            )
        if due:
            self._online_wake.set()

    def run_online_updates(self) -> list[ModelUpdate]:
        """Train every due fine-tune job and hot-swap the results in.

        The synchronous driver of the loop: the background thread calls
        it on its cadence, tests and benchmarks call it directly at
        pinned points (which is what makes a traffic replay bit-
        reproducible).  Returns the applied updates so front doors can
        propagate new fits to their worker tier.
        """
        learner = self._learner
        if learner is None:
            return []
        learner.tick()
        updates = learner.run_due()
        for update in updates:
            self._apply_update(update)
        return updates

    def _apply_update(self, update: ModelUpdate) -> None:
        """Atomic hot-swap of one (device, op) fit.

        The update's fit gets a search of its own, built before the
        pair's tuner lock is taken while searches go on against the live
        one.  When the live fit was calibrated and the engine runs the
        cascade, the new weights' margins are measured there too, so the
        first post-swap query already serves from the shortlist path, on
        the first-layer terms they were measured on.  A term is its
        float32 twin alone (~21 MB for a GEMM set, built chunk by chunk;
        calibration computes the float64 rows it reads per chunk), so
        while the live search keeps its term the swap adds only the new
        twin.  Under the lock — the lock every search takes — the live
        tuner only takes the new fit and search, keeping its cascade
        counters: a reader either completes against the old (fit, term)
        pair or starts against the new one, searches never wait on a
        recalibration, and the fit that served before the swap is never
        written.
        """
        key = (update.device, update.op)
        with self._registry_lock:
            tuner = self._tuners.get(key)
            lock = self._tuner_locks.get(key)
        if tuner is None or lock is None:
            return
        fresh = Isaac.from_fit(tuner.device, tuner.spec, update.fit,
                               dtypes=tuner.dtypes)
        _set_cascade(fresh, self._cascade_enabled, self._cascade_keep)
        if self._cascade_enabled and tuner.fit_result.cascade is not None:
            fresh.calibrate_cascade()
        search = fresh.searcher
        with lock:
            search.cascade_stats = tuner.searcher.cascade_stats
            tuner.fit_result, tuner.searcher = update.fit, search
        self._n_swaps += 1

    def start_online(self) -> bool:
        """Run the fine-tune loop on a background thread; True if started.

        The thread wakes when a cadence trips (or every poll interval
        for the wall-clock trigger), trains due jobs and swaps them in.
        No-op for frozen engines and when already running.
        """
        if self._learner is None or self._closed:
            return False
        if self._online_thread is not None:
            return False
        self._online_stop.clear()
        self._online_thread = threading.Thread(
            target=self._online_loop, name="repro-online", daemon=True
        )
        self._online_thread.start()
        return True

    def _online_loop(self) -> None:
        interval = self._learner.config.interval_s
        poll = min(interval / 2, 1.0) if interval else 0.25
        while not self._online_stop.is_set():
            self._online_wake.wait(poll)
            self._online_wake.clear()
            if self._online_stop.is_set():
                return
            try:
                self.run_online_updates()
            except Exception:
                import warnings

                warnings.warn(
                    "online fine-tune failed; serving continues on the "
                    "current fit",
                    RuntimeWarning,
                )

    def _stop_online_thread(self) -> None:
        thread = self._online_thread
        if thread is None:
            return
        self._online_stop.set()
        self._online_wake.set()
        thread.join(timeout=60)
        self._online_thread = None

    def _finalize_online(self) -> None:
        """Close-path flush: train leftovers, persist latest fits once.

        Idempotent — a second ``close()`` (or a close racing the
        background thread) must not retrain or rewrite anything.
        """
        if self._learner is None or self._online_finalized:
            return
        self._online_finalized = True
        self._stop_online_thread()
        for update in self._learner.flush():
            self._apply_update(update)
        if self._model_dir is None:
            return
        import json

        persisted = False
        for device_name, op_name in self._learner.registered():
            if self._learner.version(device_name, op_name) <= 0:
                continue
            with self._registry_lock:
                tuner = self._tuners.get((device_name, op_name))
            if tuner is None:
                continue
            self._model_dir.mkdir(parents=True, exist_ok=True)
            path = self._model_dir / _model_filename(device_name, op_name)
            tuner.save(path)
            with self._registry_lock:
                self._model_index[(device_name, op_name)] = path
            persisted = True
        log = self._learner.update_log()
        if persisted or log:
            self._model_dir.mkdir(parents=True, exist_ok=True)
            log_path = self._model_dir / "online_updates.json"
            log_path.write_text(
                json.dumps([r.to_json() for r in log], indent=2)
            )
            integrity.write_digest(log_path)
            inject("online.log", log_path)

    def online_status(self) -> dict[tuple[str, str], dict]:
        """Per-(device, op) version/buffer/update counters (CLI, stats)."""
        if self._learner is None:
            return {}
        return self._learner.describe()

    def model_version(self, device: str, op: str) -> int:
        """The live fit version for (device, op); 0 when never updated."""
        key = (get_device(device).name, get_op(op).name)
        if key not in self._known_pairs():
            return 0
        tuner = self._tuner(*key)
        if tuner.fit_result is None:
            return 0
        return tuner.fit_result.model_version

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> EngineStats:
        updates = (
            len(self._learner.update_log())
            if self._learner is not None else 0
        )
        with self._registry_lock:
            searchers = [t.searcher for t in self._tuners.values()]
        cascade = [s.cascade_stats for s in searchers if s is not None]
        with self._cache_lock:
            return replace(
                self._stats,
                evictions=self._lru.evictions,
                online_updates=updates,
                model_swaps=self._n_swaps,
                cascade_searches=sum(c.cascade_queries for c in cascade),
                exhaustive_searches=sum(
                    c.exhaustive_queries for c in cascade
                ),
                cascade_fallbacks=sum(c.fallbacks for c in cascade),
                cascade_pruned=sum(c.pruned for c in cascade),
                cascade_stage1_ms=sum(c.stage1_ms for c in cascade),
                cascade_stage2_ms=sum(c.stage2_ms for c in cascade),
            )

    def save_profiles(self) -> None:
        """Flush the write-through profile cache to disk (atomic replace)."""
        if self._profiles is None:
            return
        with self._cache_lock:
            self._profiles.save()

    def save_candidates(self) -> int:
        """Persist enumerated candidate sets to the store (if configured)."""
        if self._candidates is None:
            return 0
        return self._candidates.save()

    def close(self) -> None:
        """Stop serving, drain in-flight searches, then flush; idempotent.

        Ordering matters: new queries are refused first, then the thread
        pool and any in-flight leaders finish (their results land in the
        write-through profile map), and only then is the profile cache
        flushed — so nothing computed before ``close()`` returned is
        lost.
        """
        if self._closed:
            return
        self._closed = True
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
        # Leaders always publish + set their event (in a finally), so
        # these waits terminate even if a search failed.
        while True:
            with self._cache_lock:
                events = list(self._inflight.values())
            if not events:
                break
            for event in events:
                event.wait()
        # Drained: every measured pair has reached the replay buffer, so
        # the final flush-train sees all of them, and the fine-tuned fit
        # persists (exactly once) before the caches do.
        self._finalize_online()
        self.save_profiles()
        self.save_candidates()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# Worker tier: exported state + the worker-process slim engine
# ----------------------------------------------------------------------

@dataclass
class WorkerState:
    """One engine's serving state, split for cross-process shipping.

    ``arrays`` (large: survivor columns, and each first-layer term's
    float32 twin, ~160k rows each: ~21 MB for a GEMM term) are destined
    for one :class:`~repro.core.soa.SharedArrayPack` segment; the rest is small
    (tens of KB of npz bytes per fit) and is what a worker boots from:
    :class:`~repro.service.worker_pool.WorkerPool` ships the state
    itself, its arrays left in the segment, over the boot pipe.
    ``records`` and ``terms`` reference arrays by manifest name, never
    by value: a term is ``{"device", "op", "key", "lo"}``, ``lo``
    naming its twin.
    ``cascade_enabled``/``cascade_keep`` carry the parent engine's
    cascade policy to every worker.
    """

    fits: dict[tuple[str, str], tuple[bytes, tuple[str, ...]]]
    records: list[dict]
    terms: list[dict]
    arrays: dict[str, np.ndarray]
    cascade_enabled: bool = True
    cascade_keep: int | None = None


class WorkerEngine:
    """The worker-process side of the sharded serving tier.

    A slim, single-process searcher rebuilt from a :class:`WorkerState`
    export and ``views`` of its arrays (zero-copy shared-memory views in
    a worker process): it seeds the enumeration cache, restores each
    (device, op) tuner from its fit bytes, adopts the parent's
    first-layer terms (float32 twins) by term key (CONV's by
    its base key, for every bucket it derives from the GEMM
    enumeration), and answers batched searches.
    It keeps **no caches of its own** — the parent's LRU/profile levels
    stay authoritative and only misses are shipped here, so worker
    results are config-identical to the in-process path (same fit bytes,
    same candidate columns, same deterministic measurement noise).
    """

    def __init__(
        self,
        state: WorkerState,
        views: Mapping[str, np.ndarray],
        shared_bytes: int = 0,
    ):
        from repro.core.candidate_store import seed_cache_record

        self.shared_bytes = int(shared_bytes)
        self.seeded_records = 0
        self.adopted_terms = 0
        self.adopted_fits = 0
        self.searches = 0
        self._cascade_enabled = bool(state.cascade_enabled)
        self._cascade_keep = state.cascade_keep
        for rec in state.records:
            params = {
                p: views[name] for p, name in rec["columns"].items()
            }
            if seed_cache_record(
                tuple(rec["key"]), rec["op"], params, rec["space"]
            ):
                self.seeded_records += 1
        self._tuners: dict[tuple[str, str], Isaac] = {}
        #: the tuner lock :func:`_rank_misses` takes (uncontended: the
        #: worker serves one RPC at a time).
        self._lock = threading.Lock()
        for pair, fit in state.fits.items():
            self._build_tuner(pair, fit)
        for item in state.terms:
            tuner = self._tuners.get((item["device"], item["op"]))
            if tuner is None:
                continue
            tuner.searcher.adopt_terms(
                {tuple(item["key"]): views[item["lo"]]}
            )
            self.adopted_terms += 1

    def _build_tuner(
        self, pair: tuple[str, str], fit: tuple[bytes, tuple[str, ...]]
    ) -> Isaac:
        """Serve ``pair`` from shipped fit bytes (+ dtype names).

        The fit bytes carry the parent's cascade calibration (or none),
        so the fresh search arms itself from those margins alone, under
        the parent's cascade policy: after a hot-swap it never prunes
        against the old weights' margins.
        """
        from repro.mlp.serialize import fit_from_bytes

        (device_name, op_name), (blob, dtype_names) = pair, fit
        tuner = Isaac.from_fit(
            get_device(device_name),
            op_name,
            fit_from_bytes(blob),
            dtypes=tuple(DType[n] for n in dtype_names),
        )
        _set_cascade(tuner, self._cascade_enabled, self._cascade_keep)
        self._tuners[pair] = tuner
        return tuner

    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (device, op) pairs this worker can search."""
        return tuple(sorted(self._tuners))

    def adopt_fits(
        self,
        fits: Mapping[tuple[str, str], tuple[bytes, tuple[str, ...]]],
    ) -> dict[tuple[str, str], int]:
        """Hot-swap updated fits shipped by the parent's online loop.

        Each pair's tuner is rebuilt from the new fit bytes with a fresh
        search, as the parent's swap builds one (its adopted terms were
        folded through the old weights, so re-adopting them would tear
        the (fit, term) pair — the worker rebuilds each twin lazily from
        the shared candidate columns instead).  The worker is
        single-threaded between RPCs, so the whole swap is atomic from
        the parent's point of view.  Returns the adopted version per
        pair.
        """
        adopted: dict[tuple[str, str], int] = {}
        for pair, fit in fits.items():
            tuner = self._build_tuner(pair, fit)
            adopted[pair] = tuner.fit_result.model_version
            self.adopted_fits += 1
        return adopted

    def stats(self) -> dict:
        """Zero-copy accounting, reported back over the control pipe.

        Also the worker's BLAS thread budget and its scoring width
        (:mod:`repro.inference.partition`), both 1 under the pool's
        default cap.
        """
        cascade_searches = exhaustive = fallbacks = 0
        for tuner in self._tuners.values():
            cs = tuner.searcher.cascade_stats
            cascade_searches += cs.cascade_queries
            exhaustive += cs.exhaustive_queries
            fallbacks += cs.fallbacks
        return {
            "shared_bytes": self.shared_bytes,
            "seeded_records": self.seeded_records,
            "adopted_terms": self.adopted_terms,
            "adopted_fits": self.adopted_fits,
            "searches": self.searches,
            "cascade_searches": cascade_searches,
            "exhaustive_searches": exhaustive,
            "cascade_fallbacks": fallbacks,
            "blas_threads": blas_threads(),
            "scoring_width": scoring_width(),
        }

    # ------------------------------------------------------------------
    def search_batch(
        self, device: str, op: str, shapes: Sequence, k: int, reps: int
    ) -> list[tuple[bool, Any]]:
        """One flush: per-shape ``(ok, payload)`` results, order-aligned.

        ``payload`` is ``(config, predicted_tflops, measured_tflops,
        model_version)`` on success — the :class:`RankedKernel` fields
        the parent writes back through :meth:`Engine.store_search_result`
        — or an error string.  A poisoned batch is searched again one
        shape at a time, so one bad request cannot fail its whole flush.
        """
        tuner = self._tuners.get((device, op))
        if tuner is None:
            err = f"worker has no tuner for ({device!r}, {op!r})"
            return [(False, err) for _ in shapes]

        def payload(ranked: list[RankedKernel]) -> tuple:
            best = ranked[0]
            return (best.config, best.predicted_tflops,
                    best.measured_tflops, best.model_version)

        try:
            out = [
                (True, payload(ranked))
                for ranked in _rank_misses(tuner, self._lock, shapes, k, reps)
            ]
        except Exception:
            out = []
            for shape in shapes:
                try:
                    [ranked] = _rank_misses(
                        tuner, self._lock, [shape], k, reps
                    )
                except Exception as exc:
                    out.append((False, f"{type(exc).__name__}: {exc}"))
                else:
                    out.append((True, payload(ranked)))
        self.searches += sum(ok for ok, _ in out)
        return out
