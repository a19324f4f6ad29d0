"""Spans around the service's public entry points, recorded from outside.

The benchmark changes nothing under ``src/``: :func:`instrument` swaps
each entry point named in :data:`ENTRY_POINTS` for a wrapper that
records a span, and :meth:`Tracer.restore` puts the originals back.

A span is ``(id, name, start_ns, end_ns, parent_id, request_id)``.  The
parent comes from a context variable, so spans nest within one thread
and within one asyncio task; executor threads start fresh (asyncio's
``run_in_executor`` does not copy the context), which makes every batch
flush a root span.  ``request_id`` is the id of the enclosing
``async_engine.query`` span.  Spans stay in memory, column-wise, and are
written only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from array import array
from contextvars import ContextVar
from dataclasses import astuple

import numpy as np

_COLUMNS = ("id", "name", "start", "end", "parent", "req")


class Tracer:
    """In-memory span store; thread-safe appends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cols = {c: array("q") for c in _COLUMNS}
        #: per-span payloads, only for the spans analysis links together
        self.attrs: dict[int, object] = {}
        #: ``async_engine.query`` span id -> request, for misses only
        self.requests: dict[int, object] = {}
        self._ids = itertools.count(1)
        self._current: ContextVar[tuple[int, int]] = ContextVar(
            "span", default=(0, 0)
        )
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def record(self, sid: int, nid: int, t0: int, t1: int, parent: int,
               req: int) -> None:
        with self._lock:
            for col, v in zip(self._cols.values(),
                              (sid, nid, t0, t1, parent, req)):
                col.append(v)

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self.name_id(name)
        ids, current, record = self._ids, self._current, self.record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent, req = current.get()
            state = before(*args, **kwargs) if before else None
            token = current.set((sid, req))
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                current.reset(token)
                record(sid, nid, t0, t1, parent, req)
            if after is not None:
                after(sid, t0, state, result, *args, **kwargs)
            return result

        return traced

    def _wrap_request(self, fn, name: str):
        """Async front door: each call opens a new request id."""
        nid = self.name_id(name)
        ids, current, record = self._ids, self._current, self.record
        requests = self.requests

        @functools.wraps(fn)
        async def traced(self_, request):
            sid = next(ids)
            parent, _ = current.get()
            token = current.set((sid, sid))
            t0 = time.perf_counter_ns()
            try:
                reply = await fn(self_, request)
            finally:
                t1 = time.perf_counter_ns()
                current.reset(token)
                record(sid, nid, t0, t1, parent, sid)
            if reply.source == "search":
                # Only misses are linked to their flush; keeping hits'
                # requests would hold every request object alive.
                requests[sid] = request
            return reply

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------
    def table(self) -> dict[str, np.ndarray]:
        with self._lock:
            return {c: np.frombuffer(col, dtype=np.int64).copy()
                    for c, col in self._cols.items()}

    def write(self, path, extra: dict | None = None) -> None:
        """Spans (column-wise, ns) plus ``extra`` as one JSON document."""
        cols = {c: v.tolist() for c, v in self.table().items()}
        doc = {"names": self.names, "spans": cols, **(extra or {})}
        with open(path, "w") as f:
            json.dump(doc, f)


# ----------------------------------------------------------------------
# The entry points the traced run wraps
# ----------------------------------------------------------------------

def _cascade_counters(search) -> tuple:
    return astuple(search.cascade_stats)


def _search_after(tracer: Tracer):
    """Per call: shapes, candidates scored and the cascade counter deltas
    (exact: every search runs under its tuner's lock)."""

    def after(sid, t0, before, result, search, shape_or_shapes, *a, **kw):
        shapes = (shape_or_shapes
                  if isinstance(shape_or_shapes, (list, tuple))
                  else [shape_or_shapes])
        delta = tuple(
            x - y for x, y in zip(_cascade_counters(search), before)
        )
        candidates = sum(len(search.candidates(s)[0]) for s in shapes)
        tracer.attrs[sid] = (search.op, len(shapes), candidates, delta)

    return after


def _rerank_after(tracer: Tracer):
    def after(sid, t0, state, ranked, device, shape, candidates, **kw):
        tracer.attrs[sid] = (shape, len(candidates), len(ranked))
    return after


def _flush_after(tracer: Tracer):
    def after(sid, t0, state, replies, engine, requests):
        tracer.attrs[sid] = list(requests)
    return after


def _rpc_after(tracer: Tracer):
    """``submit_flush`` returns a future: the RPC span, a child of the
    submit span, ends when it resolves, on the pool's manager thread."""
    nid = tracer.name_id("worker_pool.rpc")

    def after(sid, t0, state, future, pool, worker, device, op, shapes,
              *a, **kw):
        tracer.attrs[sid] = (pool, len(shapes))
        rid = next(tracer._ids)
        future.add_done_callback(
            lambda _f: tracer.record(
                rid, nid, t0, time.perf_counter_ns(), sid, 0
            )
        )

    return after


def _online_after(tracer: Tracer):
    def after(sid, t0, state, updates, engine):
        tracer.attrs[sid] = len(updates)
    return after


#: (module, attribute path, span name, after-hook factory)
ENTRY_POINTS = (
    ("repro.service.async_engine", "AsyncEngine.query",
     "async_engine.query", None),
    ("repro.service.engine", "Engine.resolve", "engine.resolve", None),
    ("repro.service.engine", "Engine.probe_cache", "engine.probe_cache",
     None),
    ("repro.service.engine", "Engine.query_many", "engine.query_many",
     _flush_after),
    ("repro.service.engine", "Engine.store_search_result", "engine.store",
     None),
    ("repro.service.engine", "Engine.run_online_updates",
     "online.update", _online_after),
    ("repro.service.engine", "rerank", "topk.rerank", _rerank_after),
    ("repro.core.profile_cache", "ProfileCache.get", "profile_cache.get",
     None),
    ("repro.inference.search", "ExhaustiveSearch.top_k", "search.top_k",
     _search_after),
    ("repro.inference.search", "ExhaustiveSearch.top_k_batch",
     "search.top_k_batch", _search_after),
    ("repro.inference.search", "legal_configs", "search.legal_configs",
     None),
    ("repro.inference.conv_search", "conv_candidates_batch",
     "conv_search.candidates", None),
    ("repro.service.worker_pool", "WorkerPool.submit_flush",
     "worker_pool.submit", _rpc_after),
    ("repro.service.online", "fine_tune_fit", "online.fine_tune", None),
    ("repro.core.tuner", "Isaac.calibrate_cascade", "search.calibrate",
     None),
    ("repro.core.tuner", "fit_generative_models", "sampling.generative",
     None),
    ("repro.core.tuner", "generate_dataset", "sampling.dataset", None),
    ("repro.core.tuner", "fit_regressor", "mlp.fit", None),
)


def instrument(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`ENTRY_POINTS`."""
    for module, path, name, after in ENTRY_POINTS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        if name == "async_engine.query":
            wrapped = tracer._wrap_request(fn, name)
        elif name.startswith("search.top_k"):
            wrapped = tracer._wrap(
                fn, name, before=lambda s, *a, **k: _cascade_counters(s),
                after=_search_after(tracer),
            )
        else:
            wrapped = tracer._wrap(
                fn, name, after=after(tracer) if after else None
            )
        tracer.patch(owner, attr, wrapped)
