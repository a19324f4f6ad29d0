"""Per-layer metrics, derived from a traced run's spans and counters.

Every metric is reported on every workload; a layer the workload never
reaches reports 0 (no samples, no work), the same convention as the
service's own fresh-stats contract.  Timings are medians unless the
name says otherwise.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import Tracer

_SEARCH = ("search.top_k", "search.top_k_batch")
_SUPPLY = ("search.legal_configs", "conv_search.candidates")


def _p(values, q: float = 50.0) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


class Spans:
    """Column-wise view of a tracer's spans with name/window selection."""

    def __init__(self, tracer: Tracer):
        self.attrs = tracer.attrs
        self.requests = tracer.requests
        self.names = tracer.names
        t = tracer.table()
        self.id, self.start, self.end = t["id"], t["start"], t["end"]
        self.parent, self.nid = t["parent"], t["name"]
        self._by_id = np.argsort(self.id)

    def mask(self, names, window) -> np.ndarray:
        names = (names,) if isinstance(names, str) else names
        ids = [self.names.index(n) for n in names if n in self.names]
        lo, hi = window
        return (np.isin(self.nid, ids) & (self.start >= lo)
                & (self.start <= hi))

    def dur_ms(self, mask) -> np.ndarray:
        return (self.end[mask] - self.start[mask]) / 1e6

    def name(self, i: int) -> str:
        return self.names[self.nid[i]]

    def row(self, sid: int) -> int | None:
        j = np.searchsorted(self.id, sid, sorter=self._by_id)
        if j >= len(self.id) or self.id[self._by_id[j]] != sid:
            return None
        return int(self._by_id[j])

    def parent_name(self, i: int) -> str | None:
        j = self.row(self.parent[i])
        return None if j is None else self.name(j)  # None: a root span


def _miss_breakdown(sp: Spans, window) -> dict[str, list[float]]:
    """Split each flushed leader miss into consecutive stages (ms).

    ``queue_wait``: admission to flush start.  ``search``: flush start to
    the end of the batch top-k.  ``rerank``: top-k end to the end of this
    shape's own re-rank (earlier shapes' re-ranks and cache writes in the
    same flush run first).  ``barrier_wait``: own re-rank end to flush
    end; the in-process cache write (``Engine._store_locked``, not a
    public entry point) falls here.  ``settle``: flush end until the
    client's coroutine resumes.  The stages sum to the request's span.
    """
    leaders: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, req in sp.requests.items():
        i = sp.row(sid)
        if i is not None and window[0] <= sp.start[i] <= window[1]:
            leaders[id(req)].append((sp.start[i], sp.end[i]))
    children: dict[int, list[int]] = defaultdict(list)
    for i in np.flatnonzero(sp.mask(("topk.rerank",) + _SEARCH, window)):
        children[int(sp.parent[i])].append(i)

    out: dict[str, list[float]] = defaultdict(list)
    for f in np.flatnonzero(sp.mask("engine.query_many", window)):
        fid = int(sp.id[f])
        f0, f1 = sp.start[f], sp.end[f]
        kids = children.get(fid, [])
        tops = [i for i in kids if sp.name(i) in _SEARCH]
        top_end = max((sp.end[i] for i in tops), default=f0)
        reranks = [i for i in kids if sp.name(i) == "topk.rerank"]
        for req in sp.attrs.get(fid, ()):
            spans = [s for s in leaders.get(id(req), ()) if s[0] <= f0 <= s[1]]
            own = next(
                (i for i in reranks if sp.attrs[int(sp.id[i])][0] == req.shape),
                None,
            )
            if not spans or own is None:
                continue
            q0, q1 = min(spans)
            r1 = sp.end[own]
            out["queue_wait"].append((f0 - q0) / 1e6)
            out["search"].append((top_end - f0) / 1e6)
            out["rerank"].append((r1 - top_end) / 1e6)
            out["barrier_wait"].append((f1 - r1) / 1e6)
            out["settle"].append((q1 - f1) / 1e6)
            out["total"].append((q1 - q0) / 1e6)
    return out


def _median_band(parts: dict[str, list[float]]) -> dict[str, float]:
    """Mean stage times of the leader misses around the median (40th to
    60th percentile of total latency): where a typical miss goes."""
    total = np.asarray(parts.get("total", []))
    if not len(total):
        return {k: 0.0 for k in
                ("queue_wait", "search", "rerank", "barrier_wait", "settle",
                 "total", "coverage")}
    lo, hi = np.percentile(total, [40, 60])
    band = (total >= lo) & (total <= hi)
    out = {k: float(np.mean(np.asarray(v)[band])) for k, v in parts.items()}
    traced = out["total"] - out["settle"]
    out["coverage"] = traced / out["total"] if out["total"] else 0.0
    return out


def _setup_median(sp: Spans, windows, names, *, roots_only=False) -> float:
    """Median over set-up repetitions of the summed span time (s)."""
    per_rep = []
    for w in windows:
        m = sp.mask(names, w)
        if roots_only:
            idx = [i for i in np.flatnonzero(m)
                   if sp.parent_name(i) not in names]
            m = np.zeros_like(m)
            m[idx] = True
        per_rep.append(float(np.sum(sp.end[m] - sp.start[m])) / 1e9)
    return _p(per_rep)


def per_layer(tracer: Tracer, ctx: dict) -> dict[str, float]:
    """Every per-layer metric for one traced run.

    ``ctx`` carries the timed window and set-up windows (ns), the
    service's own counters captured around the timed phase, and the
    client-side records of the traced run.
    """
    sp = Spans(tracer)
    w = ctx["window"]
    m: dict[str, float] = {}

    # -- async front door ------------------------------------------------
    parts = _miss_breakdown(sp, w)
    band = _median_band(parts)
    m["async_engine.queue_wait_ms.p50"] = _p(parts.get("queue_wait", []))
    m["async_engine.flush_ms.p50"] = _p(sp.dur_ms(
        sp.mask("engine.query_many", w)))
    m["async_engine.barrier_wait_ms.p50"] = _p(parts.get("barrier_wait", []))
    a = ctx["async_stats"]
    sizes: dict[int, int] = defaultdict(int)
    for shard in a.shards:
        for size, n in shard.batch_sizes.items():
            sizes[size] += n
    flushes = sum(sizes.values())
    m["async_engine.batch_size.mean"] = (
        sum(s * n for s, n in sizes.items()) / flushes if flushes else 0.0
    )
    m["async_engine.flushes"] = float(flushes)
    m["async_engine.coalesced_ratio"] = (
        a.coalesced / a.submitted if a.submitted else 0.0
    )
    m["async_engine.rejected"] = float(a.rejected)
    for stage in ("queue_wait", "search", "rerank", "barrier_wait",
                  "settle", "total", "coverage"):
        unit = "" if stage == "coverage" else "_ms"
        m[f"miss_breakdown.{stage}{unit}"] = band[stage]

    # -- engine and cache levels ------------------------------------------
    for name, metric in (("engine.resolve", "engine.resolve_us.p50"),
                         ("engine.probe_cache", "engine.probe_cache_us.p50"),
                         ("profile_cache.get", "profile_cache.get_us.p50"),
                         ("engine.store", "engine.store_us.p50")):
        m[metric] = _p(sp.dur_ms(sp.mask(name, w))) * 1e3
    e0, e1 = ctx["engine_stats"]
    lru = e1.lru_hits - e0.lru_hits
    prof = e1.profile_hits - e0.profile_hits
    queries = lru + prof + (e1.searches - e0.searches)
    m["engine.lru_hit_ratio"] = lru / queries if queries else 0.0

    # -- model search -----------------------------------------------------
    per_shape, n_q, n_cand = [], 0, 0
    stage1 = stage2 = search_ms = supply_ms = 0.0
    fallbacks = exhaustive = pruned = conv_shapes = 0
    for i in np.flatnonzero(sp.mask(_SEARCH, w)):
        if sp.parent_name(i) in _SEARCH:
            continue  # a top_k nested in top_k_batch is counted there
        op, n_shapes, cands, d = sp.attrs[int(sp.id[i])]
        dur = (sp.end[i] - sp.start[i]) / 1e6
        per_shape.append(dur / n_shapes)
        search_ms += dur
        n_q += d[0] + d[1]
        fallbacks += d[2]
        exhaustive += d[1]
        pruned += d[3]
        stage1 += d[4]
        stage2 += d[5]
        n_cand += cands
        conv_shapes += n_shapes if op == "conv" else 0
    supply = sp.mask(_SUPPLY, w)
    for i in np.flatnonzero(supply):
        if sp.parent_name(i) in _SEARCH:
            supply_ms += (sp.end[i] - sp.start[i]) / 1e6
    m["search.top_k_ms_per_shape.p50"] = _p(per_shape)
    m["search.stage1_ms_per_query"] = stage1 / n_q if n_q else 0.0
    m["search.stage2_ms_per_query"] = stage2 / n_q if n_q else 0.0
    m["search.other_ms_per_query"] = (
        (search_ms - stage1 - stage2 - supply_ms) / n_q if n_q else 0.0
    )
    m["search.prune_ratio"] = pruned / n_cand if n_cand else 0.0
    m["search.cascade_fallbacks"] = float(fallbacks)
    m["search.exhaustive_queries"] = float(exhaustive)
    conv = sp.mask("conv_search.candidates", w)
    m["conv_search.candidates_ms.p50"] = _p(sp.dur_ms(conv))
    m["conv_search.calls"] = float(np.sum(conv))
    m["conv_search.bucket_reuse_ratio"] = (
        1.0 - np.sum(conv) / conv_shapes if conv_shapes else 0.0
    )

    # -- re-rank ------------------------------------------------------------
    rr = sp.mask("topk.rerank", w)
    m["topk.rerank_ms.p50"] = _p(sp.dur_ms(rr))
    rr_attrs = [sp.attrs[int(s)] for s in sp.id[rr]]
    m["topk.pairs_benchmarked"] = float(sum(a[1] for a in rr_attrs))
    m["topk.dropped"] = float(sum(a[1] - a[2] for a in rr_attrs))

    # -- worker tier -------------------------------------------------------
    m["worker_pool.boot_s"] = ctx["boot_s"]
    m["worker_pool.rpc_ms.p50"] = _p(sp.dur_ms(
        sp.mask("worker_pool.rpc", w)))
    subs = [sp.attrs[int(s)] for s in sp.id[sp.mask("worker_pool.submit", w)]]
    m["worker_pool.shapes_per_rpc.mean"] = _mean([n for _, n in subs])
    m["worker_pool.fallbacks"] = float(a.worker_fallbacks)
    pools = {id(pool): pool for pool, _ in subs}
    m["worker_pool.respawns"] = float(sum(
        s["respawns"] for pool in pools.values() for s in pool.stats()
    ))

    # -- online learning ---------------------------------------------------
    log = ctx["update_log"]
    m["online.updates"] = float(sum(r.status == "applied" for r in log))
    m["online.rejected"] = float(sum(r.status == "rejected" for r in log))
    upd = sp.mask("online.update", w)
    m["online.update_ms.p50"] = _p([
        (sp.end[i] - sp.start[i]) / 1e6 for i in np.flatnonzero(upd)
        if sp.attrs.get(int(sp.id[i]))
    ])
    m["online.fine_tune_ms.p50"] = _p(sp.dur_ms(
        sp.mask("online.fine_tune", w)))
    m["online.recalibrate_ms.p50"] = _p([
        (sp.end[i] - sp.start[i]) / 1e6
        for i in np.flatnonzero(sp.mask("search.calibrate", w))
        if sp.parent_name(i) == "online.update"
    ])

    # -- set-up (median over repetitions) -----------------------------------
    setups = ctx["setup_windows"]
    m["sampling.generative_s"] = _setup_median(sp, setups,
                                               ("sampling.generative",))
    m["sampling.dataset_s"] = _setup_median(sp, setups, ("sampling.dataset",))
    m["mlp.fit_s"] = _setup_median(sp, setups, ("mlp.fit",))
    m["search.calibrate_s"] = _setup_median(sp, setups, ("search.calibrate",))
    m["search.enumerate_s"] = _setup_median(sp, setups, _SUPPLY,
                                            roots_only=True)

    # -- host and client side -----------------------------------------------
    m["host.cpu_util"] = ctx["cpu_util"]
    m.update(ctx["client"])
    return m
