"""The sharded multi-process worker tier behind the async front door.

One saturated process is the serving tier's hard wall: the numpy MLP
forward passes hold the GIL, so dynamic micro-batching cannot scale past
a single core no matter how well it coalesces.  This module breaks the
wall with a pool of worker *processes* — each runs a
:class:`~repro.service.engine.WorkerEngine` rebuilt at warm boot from the
parent engine's exported state — and a consistent-hash ring that maps
request cache keys onto workers.

The expensive read-only state is **shared, not copied**: survivor
candidate columns and the first-layer terms (each one float32 twin,
~21 MB for a GEMM set) live in exactly one
:class:`~repro.core.soa.SharedArrayPack` segment created by the pool;
workers attach and rebuild numpy views over
the same physical pages (zero re-enumeration, zero per-worker copy).
Only the small artifacts — the exported
:class:`~repro.service.engine.WorkerState` without its arrays (fit
bytes, record and term metadata) and the segment's manifest — travel
over the boot pipe.

Lifecycle per worker: spawn (``spawn`` context; the child caps its BLAS
threads first, through the runtime setter of
:mod:`repro.inference.partition`, which takes effect although the spawn
has already imported numpy), warm boot handshake (``ready`` with
zero-copy accounting, or ``boot-error``), then a lockstep RPC loop
driven by a parent-side manager thread.  A crash mid-flush (EOF, broken
pipe, dead process) respawns the worker and retries the same job up to
``retries`` times before failing its future with :class:`WorkerCrashed`;
a worker whose *respawn* fails is marked dead and every later job routed
to it fails fast, which the async engine answers by falling back to the
in-process path.  With ``reply_timeout_s`` set, a *hung-but-alive*
worker takes the same road: a reply that misses the deadline gets the
process killed, a fresh worker respawned from the same shared segment,
and the job replayed — hangs degrade into the crash path instead of
stalling a flush forever.  An optional watchdog (``heartbeat_s``) pings
each live worker between requests so a hang is caught even on an idle
pool.  ``close()`` drains each inbox, asks workers to exit, and unlinks
the shared segment exactly once — escalating ``terminate()`` to
``kill()`` for any worker that ignores it, so close never leaks a
process.

Determinism makes this tier safe: measurement noise is keyed BLAKE2b
(:mod:`repro.gpu.noise`), candidate materialization from shared columns
is bit-identical to the parent's, and fits round-trip bit-exactly — so a
worker's answer for any request equals the in-process answer, and retry
after a crash cannot change a result.
"""

from __future__ import annotations

import bisect
import hashlib
import queue
import threading
from concurrent.futures import Future
from dataclasses import replace
from typing import Sequence

__all__ = ["WorkerCrashed", "WorkerPool"]

#: Virtual nodes per worker on the hash ring: enough that key ownership
#: stays near-uniform for small pools without measurable lookup cost.
_VNODES = 64

#: Seconds between liveness checks while waiting on a worker reply.  A
#: flush can legitimately run for seconds (device re-rank), so replies
#: have no deadline by default — death, or the pool's ``reply_timeout_s``
#: when one is configured, interrupts the wait.
_POLL_S = 0.1

#: Ceiling on one warm boot (imports + tuner rebuild + cache seeding).
_BOOT_TIMEOUT_S = 120.0

_CLOSE = object()


class WorkerCrashed(RuntimeError):
    """A worker died (and respawn/retry was exhausted) for this request."""


def _ring_hash(data: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(data.encode(), digest_size=8).digest(), "big"
    )


def _chaos(site: str) -> None:
    """Fault-injection checkpoint (:mod:`repro.service.faults`).

    Imported lazily, so the module's import surface stays stdlib-only.
    """
    from repro.service.faults import inject

    inject(site)


# ----------------------------------------------------------------------
# Child process entry point
# ----------------------------------------------------------------------

def _worker_main(conn, blas_threads: int) -> None:
    """Worker process: cap BLAS, warm-boot, then serve the RPC loop.

    The whole point of process sharding is one core per worker, and an
    oversubscribed BLAS pool would thrash it back away.  The cap is set
    at run time: the spawn has imported numpy before this runs, so
    ``OPENBLAS_NUM_THREADS`` written here would be ignored.  A worker
    capped to one BLAS thread also scores its rows serially (a scoring
    width of 1).
    """
    from repro.inference.partition import set_blas_threads

    set_blas_threads(blas_threads)
    pack = None
    try:
        kind, boot = conn.recv()
        assert kind == "boot", kind
        from repro.core.soa import SharedArrayPack
        from repro.service.engine import WorkerEngine

        state, shm, manifest = boot
        pack = SharedArrayPack.attach(shm, manifest)
        engine = WorkerEngine(state, pack.views(), shared_bytes=pack.nbytes)
        conn.send(("ready", engine.stats()))
    except BaseException:
        import traceback

        try:
            conn.send(("boot-error", traceback.format_exc()))
        except OSError:
            pass
        if pack is not None:
            pack.close()
        return

    try:
        while True:
            kind, payload = conn.recv()
            if kind == "exit":
                break
            if kind == "ping":
                conn.send(("pong", engine.stats()))
                continue
            if kind == "flush":
                device, op, shapes, k, reps = payload
                try:
                    _chaos("worker.flush")
                    results = engine.search_batch(device, op, shapes, k,
                                                  reps)
                    _chaos("worker.reply")
                    conn.send(("ok", results))
                except BaseException:
                    import traceback

                    conn.send(("error", traceback.format_exc()))
                continue
            if kind == "chaos":
                # Arm (or disarm, payload None) a FaultPlan inside this
                # live worker.  Deliberately *not* part of the boot
                # payload: a worker killed for a hang respawns clean, so
                # replay-after-kill completes instead of re-hanging.
                try:
                    from repro.service import faults

                    if payload is None:
                        faults.disarm()
                    else:
                        faults.arm(payload)
                    conn.send(("ok", None))
                except BaseException:
                    import traceback

                    conn.send(("error", traceback.format_exc()))
                continue
            if kind == "adopt":
                # A model hot-swap from the parent's online loop: rebuild
                # the named tuners from the shipped fit bytes.  Atomic
                # from the parent's view — the worker answers RPCs one at
                # a time, so no flush interleaves with the swap.
                try:
                    adopted = engine.adopt_fits(payload)
                    conn.send(("ok", sorted(adopted.values())))
                except BaseException:
                    import traceback

                    conn.send(("error", traceback.format_exc()))
                continue
            conn.send(("error", f"unknown message kind {kind!r}"))
    except (EOFError, OSError):
        pass  # parent went away; nothing to report to
    finally:
        pack.close()
        conn.close()


# ----------------------------------------------------------------------
# Parent-side worker handle
# ----------------------------------------------------------------------

class _Worker:
    """One worker process + its lockstep manager thread.

    The worker process is single-threaded, so exactly one in-flight RPC
    per worker is the correct concurrency: the manager thread takes jobs
    off its inbox, sends, waits (interrupted only by process death), and
    resolves the job's future.  Respawn-and-retry lives here too — the
    job is not consumed until it has a definitive answer.
    """

    def __init__(self, pool: "WorkerPool", index: int):
        self._pool = pool
        self.index = index
        self.inbox: queue.Queue = queue.Queue()
        self.process = None
        self.conn = None
        self.dead = False
        self.boot_stats: dict = {}
        self.flushes = 0
        self.respawns = 0
        self.retries = 0
        self.hangs = 0
        self.heartbeats = 0
        self._spawn()
        self.thread = threading.Thread(
            target=self._run, name=f"repro-worker-mgr-{index}", daemon=True
        )
        self.thread.start()

    # -- lifecycle -----------------------------------------------------
    def _spawn(self) -> None:
        """Start the process and complete the warm-boot handshake."""
        ctx = self._pool._ctx
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._pool._blas_threads),
            name=f"repro-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            pool = self._pool
            parent_conn.send(
                ("boot", (pool._boot, pool._pack.name, pool._pack.manifest))
            )
            if not self._wait_readable(parent_conn, process,
                                       _BOOT_TIMEOUT_S):
                raise WorkerCrashed(
                    f"worker {self.index} died during warm boot"
                )
            kind, payload = parent_conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            parent_conn.close()
            self._reap(process)
            raise WorkerCrashed(
                f"worker {self.index} failed warm boot: {exc}"
            ) from exc
        if kind != "ready":
            parent_conn.close()
            self._reap(process)
            raise WorkerCrashed(
                f"worker {self.index} boot error:\n{payload}"
            )
        self.process = process
        self.conn = parent_conn
        self.boot_stats = dict(payload)

    @staticmethod
    def _wait_readable(conn, process, timeout: float | None) -> bool:
        """Poll for a reply, giving up only on death (or boot timeout)."""
        return _Worker._await_reply(conn, process, timeout) == "ready"

    @staticmethod
    def _await_reply(conn, process, timeout: float | None) -> str:
        """Poll for a reply: ``"ready"``, ``"dead"`` or ``"timeout"``.

        Death and deadline are distinct outcomes on purpose — a dead
        worker is already gone, while a timed-out one is *hung* and must
        be killed before its pipe can be reused.
        """
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        while not conn.poll(_POLL_S):
            if not process.is_alive() and not conn.poll(0):
                return "dead"
            if deadline is not None and time.monotonic() > deadline:
                return "timeout"
        return "ready"

    @staticmethod
    def _reap(process) -> None:
        """Stop a worker process for good, escalating until the pid is gone.

        ``terminate()`` (SIGTERM) can leave a zombie if the child blocks
        with the signal pending — e.g. wedged in a C extension — so a
        failed ``join`` escalates to ``kill()`` (SIGKILL, uncatchable)
        and joins again.  The final join reaps the kernel zombie entry.
        """
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=5)
        if process.is_alive():
            process.kill()
            process.join(timeout=5)

    def _respawn(self) -> None:
        self.conn.close()
        self._reap(self.process)
        self.respawns += 1
        try:
            self._spawn()
        except WorkerCrashed:
            self.dead = True

    # -- RPC loop ------------------------------------------------------
    def _run(self) -> None:
        while True:
            job = self.inbox.get()
            if job is _CLOSE:
                break
            kind, payload, future, timeout_s = job
            if not future.set_running_or_notify_cancel():
                continue
            self._serve(kind, payload, future, timeout_s)
        self._shutdown()

    def _serve(
        self, kind: str, payload, future: Future,
        timeout_s: float | None,
    ) -> None:
        if timeout_s is None:
            timeout_s = self._pool._reply_timeout_s
        for attempt in range(self._pool._retries + 1):
            if self.dead:
                break
            if attempt:
                self.retries += 1
            try:
                self.conn.send((kind, payload))
                status = self._await_reply(self.conn, self.process,
                                           timeout_s)
                if status == "timeout":
                    # Hung but alive: only a kill frees the pipe.  The
                    # respawn below replays the job on a fresh worker
                    # booted from the same shared segment.
                    self.hangs += 1
                    if self.process.is_alive():
                        self.process.kill()
                    raise EOFError(
                        f"worker reply missed its {timeout_s}s deadline"
                    )
                if status == "dead":
                    raise EOFError("worker died mid-request")
                reply_kind, result = self.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                # Crash mid-flush: bring up a fresh worker (it attaches
                # the same shared state) and replay this exact job.
                self._respawn()
                continue
            if reply_kind == "error":
                future.set_exception(WorkerCrashed(
                    f"worker {self.index} request failed:\n{result}"
                ))
                return
            self.flushes += kind == "flush"
            future.set_result(result)
            return
        future.set_exception(WorkerCrashed(
            f"worker {self.index} unavailable after "
            f"{self._pool._retries + 1} attempts"
        ))

    def _shutdown(self) -> None:
        if not self.dead:
            try:
                self.conn.send(("exit", None))
            except (OSError, BrokenPipeError):
                pass
            self.conn.close()
            self._reap(self.process)
        # Anything still queued can never run.
        while True:
            try:
                job = self.inbox.get_nowait()
            except queue.Empty:
                break
            if job is not _CLOSE and job[2].set_running_or_notify_cancel():
                job[2].set_exception(WorkerCrashed("pool closed"))
        assert self.process is None or not self.process.is_alive()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------

class WorkerPool:
    """N worker processes sharing one read-only state segment.

    Built from a live :class:`~repro.service.engine.Engine`: its
    :meth:`~repro.service.engine.Engine.export_worker_state` is packed
    into shared memory once, then every worker warm-boots against the
    same segment.  ``route`` places request cache keys on a consistent
    hash ring (``_VNODES`` virtual nodes per worker), so the same key
    always lands on the same worker while distinct keys spread evenly —
    including keys *within* one (device, op, dtype) shard, which is what
    lets a single hot shard saturate the whole pool.
    """

    def __init__(
        self,
        engine,
        n_workers: int,
        *,
        blas_threads: int = 1,
        retries: int = 2,
        reply_timeout_s: float | None = None,
        heartbeat_s: float | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if reply_timeout_s is not None and reply_timeout_s <= 0:
            raise ValueError(
                f"reply_timeout_s must be positive, got {reply_timeout_s}"
            )
        if heartbeat_s is not None and heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat_s must be positive, got {heartbeat_s}"
            )
        if blas_threads < 1:
            raise ValueError(
                f"blas_threads must be >= 1, got {blas_threads}"
            )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        import multiprocessing

        from repro.core.soa import SharedArrayPack

        self._ctx = multiprocessing.get_context("spawn")
        self._blas_threads = int(blas_threads)
        self._retries = int(retries)
        self._reply_timeout_s = reply_timeout_s
        self._heartbeat_s = heartbeat_s
        self._closed = False
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        state = engine.export_worker_state()
        self.pairs = frozenset(state.fits)
        self._pack = SharedArrayPack.create(state.arrays)
        #: what every (re)spawned worker boots from; its arrays live in
        #: the segment.
        self._boot = replace(state, arrays={})
        self._workers: list[_Worker] = []
        try:
            for i in range(n_workers):
                self._workers.append(_Worker(self, i))
        except BaseException:
            self.close()
            raise
        self._ring: list[tuple[int, int]] = sorted(
            (_ring_hash(f"{w}:{v}"), w)
            for w in range(n_workers)
            for v in range(_VNODES)
        )
        self._ring_keys = [h for h, _ in self._ring]
        if heartbeat_s is not None:
            self._watchdog = threading.Thread(
                target=self._watch, name="repro-worker-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    def _watch(self) -> None:
        """Watchdog: heartbeat-ping live workers between real traffic.

        The ping rides the normal RPC path, so a worker hung outside any
        request is detected by the manager's reply deadline (one
        heartbeat period) and killed/respawned exactly like a hung
        flush.  Each completed round increments ``heartbeats`` per
        worker probed.
        """
        while not self._watchdog_stop.wait(self._heartbeat_s):
            if self._closed:
                return
            for w in self._workers:
                if self._closed or w.dead:
                    continue
                future: Future = Future()
                w.inbox.put(("ping", None, future, self._heartbeat_s))
                try:
                    future.result(timeout=_BOOT_TIMEOUT_S)
                except Exception:
                    pass  # respawn/fail-fast handled by the manager
                w.heartbeats += 1

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def shared_bytes(self) -> int:
        """Size of the one shared segment all workers map (not copy)."""
        return self._pack.nbytes

    # ------------------------------------------------------------------
    def route(self, key: object) -> int:
        """The worker index owning ``key`` on the consistent-hash ring."""
        h = _ring_hash(repr(key))
        i = bisect.bisect(self._ring_keys, h) % len(self._ring)
        return self._ring[i][1]

    def alive(self, worker: int) -> bool:
        return not self._workers[worker].dead

    def submit_flush(
        self,
        worker: int,
        device: str,
        op: str,
        shapes: Sequence,
        k: int,
        reps: int,
        *,
        timeout_s: float | None = None,
    ) -> Future:
        """Queue one search batch on ``worker``.

        Resolves to per-shape ``(ok, payload)`` pairs (see
        :meth:`~repro.service.engine.WorkerEngine.search_batch`), or
        raises :class:`WorkerCrashed` if the worker cannot be kept alive
        long enough to answer.  ``timeout_s`` overrides the pool's
        ``reply_timeout_s`` for this job (a caller-side deadline budget);
        a reply missing it marks the worker hung and kills it.
        """
        if self._closed:
            raise WorkerCrashed("pool closed")
        _chaos("pool.submit")
        future: Future = Future()
        self._workers[worker].inbox.put(
            ("flush", (device, op, list(shapes), k, reps), future,
             timeout_s)
        )
        return future

    def arm_faults(
        self, worker: int, plan, timeout: float | None = 60.0
    ) -> None:
        """Arm a :class:`~repro.service.faults.FaultPlan` in one worker.

        Chaos-test plumbing: the plan is armed in the *live* process
        only, never added to the boot payload, so a worker killed by
        the watchdog or a reply deadline respawns clean and the replay
        completes.  ``plan=None`` disarms.
        """
        if self._closed:
            raise WorkerCrashed("pool closed")
        future: Future = Future()
        self._workers[worker].inbox.put(("chaos", plan, future, None))
        future.result(timeout=timeout)

    def broadcast_fits(
        self,
        fits: dict[tuple[str, str], tuple[bytes, tuple[str, ...]]],
        timeout: float | None = 120.0,
    ) -> int:
        """Propagate hot-swapped fits to every live worker; count adopters.

        The parent stays authoritative: the boot payload is replaced
        *first*, in one assignment, so a worker that crashes
        mid-broadcast respawns straight onto the new fits and never
        re-adopts a term (a float32 twin) folded through the old
        weights — the payload drops every term of the updated pairs.
        Then each live worker gets an ``adopt`` RPC; a worker that dies
        here is already marked dead by its manager and simply misses the
        update — its respawn path has the new state.  Margins travel
        inside the new fit bytes themselves.
        """
        if self._closed:
            raise WorkerCrashed("pool closed")
        if not fits:
            return 0
        boot = self._boot
        self._boot = replace(
            boot, fits={**boot.fits, **fits},
            terms=[t for t in boot.terms
                   if (t["device"], t["op"]) not in fits],
        )
        futures = []
        for w in self._workers:
            if w.dead:
                continue
            future: Future = Future()
            w.inbox.put(("adopt", fits, future, None))
            futures.append(future)
        adopted = 0
        for future in futures:
            try:
                future.result(timeout=timeout)
            except Exception:
                continue  # dead/respawned workers boot onto the new fits
            adopted += 1
        return adopted

    def ping(self, worker: int, timeout: float | None = 30.0) -> dict:
        """Health check: the worker's live zero-copy/search accounting."""
        if self._closed:
            raise WorkerCrashed("pool closed")
        future: Future = Future()
        self._workers[worker].inbox.put(("ping", None, future, None))
        return future.result(timeout=timeout)

    def kill_worker(self, worker: int) -> None:
        """Failure injection (tests): hard-kill the worker process now."""
        process = self._workers[worker].process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)

    def stats(self) -> list[dict]:
        """Parent-side per-worker counters plus warm-boot accounting."""
        return [
            {
                "worker": w.index,
                "alive": not w.dead,
                "flushes": w.flushes,
                "respawns": w.respawns,
                "retries": w.retries,
                "hangs": w.hangs,
                "heartbeats": w.heartbeats,
                **{f"boot_{k}": v for k, v in w.boot_stats.items()},
            }
            for w in self._workers
        ]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain inboxes, stop workers, free the shared segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=10)
        for w in self._workers:
            w.inbox.put(_CLOSE)
        for w in self._workers:
            w.thread.join(timeout=30)
        self._pack.unlink()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
