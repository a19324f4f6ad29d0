"""The online learning loop: replay buffer -> fine-tune -> versioned swap.

The offline/runtime split of the paper is absolute: fits are frozen at
tune time, yet the serving stack *measures* every reranked miss and then
throws the (features, measured-time) pair away.  This module closes that
loop.  Three pieces, deliberately engine-agnostic so both front doors
(and tests) drive them directly:

* :class:`ReplayBuffer` — a seeded, bounded reservoir of raw feature
  rows + log2-TFLOPS targets.  Once full, each new pair replaces a
  uniformly random resident (classic reservoir sampling), so the buffer
  stays an unbiased sample of everything ever observed while old traffic
  ages out statistically rather than by decree.  Seeded: the same
  insertion sequence always yields the same buffer contents.

* :func:`fine_tune_fit` — warm-starts a *copy* of the current model and
  runs a few :func:`repro.mlp.training.train` epochs on buffer pairs
  plus a held-out **anchor slice** of the original offline dataset.  The
  anchor pins the loss surface near the offline optimum, so a burst of
  narrow traffic cannot catastrophically forget the rest of the shape
  space.  Scalers are frozen — the feature/target transforms a fit
  shipped with are part of its identity (and of every first-layer term
  derived from it), so fine-tuning only ever moves weights.

* :class:`OnlineLearner` — per-(device, op) orchestration: cadence
  (every ``update_every`` new pairs, or ``interval_s`` wall-clock for
  liveness), a FIFO queue of training snapshots, the monotonic version
  counter, and the replayable :class:`UpdateRecord` log.  Snapshots are
  captured at the moment the cadence trips, *not* when the background
  task gets around to training — so the bytes of every fine-tuned fit
  depend only on the traffic sequence and the pinned cadence, never on
  scheduler timing.  That is the online reproducibility contract: replay
  the same traffic, get bit-identical fits (the wall-clock trigger is
  explicitly outside it and off by default).

The atomic hot-swap itself lives in :class:`~repro.service.engine.Engine`
(it owns the per-tuner locks a swap must hold); workers re-adopt new
fits through :meth:`~repro.service.worker_pool.WorkerPool.broadcast_fits`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.mlp.crossval import FitLineage, FitResult, _maybe_log
from repro.mlp.losses import mse
from repro.mlp.network import MLP
from repro.mlp.optimizers import Adam
from repro.mlp.training import train

__all__ = [
    "OnlineConfig",
    "ReplayBuffer",
    "UpdateRecord",
    "ModelUpdate",
    "OnlineLearner",
    "fine_tune_fit",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of the online loop (all pinned: they are part of the
    reproducibility contract, not free-running heuristics).

    ``update_every`` is the deterministic cadence: a training snapshot
    is captured every N *observed* pairs per (device, op).  ``interval_s``
    adds a wall-clock liveness trigger for long-idle services — it
    changes *when* a snapshot is cut, so replays that rely on
    bit-identity leave it ``None`` (the default).

    ``rollback_tolerance`` is the regression guard: when set, a
    fine-tune whose anchor-slice ``val_mse`` exceeds the parent fit's by
    more than this relative fraction is *rejected* — the candidate fit
    is discarded instead of hot-swapped, and the rejection is logged in
    ``online_updates.json``.  ``None`` (the default) disables the guard;
    a negative value makes the guard strict enough to reject any
    non-improving update (chaos tests use it to force rejections).
    """

    buffer_capacity: int = 4096
    seed: int = 0
    update_every: int = 64
    interval_s: float | None = None
    epochs: int = 4
    batch_size: int = 64
    lr: float = 5e-4
    anchor_size: int = 512
    rollback_tolerance: float | None = None

    def __post_init__(self):
        if self.buffer_capacity <= 0:
            raise ValueError(
                f"buffer_capacity must be positive, got {self.buffer_capacity}"
            )
        if self.update_every <= 0:
            raise ValueError(
                f"update_every must be positive, got {self.update_every}"
            )
        if self.interval_s is not None and self.interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {self.interval_s}"
            )
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.anchor_size < 0:
            raise ValueError(
                f"anchor_size must be >= 0, got {self.anchor_size}"
            )


# ----------------------------------------------------------------------
# The replay buffer
# ----------------------------------------------------------------------

class ReplayBuffer:
    """A seeded, bounded reservoir of (raw features, log2-TFLOPS) pairs.

    Thread-safe.  Below capacity every pair is kept; at capacity each
    arrival replaces a uniformly random resident with probability
    ``capacity / total`` (reservoir sampling), so the buffer remains an
    unbiased sample of the full observation stream.  Determinism: one
    ``default_rng(seed)`` draw per overflowing add means the contents
    are a pure function of the insertion sequence.
    """

    def __init__(self, capacity: int, n_features: int, seed: int = 0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if n_features <= 0:
            raise ValueError(
                f"n_features must be positive, got {n_features}"
            )
        self.capacity = int(capacity)
        self.n_features = int(n_features)
        self._x = np.empty((capacity, n_features), dtype=np.float64)
        self._y = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._total = 0
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return self._size

    @property
    def total(self) -> int:
        """Pairs ever observed (monotonic, unlike ``len``)."""
        with self._lock:
            return self._total

    def add(self, features: np.ndarray, y: float) -> int:
        """Record one pair; returns the new observation total."""
        row = np.asarray(features, dtype=np.float64).ravel()
        if row.shape[0] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {row.shape[0]}"
            )
        with self._lock:
            self._total += 1
            if self._size < self.capacity:
                self._x[self._size] = row
                self._y[self._size] = float(y)
                self._size += 1
            else:
                j = int(self._rng.integers(self._total))
                if j < self.capacity:
                    self._x[j] = row
                    self._y[j] = float(y)
            return self._total

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """A consistent copy of the current contents (x, y)."""
        with self._lock:
            return (
                self._x[: self._size].copy(),
                self._y[: self._size].copy(),
            )


# ----------------------------------------------------------------------
# Fine-tuning
# ----------------------------------------------------------------------

def _clone_model(model: MLP) -> MLP:
    clone = MLP(
        model.n_features,
        model.hidden,
        activation=model.layers[0].activation.name,
        seed=0,
    )
    clone.set_weights(model.get_weights())
    return clone


def fine_tune_fit(
    fit: FitResult,
    x_raw: np.ndarray,
    y: np.ndarray,
    *,
    anchor_x: np.ndarray | None = None,
    anchor_y: np.ndarray | None = None,
    config: OnlineConfig,
    lineage: FitLineage,
) -> FitResult:
    """A few warm-started epochs on buffer + anchor pairs; new FitResult.

    ``x_raw`` rows are raw (un-logged) feature vectors in the op's
    ``[config | shape]`` layout — exactly ``OpSpec.encode(log=False)``
    and exactly the offline ``Dataset.x`` convention, so anchor rows mix
    in unmodified.  ``y`` is log2(TFLOPS), the offline target.  The
    fit's scalers are reused frozen (transforms are part of the model's
    identity); only the weights of a *copy* move, so the caller decides
    when the live model swaps.
    """
    xs = _maybe_log(np.atleast_2d(x_raw), True)
    ys = np.asarray(y, dtype=np.float64).ravel()
    have_anchor = (
        anchor_x is not None and anchor_y is not None and len(anchor_x) > 0
    )
    if have_anchor:
        xa = _maybe_log(np.atleast_2d(anchor_x), True)
        ya = np.asarray(anchor_y, dtype=np.float64).ravel()
        x_all = np.vstack([xs, xa])
        y_all = np.concatenate([ys, ya])
    else:
        x_all, y_all = xs, ys

    model = _clone_model(fit.model)
    zx = fit.x_scaler.transform(x_all)
    zy = fit.y_scaler.transform(y_all)
    history = train(
        model,
        zx,
        zy,
        epochs=config.epochs,
        batch_size=config.batch_size,
        optimizer=Adam(lr=config.lr),
        seed=config.seed,
        shuffle=True,
    )
    # Score on the anchor slice when there is one: it is the held-out
    # guard against forgetting.  Otherwise score on the tune pairs.
    if have_anchor:
        val = mse(model.predict(fit.x_scaler.transform(xa)),
                  fit.y_scaler.transform(ya))
    else:
        val = mse(model.predict(zx), zy)
    return FitResult(
        model=model,
        x_scaler=fit.x_scaler,
        y_scaler=fit.y_scaler,
        history=history,
        val_mse=float(val),
        lineage=lineage,
    )


# ----------------------------------------------------------------------
# Update log
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class UpdateRecord:
    """One line of the replayable update log.

    ``digest`` is the BLAKE2b of the fine-tuned fit's bytes: replaying
    the same traffic with the same :class:`OnlineConfig` must reproduce
    every digest, which is how the reproducibility contract is audited
    without storing full fit blobs per update.

    ``status`` is ``"applied"`` for a hot-swapped fit and ``"rejected"``
    for a candidate the rollback guard discarded (its ``val_mse``
    regressed the anchor slice beyond ``rollback_tolerance`` relative to
    ``parent_val_mse``).  Rejected records keep the digest so a replay
    can audit the discarded bytes too.
    """

    device: str
    op: str
    version: int
    parent_version: int
    trigger: str            # "pairs" | "interval" | "flush"
    n_buffer: int
    n_anchor: int
    total_pairs: int
    val_mse: float
    digest: str
    status: str = "applied"     # "applied" | "rejected"
    parent_val_mse: float = float("nan")

    def to_json(self) -> dict:
        return {
            "device": self.device, "op": self.op,
            "version": self.version,
            "parent_version": self.parent_version,
            "trigger": self.trigger, "n_buffer": self.n_buffer,
            "n_anchor": self.n_anchor, "total_pairs": self.total_pairs,
            "val_mse": self.val_mse, "digest": self.digest,
            "status": self.status, "parent_val_mse": self.parent_val_mse,
        }


@dataclass(frozen=True)
class ModelUpdate:
    """One fine-tuned fit ready for the engine to hot-swap in."""

    device: str
    op: str
    fit: FitResult
    record: UpdateRecord


# ----------------------------------------------------------------------
# The learner
# ----------------------------------------------------------------------

@dataclass
class _Snapshot:
    """One queued training job, frozen at cadence-trip time."""

    x: np.ndarray
    y: np.ndarray
    total: int
    trigger: str


class _PairState:
    """Everything the learner tracks for one (device, op)."""

    __slots__ = (
        "buffer", "anchor_x", "anchor_y", "fit", "version",
        "last_snapshot_total", "last_update_t", "jobs",
    )

    def __init__(
        self,
        buffer: ReplayBuffer,
        anchor_x: np.ndarray | None,
        anchor_y: np.ndarray | None,
        fit: FitResult,
        version: int,
    ):
        self.buffer = buffer
        self.anchor_x = anchor_x
        self.anchor_y = anchor_y
        self.fit = fit
        self.version = version
        self.last_snapshot_total = 0
        self.last_update_t = time.monotonic()
        self.jobs: deque[_Snapshot] = deque()


class OnlineLearner:
    """Cadenced fine-tuning over per-(device, op) replay buffers.

    The learner owns no locks on the serving path's models: it trains
    detached copies and hands finished :class:`ModelUpdate` objects to
    whoever called :meth:`run_due` — the engine applies them under its
    per-tuner locks.  Observation, cadence and training are decoupled so
    a slow fine-tune can never stall a search, while snapshot capture at
    cadence-trip time keeps the produced bytes schedule-independent.
    """

    def __init__(self, config: OnlineConfig | None = None):
        self.config = config or OnlineConfig()
        self._states: dict[tuple[str, str], _PairState] = {}
        self._lock = threading.Lock()
        self._log: list[UpdateRecord] = []
        self._train_lock = threading.Lock()

    # -- registration --------------------------------------------------
    def ensure_registered(
        self,
        device: str,
        op: str,
        make: Callable[[], tuple[FitResult, np.ndarray | None,
                                  np.ndarray | None, int]],
    ) -> _PairState:
        """The state for (device, op), creating it from ``make`` once.

        ``make`` returns (fit, full anchor x, full anchor y, n_features);
        the anchor slice is subsampled here with the pinned seed so every
        replica of the same traffic carves the same slice.
        """
        key = (device, op)
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                return state
        fit, ax, ay, n_features = make()
        cfg = self.config
        if ax is not None and len(ax) > cfg.anchor_size:
            rng = np.random.default_rng(cfg.seed)
            idx = rng.permutation(len(ax))[: cfg.anchor_size]
            idx.sort()
            ax, ay = ax[idx].copy(), ay[idx].copy()
        version = fit.model_version
        state = _PairState(
            ReplayBuffer(cfg.buffer_capacity, n_features, seed=cfg.seed),
            ax, ay, fit, version,
        )
        with self._lock:
            return self._states.setdefault(key, state)

    def registered(self) -> tuple[tuple[str, str], ...]:
        with self._lock:
            return tuple(sorted(self._states))

    # -- observation + cadence -----------------------------------------
    def observe(
        self, device: str, op: str, features: np.ndarray, tflops: float
    ) -> bool:
        """Record one measured pair; True if a training job became due."""
        with self._lock:
            state = self._states.get((device, op))
        if state is None or not np.isfinite(tflops) or tflops <= 0:
            return False
        y = float(np.log2(max(float(tflops), 1e-6)))
        total = state.buffer.add(features, y)
        with self._lock:
            if total - state.last_snapshot_total >= self.config.update_every:
                self._capture_locked(state, "pairs")
                return True
        return False

    def tick(self, now: float | None = None) -> bool:
        """Wall-clock liveness cadence; True if any job became due."""
        interval = self.config.interval_s
        if interval is None:
            return False
        now = time.monotonic() if now is None else now
        due = False
        with self._lock:
            for state in self._states.values():
                if (
                    state.buffer.total > state.last_snapshot_total
                    and now - state.last_update_t >= interval
                ):
                    self._capture_locked(state, "interval")
                    due = True
        return due

    def _capture_locked(self, state: _PairState, trigger: str) -> None:
        x, y = state.buffer.snapshot()
        state.last_snapshot_total = state.buffer.total
        state.last_update_t = time.monotonic()
        state.jobs.append(_Snapshot(x=x, y=y, total=state.last_snapshot_total,
                                    trigger=trigger))

    def pending(self) -> int:
        with self._lock:
            return sum(len(s.jobs) for s in self._states.values())

    # -- training ------------------------------------------------------
    def run_due(self) -> list[ModelUpdate]:
        """Fine-tune every queued snapshot, FIFO per pair; returns swaps.

        Serialized by a train lock: concurrent callers (a background
        task racing a close-flush) never interleave updates of one pair,
        so the version chain stays linear.
        """
        from repro.mlp.serialize import fit_to_bytes

        updates: list[ModelUpdate] = []
        with self._train_lock:
            while True:
                with self._lock:
                    item = None
                    for key, state in self._states.items():
                        if state.jobs:
                            item = (key, state, state.jobs.popleft())
                            break
                if item is None:
                    break
                (device, op), state, snap = item
                if len(snap.x) == 0:
                    continue
                parent = state.version
                lineage = FitLineage(
                    model_version=parent + 1,
                    parent_version=parent,
                    n_samples=len(snap.x) + (
                        len(state.anchor_x) if state.anchor_x is not None
                        else 0
                    ),
                    seed=self.config.seed,
                )
                from repro.service.faults import inject

                inject("online.fine_tune")
                fit = fine_tune_fit(
                    state.fit, snap.x, snap.y,
                    anchor_x=state.anchor_x, anchor_y=state.anchor_y,
                    config=self.config, lineage=lineage,
                )
                digest = hashlib.blake2b(
                    fit_to_bytes(fit), digest_size=16
                ).hexdigest()
                parent_val, rejected = self._judge(state, fit)
                record = UpdateRecord(
                    device=device, op=op,
                    version=lineage.model_version,
                    parent_version=parent,
                    trigger=snap.trigger,
                    n_buffer=len(snap.x),
                    n_anchor=(
                        len(state.anchor_x) if state.anchor_x is not None
                        else 0
                    ),
                    total_pairs=snap.total,
                    val_mse=fit.val_mse,
                    digest=digest,
                    status="rejected" if rejected else "applied",
                    parent_val_mse=parent_val,
                )
                with self._lock:
                    if not rejected:
                        state.fit = fit
                        state.version = lineage.model_version
                    self._log.append(record)
                if not rejected:
                    updates.append(ModelUpdate(device, op, fit, record))
        return updates

    def _judge(
        self, state: _PairState, fit: FitResult
    ) -> tuple[float, bool]:
        """(parent anchor val_mse, reject?) for one candidate fit.

        The guard compares the candidate's anchor-slice ``val_mse`` to
        the *parent's* on the same slice, through the same frozen
        scalers, so the two numbers are directly comparable.  Disabled
        (tolerance None) or with no anchor slice, nothing is rejected —
        there is no held-out signal to judge by.
        """
        tol = self.config.rollback_tolerance
        anchored = (
            state.anchor_x is not None
            and state.anchor_y is not None
            and len(state.anchor_x) > 0
        )
        if tol is None or not anchored:
            return float("nan"), False
        xa = state.fit.x_scaler.transform(
            _maybe_log(np.atleast_2d(state.anchor_x), True)
        )
        ya = state.fit.y_scaler.transform(
            np.asarray(state.anchor_y, dtype=np.float64).ravel()
        )
        parent_val = float(mse(state.fit.model.predict(xa), ya))
        return parent_val, bool(fit.val_mse > parent_val * (1.0 + tol))

    def flush(self) -> list[ModelUpdate]:
        """Consume every unconsumed pair now (the close() path).

        Captures a final snapshot for any pair with observations newer
        than its last one, then trains everything queued.
        """
        with self._lock:
            for state in self._states.values():
                if state.buffer.total > state.last_snapshot_total:
                    self._capture_locked(state, "flush")
        return self.run_due()

    # -- introspection -------------------------------------------------
    def version(self, device: str, op: str) -> int:
        with self._lock:
            state = self._states.get((device, op))
            return state.version if state is not None else 0

    def update_log(self) -> tuple[UpdateRecord, ...]:
        with self._lock:
            return tuple(self._log)

    def describe(self) -> dict[tuple[str, str], dict]:
        """Per-pair counters for stats endpoints and the CLI."""
        out: dict[tuple[str, str], dict] = {}
        with self._lock:
            states: Iterable = list(self._states.items())
            log = list(self._log)
        for key, state in states:
            updates = [r for r in log if (r.device, r.op) == key]
            out[key] = {
                "version": state.version,
                "buffer_size": len(state.buffer),
                "total_pairs": state.buffer.total,
                "pending_jobs": len(state.jobs),
                "updates": len(
                    [r for r in updates if r.status == "applied"]
                ),
                "rejections": len(
                    [r for r in updates if r.status == "rejected"]
                ),
                "val_mse": state.fit.val_mse,
            }
        return out
