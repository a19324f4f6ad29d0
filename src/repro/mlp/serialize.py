"""Persistence for trained regressors.

A tuned ISAAC deployment ships the trained model, not the training data
(§6: predictions are "cached on the filesystem, or even used as a kernel
generation backend").  This module serializes a
:class:`~repro.mlp.crossval.FitResult` — network weights, architecture,
activation, both scalers and the held-out MSE — to a single ``.npz`` file
and restores it bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.mlp.crossval import CascadeCalibration, FitLineage, FitResult
from repro.mlp.network import MLP
from repro.mlp.scaler import StandardScaler, TargetScaler
from repro.mlp.training import History

FORMAT_VERSION = 1


#: The form of the cascade's float32 stage 1, hashed into every weights
#: digest.  A margin measures one proxy's rounding, so a margin measured
#: against other stage-1 arithmetic must not arm this one: change the
#: constant whenever the stage-1 arithmetic changes.
_STAGE1_FORM = (
    b"cascade stage 1: thresholded ReLU layers, one constant per group, "
    b"raw features through W1 / scale per chunk"
)


def fit_weights_digest(fit: FitResult) -> str:
    """BLAKE2b over every weight, bias, activation and scaler statistic.

    The cascade's calibrated margins are only valid for the exact network
    and the exact stage-1 form they were measured against; this digest is
    stored inside :class:`~repro.mlp.crossval.CascadeCalibration` and
    re-checked before pruning, so a hot-swapped or mutated model, or a
    calibration of an older stage 1, can never prune with a stale margin.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(_STAGE1_FORM)
    for layer in fit.model.layers:
        h.update(layer.activation.name.encode())
        h.update(np.ascontiguousarray(layer.w, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(layer.b, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(fit.x_scaler.mean_, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(fit.x_scaler.scale_, dtype=np.float64).tobytes())
    h.update(np.float64(fit.y_scaler.mean_).tobytes())
    h.update(np.float64(fit.y_scaler.scale_).tobytes())
    return h.hexdigest()


def fit_to_bytes(fit: FitResult) -> bytes:
    """The ``.npz`` serialization of a fit, in memory.

    The worker tier ships each (device, op) fit to its processes through
    this — one pipe message per worker at warm boot, same format as the
    on-disk model store, restored bit-exactly by :func:`fit_from_bytes`.
    """
    import io

    buf = io.BytesIO()
    _write_fit(fit, buf)
    return buf.getvalue()


def fit_from_bytes(data: bytes) -> FitResult:
    """Restore a regressor serialized by :func:`fit_to_bytes`."""
    import io

    return _read_fit(io.BytesIO(data), "<bytes>")


def save_fit(fit: FitResult, path: str | Path) -> None:
    """Write a trained regressor to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        _write_fit(fit, f)


def _write_fit(fit: FitResult, f) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "n_features": fit.model.n_features,
        "hidden": list(fit.model.hidden),
        "activation": fit.model.layers[0].activation.name,
        "val_mse": fit.val_mse,
        "y_mean": fit.y_scaler.mean_,
        "y_scale": fit.y_scaler.scale_,
        "train_mse": fit.history.train_mse,
        "val_mse_curve": fit.history.val_mse,
        "best_epoch": fit.history.best_epoch,
    }
    if fit.lineage is not None:
        # Optional header: stored fits that predate the versioned model
        # store simply lack the key, and old readers ignore it — the
        # format version does not change in either direction.
        meta["lineage"] = {
            "model_version": fit.lineage.model_version,
            "parent_version": fit.lineage.parent_version,
            "n_samples": fit.lineage.n_samples,
            "seed": fit.lineage.seed,
        }
    if fit.cascade is not None:
        # Optional header too, same back-compat contract as "lineage".
        meta["cascade"] = {
            "margins": {k: float(v) for k, v in fit.cascade.margins.items()},
            "weights_digest": fit.cascade.weights_digest,
            "n_shapes": fit.cascade.n_shapes,
            "safety": fit.cascade.safety,
        }
    arrays: dict[str, np.ndarray] = {
        "x_mean": fit.x_scaler.mean_,
        "x_scale": fit.x_scaler.scale_,
    }
    for i, layer in enumerate(fit.model.layers):
        arrays[f"w{i}"] = layer.w
        arrays[f"b{i}"] = layer.b
    np.savez(f, meta=json.dumps(meta), **arrays)


def load_fit(path: str | Path) -> FitResult:
    """Restore a regressor saved by :func:`save_fit`."""
    path = Path(path)
    with open(path, "rb") as f:
        return _read_fit(f, path)


def _read_fit(f, origin) -> FitResult:
    with np.load(f, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported format version {meta.get('format_version')!r} "
                f"in {origin}"
            )
        model = MLP(
            meta["n_features"],
            tuple(meta["hidden"]),
            activation=meta["activation"],
            seed=0,
        )
        weights = []
        for i in range(len(model.layers)):
            weights.append(data[f"w{i}"])
            weights.append(data[f"b{i}"])
        model.set_weights(weights)

        xs = StandardScaler()
        xs.mean_ = data["x_mean"]
        xs.scale_ = data["x_scale"]
        ys = TargetScaler()
        ys.mean_ = float(meta["y_mean"])
        ys.scale_ = float(meta["y_scale"])
        ys._fitted = True

        history = History(
            train_mse=list(meta["train_mse"]),
            val_mse=list(meta["val_mse_curve"]),
            best_epoch=int(meta["best_epoch"]),
        )
        raw_lineage = meta.get("lineage")
        lineage = None
        if raw_lineage is not None:
            parent = raw_lineage.get("parent_version")
            lineage = FitLineage(
                model_version=int(raw_lineage.get("model_version", 0)),
                parent_version=None if parent is None else int(parent),
                n_samples=int(raw_lineage.get("n_samples", 0)),
                seed=int(raw_lineage.get("seed", 0)),
            )
        raw_cascade = meta.get("cascade")
        cascade = None
        if raw_cascade is not None:
            cascade = CascadeCalibration(
                margins={
                    str(k): float(v)
                    for k, v in raw_cascade.get("margins", {}).items()
                },
                weights_digest=str(raw_cascade.get("weights_digest", "")),
                n_shapes=int(raw_cascade.get("n_shapes", 0)),
                safety=float(raw_cascade.get("safety", 0.0)),
            )
    return FitResult(
        model=model,
        x_scaler=xs,
        y_scaler=ys,
        history=history,
        val_mse=float(meta["val_mse"]),
        lineage=lineage,
        cascade=cascade,
    )
