"""Cross-validation utilities for the Table 2 / Figure 5 experiments.

The paper reports "cross-validation MSE ... measured on a fixed set of
10,000 data-points separate from the ... samples used for training" — i.e.
held-out validation error on standardized targets, which is the
``val_mse`` :func:`fit_regressor` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.mlp.losses import mse
from repro.mlp.network import MLP
from repro.mlp.optimizers import Adam
from repro.mlp.scaler import StandardScaler, TargetScaler
from repro.mlp.training import History, train


@dataclass(frozen=True)
class FitLineage:
    """Provenance of one fit in the versioned model store.

    ``model_version`` 0 is the offline fit; each online fine-tune bumps
    it by one and records its ``parent_version``.  ``n_samples`` counts
    the pairs the fit (or fine-tune) trained on and ``seed`` is the
    training seed — together enough to replay (and verify) an online
    update log bit-for-bit.
    """

    model_version: int = 0
    parent_version: int | None = None
    n_samples: int = 0
    seed: int = 0


@dataclass(frozen=True)
class CascadeCalibration:
    """Offline-calibrated safety margins for the two-stage cascade search.

    ``margins`` maps a dtype name to delta: the largest gap observed
    between the full standardized model output and the cascade's cheap
    stage-1 proxy over the calibration shapes, times ``safety``.  The
    cascade keeps every candidate whose proxy score is within ``2*delta``
    of the shortlist threshold, which provably contains the exhaustive
    top-k whenever the margin holds (and query-time checks fall back to
    exhaustive scoring whenever it does not).

    ``weights_digest`` hashes every model weight and scaler statistic at
    calibration time; a mismatch at query time means the weights moved
    since calibration (fine-tune hot-swap, in-place mutation) and
    disables the cascade until recalibration — stale-margin pruning is
    structurally impossible.
    """

    margins: dict[str, float]
    weights_digest: str
    n_shapes: int = 0
    safety: float = 4.0


@dataclass
class FitResult:
    """A trained model with its transforms and held-out error.

    ``lineage`` is None for fits that predate the versioned model store
    (or were never versioned); readers treat that as version 0.
    ``cascade`` is None until the two-stage search margins have been
    calibrated for this exact set of weights (``Isaac.tune`` /
    ``Engine.warmup`` do so); uncalibrated fits always search
    exhaustively.
    """

    model: MLP
    x_scaler: StandardScaler
    y_scaler: TargetScaler
    history: History
    val_mse: float
    lineage: FitLineage | None = None
    cascade: CascadeCalibration | None = None

    @property
    def model_version(self) -> int:
        return self.lineage.model_version if self.lineage else 0


def fit_regressor(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    *,
    hidden: Sequence[int] = (32, 64, 32),
    log_features: bool = True,
    epochs: int = 60,
    batch_size: int = 256,
    lr: float = 1e-3,
    seed: int = 0,
    patience: int = 10,
) -> FitResult:
    """Standardize, (optionally log-) transform, train, and score.

    ``log_features=False`` reproduces the paper's no-log ablation: raw
    integer features are standardized but products/ratios stay products,
    and the network converges "to much worse solutions — if at all".
    """
    xt = _maybe_log(x_train, log_features)
    xv = _maybe_log(x_val, log_features)
    xs = StandardScaler().fit(xt)
    ys = TargetScaler().fit(y_train)

    model = MLP(x_train.shape[1], hidden, seed=seed)
    history = train(
        model,
        xs.transform(xt),
        ys.transform(y_train),
        epochs=epochs,
        batch_size=batch_size,
        optimizer=Adam(lr=lr),
        x_val=xs.transform(xv),
        y_val=ys.transform(y_val),
        patience=patience,
        seed=seed,
    )
    val = mse(model.predict(xs.transform(xv)), ys.transform(y_val))
    return FitResult(model=model, x_scaler=xs, y_scaler=ys,
                     history=history, val_mse=val)


def _maybe_log(x: np.ndarray, log: bool) -> np.ndarray:
    if not log:
        return np.asarray(x, dtype=np.float64)
    out = np.asarray(x, dtype=np.float64).copy()
    mask = out > 0
    out[mask] = np.log2(out[mask])
    return out
