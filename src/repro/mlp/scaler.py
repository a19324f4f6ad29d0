"""Feature / target standardization.

After the paper's log transform, features still span different ranges
(log2 of tile sizes vs boolean layout flags); standardizing keeps SGD
well-conditioned.  Targets are standardized too, so cross-validation MSE
is reported in variance-of-y units — the scale on which Table 2's 0.06–0.17
numbers live.
"""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Per-column zero-mean unit-variance scaling with inverse transform."""

    def __init__(self):
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        # Constant columns scale by 1 so transform is a no-op for them.
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        self._check()
        return (np.atleast_2d(np.asarray(x, dtype=np.float64)) - self.mean_) / self.scale_

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        self._check()
        return np.atleast_2d(x) * self.scale_ + self.mean_

    def _check(self) -> None:
        if self.mean_ is None:
            raise RuntimeError("scaler used before fit()")


class TargetScaler:
    """1-D convenience wrapper for standardizing regression targets."""

    def __init__(self):
        self.mean_ = 0.0
        self.scale_ = 1.0
        self._fitted = False

    def fit(self, y: np.ndarray) -> "TargetScaler":
        y = np.asarray(y, dtype=np.float64)
        self.mean_ = float(y.mean())
        std = float(y.std())
        self.scale_ = std if std > 1e-12 else 1.0
        self._fitted = True
        return self

    def transform(self, y: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("scaler used before fit()")
        return (np.asarray(y, dtype=np.float64) - self.mean_) / self.scale_

    def inverse_transform(self, y: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("scaler used before fit()")
        return np.asarray(y, dtype=np.float64) * self.scale_ + self.mean_
