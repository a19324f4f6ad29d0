"""ISAAC: the end-to-end input-aware auto-tuner (paper Figure 1).

One :class:`Isaac` instance owns the whole pipeline for one device and one
operation:

1. *data generation* — fit the categorical generative model, benchmark
   random legal kernels on the (simulated) device;
2. *regression analysis* — train the MLP on log-transformed features;
3. *runtime inference* — exhaustive model search over tuning parameters
   for the user's input parameters, then top-k re-ranking on the device.

The operation is any name registered with the
:mod:`~repro.core.ops` registry — ``gemm``, ``conv``, ``bgemm`` out of the
box — so new kernels plug into the tuner without modifying it.  The tuned
mapping ``input parameters -> kernel`` can be persisted through
:class:`~repro.core.profile_cache.ProfileCache`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.ops import OpSpec, get_op
from repro.core.profile_cache import ProfileCache
from repro.core.types import DType
from repro.gpu.device import DeviceSpec
from repro.inference.search import ExhaustiveSearch, Prediction
from repro.inference.topk import RankedKernel, best_after_rerank
from repro.mlp.crossval import FitResult, fit_regressor
from repro.sampling.dataset import (
    Dataset,
    fit_generative_models,
    generate_dataset,
)


@dataclass
class TuneReport:
    """Summary of one offline tuning run."""

    n_samples: int
    val_mse: float
    hidden: tuple[int, ...]

    def __str__(self) -> str:
        arch = ", ".join(map(str, self.hidden))
        return (
            f"tuned on {self.n_samples} samples; "
            f"MLP[{arch}] cross-val MSE {self.val_mse:.4f}"
        )


class Isaac:
    """Input-aware auto-tuner for one device and one operation.

    Typical use::

        tuner = Isaac(TESLA_P100, op="gemm")
        tuner.tune(n_samples=20_000, seed=0)
        kernel = tuner.best_kernel(GemmShape(2560, 16, 2560))
        print(kernel.config, kernel.measured_tflops)
    """

    def __init__(
        self,
        device: DeviceSpec,
        op: str | OpSpec = "gemm",
        dtypes: Sequence[DType] | None = None,
    ):
        self.spec = get_op(op)
        self.device = device
        self.op = self.spec.name
        if dtypes is None:
            dtypes = self.spec.default_dtypes
        self.dtypes = tuple(dtypes)
        self.dataset: Dataset | None = None
        self.fit_result: FitResult | None = None
        self._search: ExhaustiveSearch | None = None

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def tune(
        self,
        n_samples: int = 20_000,
        *,
        hidden: Sequence[int] = (32, 64, 32),
        epochs: int = 40,
        val_frac: float = 0.1,
        seed: int = 0,
        patience: int = 8,
        generative_target: int = 400,
        cascade: bool = True,
    ) -> TuneReport:
        """Run data generation and regression analysis.

        ``cascade=True`` (default) additionally calibrates the two-stage
        cascade's pruning margins for the freshly trained fit, so cold
        queries serve from the shortlist path immediately.
        """
        rng = np.random.default_rng(seed)
        samplers = fit_generative_models(
            self.device,
            op=self.spec,
            dtypes=self.dtypes,
            rng=rng,
            target_accepted=generative_target,
        )
        self.dataset = generate_dataset(
            self.device,
            self.spec,
            n_samples,
            rng,
            samplers=samplers,
            dtypes=self.dtypes,
        )
        train, val = self.dataset.split(val_frac, rng)
        self.fit_result = fit_regressor(
            train.x,
            train.y,
            val.x,
            val.y,
            hidden=hidden,
            epochs=epochs,
            seed=seed,
            patience=patience,
        )
        self._search = ExhaustiveSearch(self.fit_result, self.device, self.spec)
        if cascade:
            self.calibrate_cascade(seed=seed)
        return TuneReport(
            n_samples=n_samples,
            val_mse=self.fit_result.val_mse,
            hidden=tuple(hidden),
        )

    def calibrate_cascade(
        self, *, n_shapes: int = 4, seed: int = 0, safety: float = 4.0
    ):
        """(Re)calibrate the cascade margins and attach them to the fit.

        Safe to call after the weights changed in place (pruning, say):
        the fresh calibration carries the new weights' digest, re-arming
        the cascade that the change disabled.  Deterministic for a given
        seed.
        """
        search = self._require_tuned()
        assert self.fit_result is not None
        calibration = search.calibrate_cascade(
            self.dtypes, n_shapes=n_shapes, seed=seed, safety=safety
        )
        self.fit_result.cascade = calibration
        return calibration

    @property
    def is_tuned(self) -> bool:
        return self._search is not None

    @property
    def searcher(self) -> ExhaustiveSearch | None:
        """The runtime search instance (None before tune/load)."""
        return self._search

    @searcher.setter
    def searcher(self, search: ExhaustiveSearch) -> None:
        self._search = search

    @classmethod
    def from_fit(
        cls,
        device: DeviceSpec,
        op: str | OpSpec,
        fit: FitResult,
        dtypes: Sequence[DType] | None = None,
    ) -> "Isaac":
        """A ready-for-inference tuner over an already-trained fit.

        How a worker process rebuilds its tuners from shipped fit bytes,
        how :meth:`load` restores one from disk and how an online
        hot-swap prepares the search it installs: no dataset, no
        training — just the regressor and a fresh exhaustive search.
        """
        tuner = cls(device, op=op, dtypes=dtypes)
        tuner.fit_result = fit
        tuner._search = ExhaustiveSearch(fit, device, tuner.spec)
        return tuner

    def _require_tuned(self) -> ExhaustiveSearch:
        if self._search is None:
            raise RuntimeError("call tune() before runtime inference")
        return self._search

    # ------------------------------------------------------------------
    # Runtime phase
    # ------------------------------------------------------------------
    def top_k(self, shape, k: int = 100) -> list[Prediction]:
        """The model's k best tuning vectors for fixed input parameters."""
        return self._require_tuned().top_k(shape, k)

    def top_k_batch(
        self, shapes: Sequence, k: int = 100
    ) -> list[list[Prediction]]:
        """Per-shape top-k for many input shapes in one model pass."""
        return self._require_tuned().top_k_batch(shapes, k)

    def best_kernel(
        self,
        shape,
        *,
        k: int = 100,
        reps: int = 3,
        cache: ProfileCache | None = None,
    ) -> RankedKernel:
        """Exhaustive model search + top-k device re-ranking (§6)."""
        if cache is not None:
            hit = cache.get(self.spec, self.device.name, shape)
            if hit is not None:
                cfg, tflops = hit
                # The cache persists only the measurement; there is no
                # model prediction to report for a cache hit.
                return RankedKernel(
                    config=cfg,
                    predicted_tflops=math.nan,
                    measured_tflops=tflops,
                    source="cache",
                )
        best = best_after_rerank(
            self.device, shape, self.top_k(shape, k), op=self.spec, reps=reps
        )
        if cache is not None:
            cache.put(
                self.spec,
                self.device.name,
                shape,
                best.config,
                best.measured_tflops,
            )
        return best

    def tflops(self, shape, *, k: int = 100, reps: int = 3) -> float:
        """Measured TFLOPS of the tuned kernel for this shape."""
        return self.best_kernel(shape, k=k, reps=reps).measured_tflops

    # ------------------------------------------------------------------
    # Persistence: ship the trained model, not the training data.
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialize the trained regressor (+ device/op metadata) to .npz."""
        import json
        from pathlib import Path

        from repro.mlp.serialize import save_fit

        if self.fit_result is None:
            raise RuntimeError("nothing to save — call tune() first")
        path = Path(path)
        save_fit(self.fit_result, path)
        sidecar = {
            "device": self.device.name,
            "op": self.op,
            "dtypes": [d.name for d in self.dtypes],
        }
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(sidecar)
        )
        # Integrity sidecar: lets the Engine quarantine a fit whose bytes
        # rotted on disk instead of crashing (or worse, mispredicting).
        from repro.core.integrity import write_digest

        write_digest(path)

    @classmethod
    def load(cls, path) -> "Isaac":
        """Restore a tuner saved by :meth:`save`; ready for inference."""
        import json
        from pathlib import Path

        from repro.gpu.device import get_device
        from repro.mlp.serialize import load_fit

        path = Path(path)
        sidecar = json.loads(
            path.with_suffix(path.suffix + ".meta.json").read_text()
        )
        return cls.from_fit(
            get_device(sidecar["device"]),
            sidecar["op"],
            load_fit(path),
            dtypes=tuple(DType[name] for name in sidecar["dtypes"]),
        )
