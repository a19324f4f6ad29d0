"""Feature encoding for the regression model (§5.2).

A sample x concatenates the tuning parameters with the input parameters —
for GEMM that is 10 + 6 = 16 components, matching the paper's
``X ⊂ N^16``.  The paper's key observation is that performance depends on
*products, ratios and maxima* of these quantities, which an MLP models
poorly on raw inputs; taking ``a_{-1} = log(x)`` turns products into sums
and "greatly improved the performance of our system".  ``log=False``
reproduces the paper's no-log ablation (Table 2, bracketed column).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.config import ConvConfig, GemmConfig
from repro.core.types import ConvShape, GemmShape

GEMM_CONFIG_FEATURES = GemmConfig.param_names()          # 10
GEMM_SHAPE_FEATURES = ("m", "n", "k", "dtype_bytes", "ta", "tb")  # 6
GEMM_FEATURES = GEMM_CONFIG_FEATURES + GEMM_SHAPE_FEATURES

CONV_CONFIG_FEATURES = ConvConfig.param_names()          # 14
CONV_SHAPE_FEATURES = (
    "n", "c", "h", "w", "k", "r", "s", "npq", "crs", "dtype_bytes",
)  # 10 (npq / crs are the implicit-GEMM extents)
CONV_FEATURES = CONV_CONFIG_FEATURES + CONV_SHAPE_FEATURES

BGEMM_SHAPE_FEATURES = ("batch",) + GEMM_SHAPE_FEATURES  # 7
BGEMM_FEATURES = GEMM_CONFIG_FEATURES + BGEMM_SHAPE_FEATURES


def _log_positive(x: np.ndarray) -> np.ndarray:
    """log2 of positive features; 0/1 flags pass through unchanged."""
    out = x.astype(np.float64, copy=True)
    mask = out > 0
    out[mask] = np.log2(out[mask])
    return out


def config_matrix_from_params(
    params: Mapping[str, np.ndarray],
    feature_names: Sequence[str],
    log: bool = True,
) -> np.ndarray:
    """Config-feature matrix straight from struct-of-arrays columns.

    Bit-identical to ``*_config_matrix`` over the equivalent config
    objects (same float64 conversion, same log transform) without ever
    materializing them — the array-native path of the candidate pipeline.
    Built one column at a time, so the transients are a column's, not
    the matrix's (GEMM's enumeration: 161,518 rows).
    """
    n = len(params[feature_names[0]]) if feature_names else 0
    out = np.empty((n, len(feature_names)))
    for j, name in enumerate(feature_names):
        col = np.asarray(params[name], dtype=np.float64)
        out[:, j] = _log_positive(col) if log else col
    return out


# ----------------------------------------------------------------------
# GEMM
# ----------------------------------------------------------------------

def gemm_config_matrix(
    configs: Sequence[GemmConfig], log: bool = True
) -> np.ndarray:
    """(n_configs, 10) matrix of tuning-parameter features."""
    raw = np.array(
        [[getattr(c, p) for p in GEMM_CONFIG_FEATURES] for c in configs],
        dtype=np.float64,
    )
    return _log_positive(raw) if log else raw


def gemm_shape_vector(shape: GemmShape, log: bool = True) -> np.ndarray:
    """(6,) vector of input-parameter features.

    The layout flags are encoded as ``1 + flag`` so the log2 transform maps
    them to 0/1 — the raw (training) and log (inference) paths then agree
    after the training-side log, instead of the raw flags collapsing to a
    constant ``log2(1) = 0`` column the model cannot learn from.
    """
    raw = np.array(
        [
            shape.m,
            shape.n,
            shape.k,
            shape.dtype.size,
            1.0 + shape.ta,
            1.0 + shape.tb,
        ],
        dtype=np.float64,
    )
    return _log_positive(raw) if log else raw


def encode_gemm(
    cfg: GemmConfig, shape: GemmShape, log: bool = True
) -> np.ndarray:
    """Full 16-component feature vector for one (config, shape) pair."""
    return np.concatenate(
        [gemm_config_matrix([cfg], log)[0], gemm_shape_vector(shape, log)]
    )


def gemm_design_matrix(
    configs: Sequence[GemmConfig], shape: GemmShape, log: bool = True
) -> np.ndarray:
    """Feature matrix for many configs at one fixed shape.

    This is the runtime-inference layout: input parameters are fixed by the
    user, the model is evaluated over all candidate tuning vectors (§6).
    """
    cfg_part = gemm_config_matrix(configs, log)
    shape_part = np.tile(gemm_shape_vector(shape, log), (len(configs), 1))
    return np.hstack([cfg_part, shape_part])


# ----------------------------------------------------------------------
# CONV
# ----------------------------------------------------------------------

def conv_config_matrix(
    configs: Sequence[ConvConfig], log: bool = True
) -> np.ndarray:
    raw = np.array(
        [[getattr(c, p) for p in CONV_CONFIG_FEATURES] for c in configs],
        dtype=np.float64,
    )
    return _log_positive(raw) if log else raw


def conv_shape_vector(shape: ConvShape, log: bool = True) -> np.ndarray:
    raw = np.array(
        [
            shape.n,
            shape.c,
            shape.h,
            shape.w,
            shape.k,
            shape.r,
            shape.s,
            shape.npq,
            shape.crs,
            shape.dtype.size,
        ],
        dtype=np.float64,
    )
    return _log_positive(raw) if log else raw


def encode_conv(
    cfg: ConvConfig, shape: ConvShape, log: bool = True
) -> np.ndarray:
    return np.concatenate(
        [conv_config_matrix([cfg], log)[0], conv_shape_vector(shape, log)]
    )


def conv_design_matrix(
    configs: Sequence[ConvConfig], shape: ConvShape, log: bool = True
) -> np.ndarray:
    cfg_part = conv_config_matrix(configs, log)
    shape_part = np.tile(conv_shape_vector(shape, log), (len(configs), 1))
    return np.hstack([cfg_part, shape_part])


# ----------------------------------------------------------------------
# Batched GEMM
# ----------------------------------------------------------------------

def bgemm_shape_vector(shape, log: bool = True) -> np.ndarray:
    """(7,) vector: the batch extent prepended to the base GEMM features."""
    batch = np.log2(shape.batch) if log else float(shape.batch)
    return np.concatenate([[batch], gemm_shape_vector(shape.base, log)])
