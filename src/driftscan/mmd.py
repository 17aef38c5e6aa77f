"""Maximum mean discrepancy between two finite samples.

Two estimators of MMD^2 are provided:

* biased (V-statistic): mean of the kernel over all within-sample pairs of
  each sample plus each other, minus twice the mean over cross pairs. Always
  nonnegative up to rounding.
* unbiased (U-statistic): within-sample means exclude the diagonal (i != j).
  Mean-zero when both samples share a distribution, so it can go negative.

:func:`mmd_oracle` recomputes the same statistic with literal double loops
over :func:`~driftscan.kernels.kernel_value` and no algebraic rearrangement.
It exists to cross-check :func:`mmd` in tests and is far too slow for
production sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix, ValidationError
from .kernels import KernelSpec, kernel_matrix, kernel_value, resolve_bandwidth

ESTIMATORS = ("biased", "unbiased")


@dataclass(frozen=True)
class MmdEstimate:
    """MMD^2 estimate plus its square root.

    ``value`` is sqrt(max(0, squared)); report consumers should threshold on
    ``squared`` to avoid square-root noise near zero. ``bandwidth_used`` is
    None for kernels that take no bandwidth.
    """

    squared: float
    value: float
    estimator: str
    bandwidth_used: float | None

    @classmethod
    def from_squared(cls, squared: float, estimator: str, bandwidth_used: float | None) -> "MmdEstimate":
        return cls(
            squared=squared,
            value=math.sqrt(max(0.0, squared)),
            estimator=estimator,
            bandwidth_used=bandwidth_used,
        )


def _check_inputs(q1: EmbeddingMatrix, q2: EmbeddingMatrix, estimator: str) -> None:
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if q1.dims != q2.dims:
        raise ValidationError(f"dimension mismatch: {q1.dims} vs {q2.dims}")
    minimum = 1 if estimator == "biased" else 2
    if q1.rows < minimum or q2.rows < minimum:
        raise ValidationError(
            f"{estimator} estimator needs >= {minimum} rows per sample, got {q1.rows} and {q2.rows}"
        )


def mmd_sq_from_gram(kxx: np.ndarray, kyy: np.ndarray, kxy: np.ndarray, estimator: str) -> float:
    """Reduce precomputed Gram blocks to MMD^2.

    Shared by :func:`mmd` and :func:`~driftscan.resample.window_test`, which
    passes contiguous blocks of a window's pool Gram matrix and so gets the
    same bits as :func:`mmd`. The bootstrap evaluates the same sums as
    quadratic forms over count vectors
    (:func:`~driftscan.resample.null_stats_from_gram`). The cross term sums
    the block in both orientations (the transpose materialized so the
    summation order is its own row-major order, which numpy would otherwise
    bypass) so that swapping the two samples is bit-exact.
    """
    n = kxx.shape[0]
    m = kyy.shape[0]
    cross = (float(np.sum(kxy)) + float(np.sum(np.ascontiguousarray(kxy.T)))) / (n * m)
    if estimator == "biased":
        within_x = float(np.sum(kxx)) / (n * n)
        within_y = float(np.sum(kyy)) / (m * m)
    else:
        within_x = (float(np.sum(kxx)) - float(np.trace(kxx))) / (n * (n - 1))
        within_y = (float(np.sum(kyy)) - float(np.trace(kyy))) / (m * (m - 1))
    return (within_x + within_y) - cross


def mmd(
    spec: KernelSpec,
    q1: EmbeddingMatrix,
    q2: EmbeddingMatrix,
    estimator: str = "biased",
    bandwidth: float | None = None,
) -> MmdEstimate:
    """MMD^2 (and MMD) between two samples.

    When ``bandwidth`` is None it is resolved from ``spec``'s policy over the
    pooled rows of both samples; pass an explicit value to reuse a bandwidth
    resolved elsewhere (e.g. once per scan). Deterministic and independent of
    row order within each sample.
    """
    _check_inputs(q1, q2, estimator)
    x = q1.as_float64()
    y = q2.as_float64()
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, np.vstack([x, y]))
    sq = mmd_sq_from_gram(
        kernel_matrix(spec, bandwidth, x, x),
        kernel_matrix(spec, bandwidth, y, y),
        kernel_matrix(spec, bandwidth, x, y),
        estimator,
    )
    return MmdEstimate.from_squared(sq, estimator, bandwidth)


def mmd_oracle(
    spec: KernelSpec,
    q1: EmbeddingMatrix,
    q2: EmbeddingMatrix,
    estimator: str = "biased",
    bandwidth: float | None = None,
) -> MmdEstimate:
    """Brute-force MMD^2: explicit loops, one kernel_value call per pair."""
    _check_inputs(q1, q2, estimator)
    x = q1.as_float64()
    y = q2.as_float64()
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, np.vstack([x, y]))
    n = q1.rows
    m = q2.rows

    sum_xx = 0.0
    count_xx = 0
    for i in range(n):
        for j in range(n):
            if estimator == "unbiased" and i == j:
                continue
            sum_xx += kernel_value(spec, bandwidth, x[i], x[j])
            count_xx += 1
    sum_yy = 0.0
    count_yy = 0
    for i in range(m):
        for j in range(m):
            if estimator == "unbiased" and i == j:
                continue
            sum_yy += kernel_value(spec, bandwidth, y[i], y[j])
            count_yy += 1
    sum_xy = 0.0
    for i in range(n):
        for j in range(m):
            sum_xy += kernel_value(spec, bandwidth, x[i], y[j])

    sq = sum_xx / count_xx + sum_yy / count_yy - 2.0 * sum_xy / (n * m)
    return MmdEstimate.from_squared(sq, estimator, bandwidth)
