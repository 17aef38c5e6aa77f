"""Maximum mean discrepancy between two finite samples.

Two estimators of MMD^2 are provided:

* biased (V-statistic): mean of the kernel over all within-sample pairs of
  each sample plus each other, minus twice the mean over cross pairs. Always
  nonnegative up to rounding.
* unbiased (U-statistic): within-sample means exclude the diagonal (i != j).
  Mean-zero when both samples share a distribution, so it can go negative.
"""

from __future__ import annotations

import math

import numpy as np

from .embeddings import EmbeddingMatrix, ValidationError
from .kernels import KernelSpec, kernel_matrix, resolve_bandwidth

ESTIMATORS = ("biased", "unbiased")

#: float64 numbers (2 GB) one window test, or one :func:`mmd`, may hold at
#: its peak. Larger requests are refused before any kernel work, the same
#: way on every machine: the machine's memory is not read.
WINDOW_NUMBERS = 1 << 28


def mmd_value(squared: float) -> float:
    """MMD from MMD^2: sqrt(max(0, squared)), so a negative unbiased estimate reads 0.

    Threshold on ``squared``: its square root magnifies noise near zero.
    """
    return math.sqrt(max(0.0, squared))


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
    numbers = (q1.rows + q2.rows) ** 2  # both within Grams, the cross block and its transposed copy
    if numbers > WINDOW_NUMBERS:
        raise ValidationError(f"MMD of {q1.rows} and {q2.rows} rows needs about {numbers * 8 / 2**30:.1f} GB of "
                              f"Grams, over the {WINDOW_NUMBERS * 8 / 2**30:.0f} GB it may hold")


def mmd_sq_from_gram(kxx: np.ndarray, kyy: np.ndarray, kxy: np.ndarray, estimator: str):
    """Reduce precomputed Gram blocks to MMD^2.

    Shared by :func:`mmd` and the window test, which passes views of its
    runs' Grams with leading run and window axes. Each block is summed as
    a contiguous copy, one at a time, so each window gets :func:`mmd`'s
    bits. The flip null moves this value by quadratic forms over sign
    vectors (:func:`~driftscan.resample.window_test`). The cross term sums
    the block in both orientations (the transpose materialized so the
    summation order is its own row-major order, which numpy would otherwise
    bypass) so that swapping the two samples is bit-exact.
    """
    n = kxx.shape[-1]
    m = kyy.shape[-1]

    def total(block):  # one contiguous copy at a time
        return np.sum(np.ascontiguousarray(block), axis=(-2, -1))

    cross = (total(kxy) + total(np.swapaxes(kxy, -2, -1))) / (n * m)
    if estimator == "biased":
        within_x = total(kxx) / (n * n)
        within_y = total(kyy) / (m * m)
    else:
        within_x = (total(kxx) - np.trace(kxx, axis1=-2, axis2=-1)) / (n * (n - 1))
        within_y = (total(kyy) - np.trace(kyy, axis1=-2, axis2=-1)) / (m * (m - 1))
    return (within_x + within_y) - cross


def mmd(
    spec: KernelSpec,
    q1: EmbeddingMatrix,
    q2: EmbeddingMatrix,
    estimator: str = "biased",
    bandwidth: float | None = None,
) -> tuple[float, float | None]:
    """MMD^2 between two samples, and the bandwidth it used (None for kernels that take none).

    When ``bandwidth`` is None it is resolved from ``spec``'s policy over the
    pooled rows of both samples; pass an explicit value to reuse a bandwidth
    resolved elsewhere (e.g. once per scan). Deterministic; swapping the two
    samples gives the same bits, and reordering a sample's rows the same
    value up to rounding.
    """
    _check_inputs(q1, q2, estimator)
    x = q1.as_float64()
    y = q2.as_float64()
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, x, y)
    sq = float(mmd_sq_from_gram(
        kernel_matrix(spec, bandwidth, x, x),
        kernel_matrix(spec, bandwidth, y, y),
        kernel_matrix(spec, bandwidth, x, y),
        estimator,
    ))
    return sq, bandwidth

