"""Brute-force references for the tests: one kernel evaluation per pair, no algebraic rearrangement.

:func:`mmd_oracle` recomputes :func:`driftscan.mmd.mmd` with literal double
loops over :func:`kernel_value`. It is far too slow for production sizes
and exists only to cross-check the fast path.
"""

import numpy as np

from driftscan.kernels import KernelSpec, resolve_bandwidth
from driftscan.mmd import _check_inputs


def kernel_value(spec: KernelSpec, bandwidth: float | None, x, y) -> float:
    """Evaluate the kernel on two vectors with an already-resolved bandwidth."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError(f"x and y must be vectors of equal length, got {xv.shape} and {yv.shape}")
    if spec.family == "linear":
        return float(np.dot(xv, yv))
    if bandwidth is None or bandwidth <= 0:
        raise ValueError(f"rbf kernel needs a positive bandwidth, got {bandwidth!r}")
    diff = xv - yv
    return float(np.exp(-np.dot(diff, diff) / (2.0 * bandwidth * bandwidth)))


def mmd_oracle(spec, q1, q2, estimator="biased", bandwidth=None) -> tuple[float, float | None]:
    """Brute-force MMD^2 and the bandwidth it used: explicit loops, one kernel_value call per pair."""
    _check_inputs(q1, q2, estimator)
    x = q1.astype(np.float64)
    y = q2.astype(np.float64)
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, x, y)
    n = q1.shape[0]
    m = q2.shape[0]

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

    return sum_xx / count_xx + sum_yy / count_yy - 2.0 * sum_xy / (n * m), bandwidth
