"""Kernel functions and bandwidth selection.

The RBF kernel here is exp(-||x - y||^2 / (2 * bandwidth^2)), so the
bandwidth is a length scale, not a variance. The default bandwidth policy is
the median heuristic: the median of all pairwise Euclidean distances over the
pooled samples, computed once before a scan so that per-window statistics are
comparable. It is exact for any number of rows without holding every
distance: beyond ``BLOCK_DISTANCES`` pairs the distances are made one row
block at a time, on every CPU the process may use, and only those inside a
bracket around the median (about ``2 * BRACKET_MARGIN`` of them) are kept.

``scipy.spatial`` is imported inside the functions that use it, so that
importing the package (and every CLI call) does not pay for it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .embeddings import DegenerateInputError, EmbeddingMatrix, ValidationError

FAMILIES = ("rbf", "linear")

#: bandwidth policy names (a positive float is also accepted, as a fixed value)
MEDIAN_GLOBAL = "median"
MEDIAN_PER_WINDOW = "median-window"

#: distances the median heuristic holds at once: inputs with at most this
#: many pairs take one ``pdist``, larger ones go through row blocks this big
BLOCK_DISTANCES = 1 << 21
#: about how many of a pass's distances are sampled to re-bracket a miss
SEEN_DISTANCES = 1 << 18
#: rows of the strided sample whose distances give the first bracket
BRACKET_SAMPLE_ROWS = 2048
#: half-width of the first bracket, as a share of all distances; a bracket
#: that misses the median is widened fourfold and the pass repeated
BRACKET_MARGIN = 0.03


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth policy.

    ``bandwidth`` is ``"median"`` (median heuristic over the full pooled
    data, resolved once per scan), ``"median-window"`` (recomputed per
    window), or a fixed positive float. The linear kernel ignores it.
    """

    family: str = "rbf"
    bandwidth: str | float = MEDIAN_GLOBAL

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {FAMILIES}")
        bw = self.bandwidth
        if isinstance(bw, str):
            if bw not in (MEDIAN_GLOBAL, MEDIAN_PER_WINDOW):
                raise ValueError(f"unknown bandwidth policy {bw!r}")
        else:
            if not (isinstance(bw, (int, float)) and np.isfinite(bw) and bw > 0):
                raise ValueError(f"fixed bandwidth must be a positive finite number, got {bw!r}")

    @property
    def needs_bandwidth(self) -> bool:
        return self.family == "rbf"

    @property
    def per_window_bandwidth(self) -> bool:
        return self.needs_bandwidth and self.bandwidth == MEDIAN_PER_WINDOW


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


def kernel_matrix(spec: KernelSpec, bandwidth: float | None, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel Gram matrix between row sets ``x`` (n, d) and ``y`` (m, d).

    Inputs are float64 arrays. The linear kernel deliberately avoids BLAS
    matmul so results are bit-identical regardless of thread count.
    """
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if spec.family == "linear":
        return np.einsum("id,jd->ij", x, y, optimize=False)
    if bandwidth is None or bandwidth <= 0:
        raise ValueError(f"rbf kernel needs a positive bandwidth, got {bandwidth!r}")
    from scipy.spatial.distance import cdist

    sq = cdist(x, y, "sqeuclidean")
    return np.exp(sq / (-2.0 * bandwidth * bandwidth))


def median_heuristic_bandwidth(samples: EmbeddingMatrix | np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct row pairs i < j.

    Deterministic: for an even number of pairs the lower of the two middle
    values is returned. The result is exact, bit for bit the value of
    ``np.partition(pdist(x), k)[k]``. Inputs with more than
    ``BLOCK_DISTANCES`` pairs are measured one row block at a time and keep
    only the distances near the median (see
    :func:`_blockwise_order_statistic`): 16000 rows keep about 8M of their
    128M distances, 61 MB where one ``pdist`` vector takes 1 GB. Raises
    :class:`DegenerateInputError` when fewer than two rows are given or the
    median pairwise distance is zero; callers should fall back to a fixed
    bandwidth in that case. Raises :class:`ValidationError` on non-finite
    values.
    """
    x = samples.as_float64() if isinstance(samples, EmbeddingMatrix) else np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise DegenerateInputError(f"median heuristic needs >= 2 rows, got {n}")
    if not np.isfinite(x).all():  # NaN distances would fall in no bracket
        raise ValidationError("median heuristic needs finite values")
    pairs = n * (n - 1) // 2
    k = (pairs - 1) // 2  # lower middle for even counts
    if pairs <= BLOCK_DISTANCES:
        from scipy.spatial.distance import pdist

        d = pdist(x, "euclidean")
        d.partition(k)  # in place: a copy would double the memory and page faults
        med = float(d[k])
    else:
        med = _blockwise_order_statistic(x, k)
    if med <= 0.0:
        raise DegenerateInputError("median pairwise distance is zero; supply a fixed bandwidth")
    return med


def _blockwise_order_statistic(x: np.ndarray, k: int) -> float:
    """The k-th smallest (0-based) pairwise distance of ``x``'s rows, exactly.

    A bracket [lo, hi] around rank k comes from the distances of a strided
    row sample, at the quantiles ``BRACKET_MARGIN`` either side of k's.
    One pass over row blocks (:func:`_count_and_keep`) counts the distances
    below ``lo`` and keeps those inside; the answer is the (k - below)-th
    kept value. A bracket that misses rank k tells on which side the answer
    lies; the next bracket starts just past it on that side and ends at a
    quantile four times further out, read from a strided sample of all the
    distances the pass saw, or runs to infinity. The sample only sets how
    many passes are made, never the value.
    """
    from scipy.spatial.distance import pdist

    n = x.shape[0]
    pairs = n * (n - 1) // 2
    share = k / (pairs - 1)
    stride = max(1, pairs // SEEN_DISTANCES)
    margin = BRACKET_MARGIN
    lo, hi = _quantile_bracket(pdist(x[:: -(-n // BRACKET_SAMPLE_ROWS)], "euclidean"), share, margin)
    while True:
        below, kept, seen = _count_and_keep(x, lo, hi, stride)
        if below <= k < below + kept.size:
            kept.partition(k - below)
            return float(kept[k - below])
        margin *= 4
        wide_lo, wide_hi = _quantile_bracket(seen, share, margin)
        if k < below:  # the answer is below lo
            lo, hi = (wide_lo if wide_lo < lo else -np.inf), np.nextafter(lo, -np.inf)
        else:  # the answer is above hi
            lo, hi = np.nextafter(hi, np.inf), (wide_hi if wide_hi > hi else np.inf)


def _count_and_keep(x: np.ndarray, lo: float, hi: float, stride: int):
    """One pass over the pairs i < j of ``x``'s rows, in row blocks shared by threads.

    The blocks run on one thread per usable CPU, since ``cdist`` and numpy's
    large element-wise ops release the GIL. Each holds at most
    ``BLOCK_DISTANCES // workers`` distances (unless one row has more), so
    the pass holds no more than ``BLOCK_DISTANCES`` at once on any machine.
    Returns the count of distances below ``lo``, the distances in [lo, hi],
    and every ``stride``-th distance of each block, merged in row order.
    """
    from concurrent.futures import ThreadPoolExecutor

    from scipy.spatial.distance import cdist

    n = x.shape[0]
    workers = _usable_cpus()
    spans = []
    a = 0
    while a < n - 1:
        # at most an eighth of the remaining rows, so that little of the
        # block is spent on the masked triangle
        b = min(n - 1, a + max(1, min(BLOCK_DISTANCES // workers // (n - a), (n - a) // 8)))
        spans.append((a, b))
        a = b

    def block(span):
        a, b = span
        d = cdist(x[a:b], x[a:], "euclidean")  # the same bits as pdist
        d[:, : b - a][np.tri(b - a, dtype=bool)] = np.nan  # pairs j <= i
        # the sample is a copy, so that d is freed
        return np.count_nonzero(d < lo), d[(d >= lo) & (d <= hi)], d.ravel()[::stride].copy()

    with ThreadPoolExecutor(workers) as pool:
        below, kept, seen = zip(*pool.map(block, spans))
    seen = np.concatenate(seen)
    return sum(below), np.concatenate(kept), seen[~np.isnan(seen)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _quantile_bracket(sample: np.ndarray, share: float, margin: float) -> tuple[float, float]:
    """Values of ``sample`` at quantiles ``share -/+ margin``, or -inf/inf past its ends.

    ``sample`` is partitioned in place; callers pass vectors they no longer need.
    """
    last = sample.size - 1
    r_lo = math.floor((share - margin) * last)
    r_hi = math.ceil((share + margin) * last)
    sample.partition([max(r_lo, 0), min(r_hi, last)])
    lo = float(sample[r_lo]) if r_lo >= 0 else -np.inf
    hi = float(sample[r_hi]) if r_hi <= last else np.inf
    return lo, hi


def resolve_bandwidth(spec: KernelSpec, pooled: np.ndarray) -> float | None:
    """Bandwidth to use for ``pooled`` rows under ``spec``'s policy.

    Returns None for kernels that take no bandwidth.
    """
    if not spec.needs_bandwidth:
        return None
    if isinstance(spec.bandwidth, (int, float)):
        return float(spec.bandwidth)
    return median_heuristic_bandwidth(pooled)
