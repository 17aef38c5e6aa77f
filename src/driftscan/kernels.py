"""Kernel functions and bandwidth selection.

The RBF kernel here is exp(-||x - y||^2 / (2 * bandwidth^2)), so the
bandwidth is a length scale, not a variance. The default bandwidth policy is
the median heuristic: the median of all pairwise Euclidean distances over the
pooled samples, computed once before a scan so that per-window statistics are
comparable. It is exact for any number of rows without holding every
distance: beyond ``BLOCK_DISTANCES`` pairs the pairs are visited one row
block at a time, on every CPU the process may use, and only those inside a
bracket around the median (about ``2 * BRACKET_MARGIN`` of them) are kept.

The filter: for the centred rows c, largest norm first, one matrix product
of ``[-2c_i, 1, |c_i|^2]`` with ``[c_j, |c_j|^2, 1]`` approximates the squared
distance of each pair i < j to within ``C u (2|c_i|)^2`` of the square of
``cdist``'s (``u = 2**-53``, ``C = 4(d + 4) + 8``). In units of
``u (|c_i| + |c_j|)^2``, in any summation order with or without FMA (Higham
2002, *Accuracy and Stability of Numerical Algorithms*, section 3.1), the
length-(d + 2) dot product errs by d + 2, the row norms by d, the centring
by 2, and scipy's sum of squares and its square root by d + 4; the rest of C
covers the rounding of thresholds. So a far outlier widens only its own
pairs' bounds. BLAS decides only which pairs ``cdist`` measures, never the
value.

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
    np.divide(sq, -2.0 * bandwidth * bandwidth, out=sq)  # in place: the same bits as a new array
    return np.exp(sq, out=sq)


def median_heuristic_bandwidth(samples: EmbeddingMatrix | np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct row pairs i < j.

    Deterministic: for an even number of pairs the lower of the two middle
    values is returned, bit for bit ``np.partition(pdist(x), k)[k]``. Inputs
    with more than ``BLOCK_DISTANCES`` pairs keep only the pairs near the
    median (:func:`_blockwise_order_statistic`): 16000 rows keep about 8M of
    their 128M pairs at 8 bytes each, 61 MB where ``pdist`` takes 1 GB.
    Raises :class:`DegenerateInputError` when fewer than two rows are given
    or the median is zero; callers should fall back to a fixed bandwidth.
    Raises :class:`ValidationError` on non-finite values, and on blockwise
    inputs whose squared row norms overflow.
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

    A pass (:func:`_count_and_keep`) over a bracket [lo, hi] of squared
    distances, first read from a strided row sample at the quantiles
    ``BRACKET_MARGIN`` either side of k's, counts the pairs surely below lo
    and keeps those that may lie inside. The kept lower and upper bounds of
    rank k - below hold the answer: if they lie in the bracket, the pairs
    that may reach them are measured; if not, the pass repeats on a bracket
    around them. A bracket that misses rank k is followed by one just past
    it, out to a quantile four times further in the pass's sample of
    approximations, or to infinity.
    """
    from scipy.spatial.distance import pdist

    n, d = x.shape
    pairs = n * (n - 1) // 2
    share = k / (pairs - 1)
    stride = max(1, pairs // SEEN_DISTANCES)
    margin = BRACKET_MARGIN
    c = x - x.mean(axis=0)
    order = np.argsort(np.einsum("ij,ij->i", c, c), kind="stable")[::-1]
    rows = np.column_stack([c[order], np.einsum("ij,ij->i", c, c)[order], np.ones(n)])  # [c, |c|^2, 1]
    del c
    tiny = np.finfo(np.float64).tiny  # covers underflow
    bound = (4 * (d + 4) + 8) * 2.0**-53 * 4.0 * np.maximum(rows[:, d], tiny)  # C u (2|c_i|)^2
    if not math.isfinite(bound[0]):
        raise ValidationError("median heuristic needs rows whose squared norms are finite")
    scale = 2.0 ** -math.frexp(4.0 * max(rows[0, d], tiny))[1]  # kept values fit in float32's range
    # a kept value's bounds in a block, scaled: the block's first bound, doubled
    # so that float32's rounding of it and of the sums is covered too
    widths = (2 * scale * bound).astype(np.float32) + np.float32(2**-140)
    lo, hi = _quantile_bracket(pdist(x[:: -(-n // BRACKET_SAMPLE_ROWS)], "sqeuclidean"), share, margin)
    while True:
        below, blocks, seen = _count_and_keep(rows, lo, hi, stride, scale, bound)
        if below <= k < below + sum(v.size for _, _, v in blocks):
            lower, upper = (float(w) / scale for w in _near_window(blocks, k - below, widths))
            if lo <= lower and upper <= hi:
                return _near_order_statistic(x, order, blocks, k - below, lower * scale, upper * scale, widths)
            lo, hi = min(lo, 2 * lower - upper), max(hi, 2 * upper - lower)
            continue
        margin *= 4
        wide_lo, wide_hi = _quantile_bracket(seen, share, margin)
        if k < below:  # the answer is below lo
            lo, hi = (wide_lo if wide_lo < lo else -np.inf), np.nextafter(lo, -np.inf)
        else:  # the answer is above hi
            lo, hi = np.nextafter(hi, np.inf), (wide_hi if wide_hi > hi else np.inf)


def _count_and_keep(rows: np.ndarray, lo: float, hi: float, stride: int, scale: float, bound: np.ndarray):
    """One pass over the pairs i < j, in row blocks shared by threads.

    The blocks run on one thread per usable CPU, since BLAS and numpy's large
    element-wise ops release the GIL. Each holds at most ``BLOCK_DISTANCES //
    workers`` approximations p (unless one row has more), so the pass holds
    no more than ``BLOCK_DISTANCES`` at once on any machine. Returns the count
    of p + bound below ``lo``; per block, its first row, the int32 offsets of
    the pairs whose p -/+ bound meets [lo, hi] and their p times ``scale`` in
    float32; and every ``stride``-th p, merged in row order.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = rows.shape[0]
    workers = _usable_cpus()
    spans = []
    a = 0
    while a < n - 1:
        # at most an eighth of the remaining rows, so that little of the
        # block is spent on the masked triangle, and only rows whose bound
        # is at least half the first's, so that an outlier widens no other
        b = min(n - 1, a + max(1, min(BLOCK_DISTANCES // workers // (n - a), (n - a) // 8)))
        b = a + max(1, np.count_nonzero(bound[a:b] >= bound[a] / 2))
        spans.append((a, b))
        a = b

    def block(span):
        a, b = span
        # [-2c_i, 1, |c_i|^2] . [c_j, |c_j|^2, 1] = |c_i|^2 + |c_j|^2 - 2 c_i.c_j
        p = np.matmul(np.column_stack([-2.0 * rows[a:b, :-2], rows[a:b, :-3:-1]]), rows[a:].T)
        p[:, : b - a][np.tri(b - a, dtype=bool)] = np.nan  # pairs j <= i
        floor, ceil = lo - bound[a], hi + bound[a]  # the block's largest bound
        kept = np.flatnonzero((p >= floor) & (p <= ceil))
        below = np.count_nonzero(p < floor)
        p = p.ravel()
        values = (p[kept] * scale).astype(np.float32)
        # the sample is a copy, so that p is freed
        return below, (a, kept.astype(np.int32), values), p[::stride].copy()

    with ThreadPoolExecutor(workers) as pool:
        below, blocks, seen = zip(*pool.map(block, spans))
    seen = np.concatenate(seen)
    return sum(below), blocks, seen[~np.isnan(seen)]


def _slack(values: np.ndarray, width: np.float32) -> np.ndarray:
    """How far the scaled squared distances of kept pairs may lie from their float32 values."""
    return np.abs(values) * np.float32(2**-20) + width


def _near_window(blocks, rank: int, widths: np.ndarray) -> list:
    """The rank-th smallest lower bound of the kept pairs, and their rank-th smallest upper bound, scaled."""
    bounds = np.empty(sum(v.size for _, _, v in blocks), np.float32)
    window = []
    for sign in (-1, 1):
        at = 0
        for a, _, v in blocks:
            bounds[at : at + v.size] = v + sign * _slack(v, widths[a])
            at += v.size
        bounds.partition(rank)
        window.append(bounds[rank])
    return window


def _near_order_statistic(x: np.ndarray, order: np.ndarray, blocks, rank: int, lower, upper, widths) -> float:
    """The rank-th smallest exact distance of ``blocks``' kept pairs, measuring those whose bounds meet [lower, upper]."""
    from scipy.spatial.distance import cdist

    n, d = x.shape
    chunk = max(1, BLOCK_DISTANCES // d)
    exact = []
    for a, kept, v in blocks:
        slack = _slack(v, widths[a])
        rank -= np.count_nonzero(v + slack < lower)
        i, j = np.divmod(kept[(v - slack <= upper) & (v + slack >= lower)], n - a)
        i, j = order[a + i], order[a + j]
        runs = np.flatnonzero(np.diff(i, prepend=-1))  # where each row's pairs start
        for start, stop in zip(runs, [*runs[1:], i.size]):
            for c in range(start, stop, chunk):
                exact.append(cdist(x[i[c] : i[c] + 1], x[j[c : min(c + chunk, stop)]], "euclidean")[0])
    exact = np.concatenate(exact)
    exact.partition(rank)
    return float(exact[rank])


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


def resolve_bandwidth(spec: KernelSpec, *sides: np.ndarray) -> float | None:
    """Bandwidth for the pooled rows of ``sides`` under ``spec``'s policy; None if the kernel takes none.

    Only the median heuristic reads the rows, so only it pools them (in float64).
    """
    if not spec.needs_bandwidth:
        return None
    if isinstance(spec.bandwidth, (int, float)):
        return float(spec.bandwidth)
    return median_heuristic_bandwidth(np.concatenate(sides, dtype=np.float64))
