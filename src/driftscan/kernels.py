"""Kernel functions and bandwidth selection.

The RBF kernel here is exp(-||x - y||^2 / (2 * bandwidth^2)), so the
bandwidth is a length scale, not a variance. The default bandwidth policy is
the median heuristic: the median of the pairwise Euclidean distances over the
pooled samples, computed once before a scan so that per-window statistics are
comparable. It is exact up to ``EXACT_PAIRS`` pairs without holding every
distance: beyond ``BLOCK_DISTANCES`` pairs the pairs are visited one row
block at a time, and only those inside a bracket around the median (about
``2 * BRACKET_MARGIN`` of them) are kept. Larger pools take the exact median
of a fixed sample of ``MEDIAN_SAMPLE_PAIRS`` pairs, which is as reproducible
and holds a few MB whatever the input.

The filter: the rows c, centred on a coordinate-wise median (so that a few far
rows move no other row) and scaled by a power of two to squared norms of at
most 1, go largest norm first. One float64 matrix product of
``[-2c_i, 1, |c_i|^2]`` with ``[c_j, |c_j|^2, 1]`` gives each pair i < j a
value v within ``B_i = C u max((2|c_i|)^2, 4 tiny)`` of ``pdist``'s squared
distance (``C = 4(d + 4) + 8``, ``u = 2**-53``). In units of
``u (|c_i| + |c_j|)^2``, in any summation order with or without FMA (Higham
2002, *Accuracy and Stability of Numerical Algorithms*, section 3.1), the
length-(d + 2) dot product errs by d + 2, the row norms by d, the centring by
2, and the in-order sum of squares and its square root by d + 4. ``tiny`` is
float64's smallest normal number, in the scaled rows and in the unscaled
ones, on whose subnormal grid ``pdist`` rounds. The rest of C covers the
rounding of a kept pair's bounds ``v -/+ B``: |v| is at most
``(|c_i| + |c_j|)^2 + B``, so each rounds by about one unit. A row block
takes its first (largest) bound for all its rows, and holds only rows whose
bound is at least half of it, so a far outlier widens only its own pairs'
bounds. BLAS decides only which pairs are measured exactly, never the value.

Distances are summed in numpy in ``cdist``'s order, to its bits
(:func:`_squared_distances`); only the one-``pdist`` median of small inputs
imports ``scipy.spatial``, which is slower to import than most scans run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embeddings import DegenerateInputError, EmbeddingMatrix, ValidationError

FAMILIES = ("rbf", "linear")

#: bandwidth policy names (a positive float is also accepted, as a fixed value)
MEDIAN_GLOBAL = "median"
MEDIAN_PER_WINDOW = "median-window"

#: numbers held at once: inputs with at most this many pairs take one
#: ``pdist`` for the median heuristic, larger ones go through row blocks
#: this big; half of it caps the blocks of a scan's windows (``resample``),
#: and it caps the distances of ``calibrate``'s trials in flight
BLOCK_DISTANCES = 1 << 21
#: the most distances a step of a sum holds
SEEN_DISTANCES = 1 << 18
#: row pairs whose distances set the first bracket and widen one that
#: misses: its quantiles err by about 0.004, against ``BRACKET_MARGIN``
SAMPLE_PAIRS = 1 << 14
#: half-width of the first bracket, as a share of all distances; a bracket
#: that misses the median is widened fourfold and the pass repeated
BRACKET_MARGIN = 0.03
#: the most pairs whose median is exact; larger pools take the lower median
#: of ``MEDIAN_SAMPLE_PAIRS`` sampled pairs, whose rank errs by about 0.001
EXACT_PAIRS = 1 << 24
MEDIAN_SAMPLE_PAIRS = 1 << 18
#: the most multiply-adds of one GEMM of the blockwise pass: OpenBLAS runs
#: up to 65536 * GEMM_MULTITHREAD_THRESHOLD (4) of them on the calling thread
ONE_THREAD_PRODUCT = 1 << 18


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
        elif isinstance(bw, bool) or not isinstance(bw, (int, float)):
            raise ValueError(f"fixed bandwidth must be a positive finite number, got {bw!r}")
        else:
            _rbf_divisor(bw)

    @property
    def needs_bandwidth(self) -> bool:
        return self.family == "rbf"

    @property
    def per_window_bandwidth(self) -> bool:
        return self.needs_bandwidth and self.bandwidth == MEDIAN_PER_WINDOW


def _rbf_divisor(bandwidth) -> np.ndarray:
    """The RBF kernel's divisor -2 * bandwidth**2 of a float or an array (None reads NaN).

    ValueError unless each bandwidth is positive and its divisor finite and nonzero: -inf from about
    9.5e153 would make every entry 1, and -0.0 below about 1e-162 would make a zero distance 0/0.
    """
    scale = np.asarray(bandwidth, dtype=np.float64)
    with np.errstate(over="ignore"):
        divisor = -2.0 * scale * scale
    if not ((scale > 0).all() and np.isfinite(divisor).all() and (divisor != 0.0).all()):
        raise ValueError(f"expected a positive finite bandwidth whose kernel divisor -2 * bandwidth**2 is finite "
                         f"and nonzero, got {bandwidth!r}")
    return divisor


def kernel_matrix(spec: KernelSpec, bandwidth, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel Gram matrices between row sets ``x`` (..., n, d) and ``y`` (..., m, d).

    Inputs are float64 arrays with the same leading axes, which stack Grams;
    ``bandwidth`` is a float or an array over those axes (shape (..., 1, 1)).
    Each entry has the bits of its own 2-D Gram. The linear kernel
    deliberately avoids BLAS matmul so results are bit-identical regardless
    of thread count.
    """
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    if spec.family == "linear":
        return np.einsum("...id,...jd->...ij", x, y, optimize=False)
    divisor = _rbf_divisor(bandwidth)
    sq = np.empty((*x.shape[:-1], y.shape[-2]))
    columns_first = (x.ndim - 1, *range(x.ndim - 1))
    xt, yt = x.transpose(columns_first)[..., None], np.ascontiguousarray(y.transpose(columns_first))[..., None, :]
    step = max(1, SEEN_DISTANCES // max(1, sq[..., 0, :].size))  # rows a step: one small temporary
    for r in range(0, x.shape[-2], step):  # x's columns down, y's across
        _squared_distances(zip(xt[..., r : r + step, :], yt), sq[..., r : r + step, :])
    with np.errstate(over="ignore"):  # a distance over a tiny divisor is -inf, whose exp 0 is the kernel's value
        np.divide(sq, divisor, out=sq)  # in place: the same bits as a new array
    return np.exp(sq, out=sq)


def median_heuristic_bandwidth(samples: EmbeddingMatrix | np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct row pairs i < j.

    Deterministic: for an even number of pairs the lower of the two middle
    values is returned, bit for bit ``np.partition(pdist(x), k)[k]`` up to
    ``EXACT_PAIRS`` pairs. Inputs with more than ``BLOCK_DISTANCES`` pairs
    keep only the pairs near the median (:func:`_blockwise_order_statistic`),
    whose float64 BLAS approximations, within a bound that holds in any
    summation order, decide only which pairs are measured. Inputs with more
    than ``EXACT_PAIRS`` pairs take the lower median of a fixed sample of
    ``MEDIAN_SAMPLE_PAIRS`` pairs, to ``pdist``'s bits for those pairs, with
    no BLAS: 2 MB of distances for any input.
    Raises :class:`DegenerateInputError` when fewer than two rows are given
    or the median is zero; callers should fall back to a fixed bandwidth.
    Raises :class:`ValidationError` on non-finite values, and on blockwise
    inputs whose squared norms about that median overflow.
    """
    x = samples.as_float64() if isinstance(samples, EmbeddingMatrix) else np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise DegenerateInputError(f"median heuristic needs >= 2 rows, got {n}")
    if not np.isfinite(x).all():  # NaN distances would fall in no bracket
        raise ValidationError("median heuristic needs finite values")
    pairs = n * (n - 1) // 2
    if BLOCK_DISTANCES < pairs <= EXACT_PAIRS:
        med = _blockwise_order_statistic(x, (pairs - 1) // 2)
    else:
        if pairs > EXACT_PAIRS:
            d = np.empty(MEDIAN_SAMPLE_PAIRS)
            np.sqrt(_pair_distances(np.ascontiguousarray(x.T), *_sample_pairs(n, d.size), d), out=d)
        else:
            from scipy.spatial.distance import pdist

            d = pdist(x, "euclidean")
        k = (d.size - 1) // 2  # lower middle for even counts
        d.partition(k)  # in place: a copy would double the memory and page faults
        med = float(d[k])
    if med <= 0.0:
        raise DegenerateInputError("median pairwise distance is zero; supply a fixed bandwidth")
    return med


def _blockwise_order_statistic(x: np.ndarray, k: int) -> float:
    """The k-th smallest (0-based) pairwise distance of ``x``'s rows, exactly.

    A pass (:func:`_count_and_keep`) over a bracket [lo, hi] of squared
    distances, first read from a fixed sample of ``SAMPLE_PAIRS`` row pairs at
    the quantiles ``BRACKET_MARGIN`` either side of k's, counts the pairs
    surely below lo and keeps those that may lie inside. The kept lower and
    upper bounds of rank k - below hold the answer: if they lie in the
    bracket, the pairs that may reach them are measured; if not, the pass
    repeats on a bracket around them. A bracket that misses rank k is
    followed by one just past it, out to a quantile four times further in
    that sample, or to infinity.
    """
    n, d = x.shape
    pairs = n * (n - 1) // 2
    share = k / (pairs - 1)
    margin = BRACKET_MARGIN
    xt = np.ascontiguousarray(x.T)
    c = x - np.partition(xt, n // 2, axis=1)[:, n // 2]  # a far row moves no other row
    if not math.isfinite(np.einsum("ij,ij->i", c, c).max()):
        raise ValidationError("median heuristic needs rows whose squared norms are finite")
    # the pass's unit is a squared distance times 4**e: a power of two, so
    # exact, that brings each |c_i|^2 to at most 1 (each entry below 2**-m,
    # with 4**m >= d), clamped so that 4**e stays finite
    e = min(511, -math.frexp(np.abs(c).max())[1] - ((d - 1).bit_length() + 1) // 2)
    c *= 2.0**e
    norms = np.einsum("ij,ij->i", c, c)
    order = np.argsort(norms, kind="stable")[::-1]
    rows = np.column_stack([c[order], norms[order], np.ones(n)])  # [c, |c|^2, 1]
    del c
    # C u (2|c_i|)^2, floored for the product's underflow and for pdist's on
    # the unscaled rows
    bound = (4 * (d + 4) + 8) * 2.0**-53 * 4.0 * np.maximum(rows[:, d], max(2.0**-1022, 4.0**e * 2.0**-1022))
    # the bracket is only a guess
    sample = _pair_distances(xt, *_sample_pairs(n, SAMPLE_PAIRS), np.empty(SAMPLE_PAIRS)) * 4.0**e
    lo, hi = _quantile_bracket(sample, share, margin)
    while True:
        below, blocks = _count_and_keep(rows, lo, hi, bound)
        if below <= k < below + sum(v.size for _, _, v in blocks):
            lower, upper = _near_window(blocks, k - below, bound)
            if lo <= lower and upper <= hi:
                return _near_order_statistic(xt, order, blocks, k - below, lower, upper, bound)
            lo, hi = min(lo, 2 * lower - upper), max(hi, 2 * upper - lower)
            continue
        margin *= 4
        wide_lo, wide_hi = _quantile_bracket(sample, share, margin)
        if k < below:  # the answer is below lo
            lo, hi = (wide_lo if wide_lo < lo else -np.inf), np.nextafter(lo, -np.inf)
        else:  # the answer is above hi
            lo, hi = np.nextafter(hi, np.inf), (wide_hi if wide_hi > hi else np.inf)


def _count_and_keep(rows: np.ndarray, lo: float, hi: float, bound: np.ndarray):
    """One pass over the pairs i < j, one row block at a time.

    Each block holds at most ``BLOCK_DISTANCES`` approximations p (unless one
    row has more), filled in tiles of at most ``ONE_THREAD_PRODUCT``
    multiply-adds, which BLAS runs on the calling thread: 4000 x 8 rows took
    0.075 s at CPU equal to wall on a 2-core Xeon, where one threaded product
    a block took 0.063 s at twice the CPU and left BLAS's worker spinning.
    Tiles cost wide rows: 2100 x 300 took 0.10 s, 0.075 s untiled on one thread.
    Returns the count of p + bound below ``lo`` and, per block, its first
    row, the int32 offsets of the pairs whose p -/+ bound meets [lo, hi]
    and their p.
    """
    n, width = rows.shape
    # tiles of h rows by w columns, one GEMM a slice of a stacked product
    h = max(1, math.isqrt(ONE_THREAD_PRODUCT // width))
    w = max(1, ONE_THREAD_PRODUCT // (width * h))
    below, blocks, a = 0, [], 0
    while a < n - 1:
        # at most an eighth of the remaining rows, so that little of the
        # block is spent on the masked triangle, and only rows whose bound
        # is at least half the first's, so that an outlier widens no other
        b = min(n - 1, a + max(1, min(BLOCK_DISTANCES // (n - a), (n - a) // 8)))
        b = a + max(1, np.count_nonzero(bound[a:b] >= bound[a] / 2))
        # [-2c_i, 1, |c_i|^2] . [c_j, |c_j|^2, 1] = |c_i|^2 + |c_j|^2 - 2 c_i.c_j
        lhs = np.column_stack([-2 * rows[a:b, :-2], rows[a:b, :-3:-1]])
        full = (b - a) // h * h
        p = np.empty((b - a, n - a))
        for j in range(0, n - a, w):
            rhs = rows[a + j : a + j + w].T
            np.matmul(lhs[:full].reshape(-1, h, width), rhs, out=p[:full, j : j + w].reshape(-1, h, rhs.shape[1]))
            np.matmul(lhs[full:], rhs, out=p[full:, j : j + w])  # the last (b - a) % h rows
        p[:, : b - a][np.tri(b - a, dtype=bool)] = np.nan  # pairs j <= i
        # the block's largest bound, rounded outwards
        floor, ceil = np.nextafter([lo - bound[a], hi + bound[a]], [-np.inf, np.inf])
        kept = np.flatnonzero((p >= floor) & (p <= ceil))
        below += np.count_nonzero(p < floor)
        blocks.append((a, kept.astype(np.int32), p.ravel()[kept]))
        del p, kept  # before the next block's product
        a = b
    return below, blocks


def _near_window(blocks, rank: int, bound: np.ndarray) -> list:
    """The rank-th smallest v - width of the kept values v, and their rank-th smallest v + width, scaled."""
    bounds = np.empty(sum(v.size for _, _, v in blocks))
    window = []
    for sign in (-1, 1):
        at = 0
        for a, _, v in blocks:
            np.add(v, sign * bound[a], out=bounds[at : at + v.size])
            at += v.size
        bounds.partition(rank)
        window.append(float(bounds[rank]))
    return window


def _near_order_statistic(xt: np.ndarray, order: np.ndarray, blocks, rank: int, lower, upper, bound) -> float:
    """The rank-th smallest exact distance of ``blocks``' kept pairs, measuring those whose bounds meet [lower, upper].

    ``xt`` is the rows' transpose; the measured pairs fill one vector.
    """
    n = xt.shape[1]
    near = []
    for a, kept, v in blocks:
        rank -= np.count_nonzero(v + bound[a] < lower)
        near.append((a, kept[(v - bound[a] <= upper) & (v + bound[a] >= lower)]))
    exact = np.empty(sum(offsets.size for _, offsets in near))  # squared
    at = 0
    for a, offsets in near:
        i, j = np.divmod(offsets, n - a)
        _pair_distances(xt, order[a + i], order[a + j], exact[at : at + offsets.size])
        at += offsets.size
    exact.partition(rank)
    return float(np.sqrt(exact[rank]))


def _squared_distances(columns, out: np.ndarray) -> np.ndarray:
    """Fills ``out`` with the sum of (a - b)**2 over the column pairs (a, b), added one pair after another.

    For the columns c = 0, 1, ... of two row sets that is the order of
    ``cdist``'s and ``pdist``'s loops: ``out`` holds their "sqeuclidean" bits,
    its square root their "euclidean" ones. ``np.sum`` and einsum add in
    other orders, which differ in the last bits.
    """
    out.fill(0.0)
    t = np.empty_like(out)
    for a, b in columns:
        np.subtract(a, b, out=t)
        np.multiply(t, t, out=t)
        out += t
    return out


def _sample_pairs(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices i, j of ``size`` pairs of distinct rows of n, a fixed draw from ``default_rng(0)``."""
    i, j = np.random.default_rng(0).integers(0, [[n], [n - 1]], size=(2, size))
    j += j >= i
    return i, j


def _pair_distances(xt: np.ndarray, i: np.ndarray, j: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fills ``out`` with the squared distances of rows ``i`` and ``j`` of ``xt.T``, ``SEEN_DISTANCES`` pairs a step."""
    for s in range(0, i.size, SEEN_DISTANCES):
        at = slice(s, s + SEEN_DISTANCES)
        _squared_distances(((c.take(i[at]), c.take(j[at])) for c in xt), out[at])
    return out


def _quantile_bracket(sample: np.ndarray, share: float, margin: float) -> tuple[float, float]:
    """Values of ``sample`` at quantiles ``share -/+ margin``, or -inf/inf past its ends.

    ``sample`` is partitioned in place, which keeps its values but not their order.
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
