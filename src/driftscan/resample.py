"""The window test: MMD^2 between two windows and its sign-flip null.

Under the no-drift hypothesis each row pair (x_i, y_i) is exchangeable, so
swapping the pairs where a flip vector s has s_i = -1 draws from the null
distribution of MMD^2, exact under pairwise exchangeability (the Rademacher
multipliers of Chwialkowski, Sejdinovic and Gretton 2014, *A Wild Bootstrap
for Degenerate Kernel Tests*; compare Gretton et al. 2012, §6). The p-value
is the observed statistic's add-one-smoothed rank within that null.

With H = Kxx + Kyy - Kxy - Kxy' over a window's w rows, a flip moves the
statistic by c (s'Hs - 1'H1): c = 1/w^2 for the biased estimator and
(a + b)/2 for the unbiased one, a = 1/(w(w-1)) and b = 1/w^2. Written as
that offset, the null sums no flip-invariant constant: identical windows
give H = 0 exactly, every flip the observed value and p = 1. All k
quadratic forms come from one product of the (k, w) signs with H, through
a BLAS GEMM (``np.matmul``) at shapes where a probe finds einsum's bits and
through einsum elsewhere, so the bits are einsum's on any machine and for
any thread count.

A scan draws one (k, rows) sign matrix S, in column blocks from the streams
(seed, "scan-flip", block), and the window ending at row t reads columns
[t - w, t); :func:`window_test` is the one-window case, columns [0, w).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import kernels
from .embeddings import ValidationError
from .kernels import KernelSpec, kernel_matrix, resolve_bandwidth
from .mmd import ESTIMATORS, WINDOW_NUMBERS, mmd_sq_from_gram
from .rng import derive_rng

#: purpose tag of the sign matrix's streams: column block c is drawn from (base_seed, FLIP_TAG, c)
FLIP_TAG = "scan-flip"
#: columns of the sign matrix per stream, drawn as one (FLIP_COLUMNS, k) int8 array
FLIP_COLUMNS = 4096

#: names that draw scheme in the report's config echo. Earlier reports read
#: "window-permutation" (window t permuted its pooled rows, from the stream
#: (base_seed, "bootstrap", t)), "window-stream" (a bootstrap) or nothing.
RNG_SCHEME = "lockstep-flip"

#: a window test's peak over its pool Gram, measured (VmHWM) at w = 1024:
#: the Gram plus one w x w block, the observed statistic's copy and then H
GRAM_PEAK_RATIO = 1.25


def check_window_settings(rows: int, bootstraps: int, estimator: str) -> None:
    """Check the settings of window tests on windows of ``rows`` rows.

    ValueError for settings that cannot run, among them windows whose one
    test would peak above ``WINDOW_NUMBERS``: its Gram and one block, then
    the float64 signs and their product with H, beside one int8 block of S.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if bootstraps < 1:
        raise ValueError(f"bootstraps must be >= 1, got {bootstraps}")
    if rows < 1:
        raise ValueError(f"windows of {rows} rows leave empty blocks")
    if estimator == "unbiased" and rows < 2:
        raise ValueError("unbiased estimator needs blocks of >= 2 rows")
    peak = GRAM_PEAK_RATIO * 4 * rows * rows + 2 * bootstraps * rows + bootstraps * FLIP_COLUMNS // 8
    if peak > WINDOW_NUMBERS:
        raise ValueError(
            f"windows of {rows} rows with {bootstraps} bootstraps need about {peak * 8 / 2**30:.1f} GB, "
            f"over the {WINDOW_NUMBERS * 8 / 2**30:.0f} GB one window test may hold (resample.WINDOW_NUMBERS)")


def flip_signs(seed: int, k: int, rows: int):
    """Columns [start, stop) of a scan's k x ``rows`` sign matrix S, as ``signs(start, stop)``, float64 +-1.

    Column block c of S is a (FLIP_COLUMNS, k) int8 draw from the stream
    (seed, FLIP_TAG, c), transposed and cut at ``rows``; any prefix of a
    block has the same bits, so S's columns do not depend on ``rows``. One
    block is held at a time, so ascending calls draw each block about once.
    """
    held = {}

    def signs(start: int, stop: int) -> np.ndarray:
        parts = []
        for c in range(start // FLIP_COLUMNS, -(-stop // FLIP_COLUMNS)):
            first = c * FLIP_COLUMNS
            if c not in held:
                held.clear()
                held[c] = derive_rng(seed, FLIP_TAG, c).integers(
                    0, 2, (min(FLIP_COLUMNS, rows - first), k), dtype=np.int8).T
            parts.append(held[c][:, max(start - first, 0):stop - first])
        out = np.concatenate(parts, axis=1, dtype=np.float64)
        out *= -2.0  # a 1 bit swaps the pair
        out += 1.0
        return out

    return signs


#: the null's product of the signs and H by einsum, which adds each sum in order
_einsum_product = functools.partial(np.einsum, "...in,...nm->...im", optimize=False)


@functools.cache
def _matmul_keeps_bits(k: int, width: int) -> bool:
    """Whether ``np.matmul`` gives einsum's bits for k signs by a ``width`` x ``width`` H.

    +-1 signs make every product exact, so only the order of the sum over
    ``width`` terms sets the bits, and the BLAS kernel picks that order by
    shape and thread count, not by data. A seeded pair of sign matrices on
    an H with exponents from 2^-40 to 2^40 shows any change of it. The
    answer holds for the process, whose BLAS keeps one thread count.
    """
    rng = np.random.default_rng(0)
    h = rng.standard_normal((width, width))
    np.ldexp(h, rng.integers(-40, 41, h.shape, dtype=np.int8), out=h)
    signs = rng.choice([-1.0, 1.0], (2, k, width))
    return np.array_equal(np.matmul(signs, h), _einsum_product(signs, h))


def _quadratic_forms(signs: np.ndarray, h: np.ndarray, product) -> np.ndarray:
    """s'Hs for each row s of ``signs``; leading axes stack windows."""
    return np.einsum("...im,...im->...i", product(signs, h), signs)


def _span_tests(spec, x, y, width, stride, count, signs, estimator, bandwidth):
    """Window tests of x[j * stride:][:width] against y[j * stride:][:width] for each j < ``count``.

    The windows take their Gram blocks from one pool Gram over all rows of
    ``x`` and ``y``, with the bits of their own, and window j its flips from
    columns [j * stride, j * stride + width) of ``signs``, a (k, rows) array.
    ``bandwidth`` None resolves it over the pool, which is then one window.
    Returns, per window, the k null statistics, the observed MMD^2, their
    median and p-value.
    """
    span, k = x.shape[0], signs.shape[0]
    product = np.matmul if _matmul_keeps_bits(k, width) else _einsum_product  # probed before the Gram is held
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, x, y)
    pool = np.concatenate([x, y], dtype=np.float64)
    gram = kernel_matrix(spec, bandwidth, pool, pool)

    # every window's Gram in one strided view of the span's, as (window, side, row, side, column)
    r, c = gram.strides
    grams = as_strided(gram, (count, 2, width, 2, width), (stride * (r + c), span * r, r, span * c, c),
                       writeable=False)
    observed = mmd_sq_from_gram(grams[:, 0, :, 0], grams[:, 1, :, 1], grams[:, 0, :, 1], estimator)
    gram[:span, span:] += gram[span:, :span]  # Kxy + Kxy' in place, so H is one new array and swap-symmetric
    h = gram[:span, :span] + gram[span:, span:]
    h -= gram[:span, span:]
    del grams, gram, pool
    # each window's block of H and columns of the signs, copied once for a run of windows
    r, c = h.strides
    h = np.ascontiguousarray(as_strided(h, (count, width, width), (stride * (r + c), r, c), writeable=False))
    r, c = signs.strides
    signs = np.ascontiguousarray(as_strided(signs, (count, k, width), (stride * c, r, c), writeable=False))
    ones = np.ones((1, width))
    offset = _quadratic_forms(signs, h, product) - _quadratic_forms(ones, h, _einsum_product)
    b = 1.0 / (width * width)
    stats = observed[:, None] + (b if estimator == "biased" else (1.0 / (width * (width - 1)) + b) / 2) * offset
    if estimator == "biased":
        np.maximum(stats, 0.0, out=stats)
    p_value = (1.0 + np.count_nonzero(stats >= observed[:, None], axis=-1)) / (k + 1.0)
    return stats, observed, np.median(stats, axis=-1), p_value


def window_test(spec: KernelSpec, x: np.ndarray, y: np.ndarray, k: int, seed: int, estimator: str,
                bandwidth: float | None = None) -> tuple[float, np.ndarray, float, float]:
    """MMD^2 between windows ``x`` and ``y`` and its sign-flip null.

    Returns (observed_sq, stats, median, p_value): the observed MMD^2, the
    MMD^2 of k flips of the row pairs, their median (the mean of the two
    middles for even k), and the add-one-smoothed tail probability
    (1 + #{stats >= observed_sq}) / (k + 1), never zero.

    ``x`` and ``y`` are (rows, dims) arrays, pooled and computed in float64.
    The pool's Gram matrix is built once: the observed statistic comes from
    its contiguous blocks (bit-identical to :func:`~driftscan.mmd.mmd`), the
    flips from columns [0, rows) of the sign matrix S of :func:`flip_signs`
    for ``seed``, as for a scan's first window. ``bandwidth`` is resolved
    over the pool when None (per window); :func:`check_window_settings`
    checks the settings. It is the one-window case of
    :func:`scan_window_tests`.
    """
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(f"windows must have the same rows and dims, got {x.shape} and {y.shape}")
    rows = x.shape[0]
    check_window_settings(rows, k, estimator)
    stats, observed, median, p_value = _span_tests(
        spec, x, y, rows, 1, 1, flip_signs(seed, k, rows)(0, rows), estimator, bandwidth)
    return float(observed[0]), stats[0], float(median[0]), float(p_value[0])


def scan_window_tests(spec: KernelSpec, x: np.ndarray, y: np.ndarray, width: int, stride: int, k: int, seed: int,
                      estimator: str, bandwidth: float | None) -> tuple[list[float], ...]:
    """Window tests of x[t - width:t] against y[t - width:t] for t = width, width + stride, ... <= rows.

    Returns the observed MMD^2, null medians and p-values as float lists.
    Window t takes its flips from columns [t - width, t) of one sign matrix
    S for ``seed`` (:func:`flip_signs`). Runs of up to ``width // stride``
    overlapping windows share one pool Gram (under ``median-window`` a run
    is one window) and are reduced along a leading window axis, with the
    bits of one window at a time; a run holds about ``BLOCK_DISTANCES``
    numbers, or one window. ``bandwidth`` None under the global median is a
    ValueError: each run would take its own.
    """
    if bandwidth is None and spec.needs_bandwidth and spec.bandwidth == kernels.MEDIAN_GLOBAL:
        raise ValueError("the global median bandwidth must be resolved over the whole scan and passed in")
    check_window_settings(width, k, estimator)
    ends = range(width, x.shape[0] + 1, stride)
    # per window its Gram blocks, flips and their product with H; a run spans
    # under 2 * width rows, so its pool Gram, H and signs hold under 5 windows' numbers
    window = 4 * width * width + 2 * k * width
    size = 1 if spec.per_window_bandwidth else max(1, min(width // stride, kernels.BLOCK_DISTANCES // window - 5))
    signs = flip_signs(seed, k, x.shape[0])
    parts = [_span_tests(spec, x[t[0] - width:t[-1]], y[t[0] - width:t[-1]], width, stride, len(t),
                         signs(t[0] - width, t[-1]), estimator, bandwidth)[1:]
             for t in (ends[i:i + size] for i in range(0, len(ends), size))]
    return tuple(np.concatenate(column).tolist() for column in zip(*parts))
