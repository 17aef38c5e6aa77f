"""The window test: MMD^2 between two windows and its permutation null.

Under the no-drift hypothesis the two windows' rows are exchangeable, so
they are pooled, and each permutation of the pool splits it into two blocks
of a window's rows whose MMD^2 is one draw of the null distribution, exact
under exchangeability (Gretton et al. 2012, *A Kernel Two-Sample Test*,
JMLR). The observed statistic's p-value is its add-one-smoothed rank within
that distribution. :func:`window_test` builds the pool's Gram matrix once
and takes both the observed statistic and the null from it.

All k permutations of a window come from one stream, as one (k, 2 * rows)
matrix of signs: +1 puts a pooled row in the first block, -1 in the second.
Each statistic is a quadratic form s'Gs in the pool's Gram matrix G, and all
k come from one product of the sign matrix with G. It runs through a BLAS
GEMM (``np.matmul``) at shapes where a probe finds einsum's bits, and through
einsum at shapes whose GEMM reorders the sum, so the bits are einsum's on any
machine and for any thread count.

A scan's windows go through :func:`scan_window_tests`: each run of
overlapping windows shares one pool Gram over its rows, is reduced along a
leading window axis, and such runs use every usable CPU, with the bits of
one :func:`window_test` per window for any number of CPUs.
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

#: purpose tag for the null's streams; window w draws its whole (k, 2 * rows)
#: sign matrix from the one stream (base_seed, BOOTSTRAP_TAG, w)
BOOTSTRAP_TAG = "bootstrap"

#: names that draw scheme in the report's config echo. Reports with
#: "window-stream" drew window w's bootstrap (rows with replacement) from
#: that stream; reports without the entry drew iteration i of window w from
#: (base_seed, BOOTSTRAP_TAG, w, i).
RNG_SCHEME = "window-permutation"

#: a window test's peak over its pool Gram, measured (VmHWM) at w = 1024:
#: the Gram plus the observed statistic's one contiguous copied block
GRAM_PEAK_RATIO = 1.25


def check_window_settings(rows: int, bootstraps: int, estimator: str) -> None:
    """Check the settings of window tests on windows of ``rows`` rows, whose null blocks have as many.

    ValueError for settings that cannot run, among them windows whose one
    test would peak above ``WINDOW_NUMBERS``.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if bootstraps < 1:
        raise ValueError(f"bootstraps must be >= 1, got {bootstraps}")
    if rows < 1:
        raise ValueError(f"windows of {rows} rows leave empty blocks")
    if estimator == "unbiased" and rows < 2:
        raise ValueError("unbiased estimator needs blocks of >= 2 rows")
    peak = GRAM_PEAK_RATIO * 4 * rows * rows + _null_numbers(rows, bootstraps)
    if peak > WINDOW_NUMBERS:
        raise ValueError(
            f"windows of {rows} rows with {bootstraps} bootstraps need about {peak * 8 / 2**30:.1f} GB, "
            f"over the {WINDOW_NUMBERS * 8 / 2**30:.0f} GB one window test may hold (resample.WINDOW_NUMBERS)")


def _null_numbers(width: int, k: int) -> int:
    # a window's null: the tiled signs, their permuted copy and its product with the Gram, each (k, 2 * width)
    return 3 * k * 2 * width


#: the null's product of the signs and the Gram by einsum, which adds each sum in order
_einsum_product = functools.partial(np.einsum, "...in,...nm->...im", optimize=False)


@functools.cache
def _matmul_keeps_bits(k: int, width: int) -> bool:
    """Whether ``np.matmul`` gives einsum's bits for k signs by a pool Gram of 2 * width rows.

    +-1 signs make every product exact, so only the order of the sum over
    2 * width terms sets the bits, and the BLAS kernel picks that order by
    shape and thread count, not by data. A seeded pair of sign matrices on a
    Gram with exponents from 2^-40 to 2^40 shows any change of it. The
    answer holds for the process, whose BLAS keeps one thread count.
    """
    rng = np.random.default_rng(0)
    gram = rng.standard_normal((2 * width, 2 * width))
    np.ldexp(gram, rng.integers(-40, 41, gram.shape, dtype=np.int8), out=gram)
    signs = rng.choice([-1.0, 1.0], (2, k, 2 * width))
    return np.array_equal(np.matmul(signs, gram), _einsum_product(signs, gram))


def null_stats_from_gram(gram: np.ndarray, signs: np.ndarray, estimator: str) -> np.ndarray:
    """MMD^2 of each permutation, from the pool Gram G and the permutations' signs.

    Row i of ``signs`` is permutation i: +1 puts a pooled row in the first
    block, -1 in the second, w rows each. With q = s'Gs and T the sum of G,
    the two within-block sums add to (T + q) / 2 and the cross sum is
    (T - q) / 4. So the biased statistic is q / w^2, clamped at 0 (exact
    for a kernel, and it keeps p = 1 on identical inputs), and the unbiased
    one is ((T + q) / 2 - tr G) / (w (w - 1)) - (T - q) / (2 w^2). The
    product of the signs and G goes through a BLAS GEMM at shapes where
    :func:`_matmul_keeps_bits` finds einsum's bits, and through einsum where
    the GEMM reorders the sum, so the bytes are the same on any machine and
    for any thread count.
    Leading axes of ``gram`` and ``signs`` stack windows, each with its own
    Gram and signs; every window gets the same bits as it would alone.
    """
    w = gram.shape[-1] // 2
    product = np.matmul if _matmul_keeps_bits(signs.shape[-2], w) else _einsum_product
    q = np.einsum("...im,...im->...i", product(signs, gram), signs)
    if estimator == "biased":
        return np.maximum(q / (w * w), 0.0)
    total = gram.sum(axis=(-2, -1))[..., None]
    trace = np.trace(gram, axis1=-2, axis2=-1)[..., None]
    return ((total + q) / 2 - trace) / (w * (w - 1)) - (total - q) / (2 * w * w)


def _span_tests(spec, x, y, width, stride, indices, k, seed, estimator, bandwidth):
    """Window tests of x[j * stride:][:width] against y[j * stride:][:width] for each j < len(indices).

    The windows take their Grams from one pool Gram over all rows of ``x``
    and ``y``, with the bits of their own. Window j draws from the stream
    (seed, "bootstrap", indices[j]). ``bandwidth`` None resolves it over the
    pool, which is then one window. Returns, per window, the k null
    statistics, the observed MMD^2, their median and p-value.
    """
    span = x.shape[0]
    _matmul_keeps_bits(k, width)  # a new shape's probe runs before this Gram is held, so the two never add up
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, x, y)
    pool = np.concatenate([x, y], dtype=np.float64)
    gram = kernel_matrix(spec, bandwidth, pool, pool)
    # every window's Gram in one strided view of the span's, as (side, row, side, column):
    # the reshape copies it once for a run of windows, and not at all for one window
    r, c = gram.strides
    grams = as_strided(gram, (len(indices), 2, width, 2, width), (stride * (r + c), span * r, r, span * c, c),
                       writeable=False).reshape(len(indices), 2 * width, 2 * width)
    observed = mmd_sq_from_gram(grams[:, :width, :width], grams[:, width:, width:], grams[:, :width, width:], estimator)
    halves = np.tile(np.repeat([1.0, -1.0], width), (k, 1))
    signs = np.stack([derive_rng(seed, BOOTSTRAP_TAG, t).permuted(halves, axis=1) for t in indices])
    stats = null_stats_from_gram(grams, signs, estimator)
    p_value = (1.0 + np.count_nonzero(stats >= observed[:, None], axis=-1)) / (k + 1.0)
    return stats, observed, np.median(stats, axis=-1), p_value


def window_test(
    spec: KernelSpec,
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    seed: int,
    estimator: str,
    bandwidth: float | None = None,
    window_index: int = 0,
) -> tuple[float, np.ndarray, float, float]:
    """MMD^2 between windows ``x`` and ``y`` and its permutation null.

    Returns (observed_sq, stats, median, p_value): the observed MMD^2, the k
    permuted MMD^2 values, their median (the mean of the two middles for
    even k), and the add-one-smoothed tail probability
    (1 + #{stats >= observed_sq}) / (k + 1), never zero.

    ``x`` and ``y`` are (rows, dims) arrays, pooled and computed in float64.
    The pool's Gram matrix is built once: the observed statistic comes from
    its contiguous blocks (bit-identical to :func:`~driftscan.mmd.mmd`), the
    k null statistics from :func:`null_stats_from_gram` over one
    (k, 2 * rows) sign matrix drawn from the stream
    (seed, "bootstrap", window_index), so reruns are byte-identical however
    windows are scheduled. ``bandwidth`` is resolved over the pool when None
    (per window); :func:`check_window_settings` checks the settings. It is the
    one-window case of :func:`scan_window_tests`.
    """
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(f"windows must have the same rows and dims, got {x.shape} and {y.shape}")
    check_window_settings(x.shape[0], k, estimator)
    stats, observed, median, p_value = _span_tests(
        spec, x, y, x.shape[0], 1, [window_index], k, seed, estimator, bandwidth)
    return float(observed[0]), stats[0], float(median[0]), float(p_value[0])


def scan_window_tests(spec: KernelSpec, x: np.ndarray, y: np.ndarray, width: int, stride: int, k: int, seed: int,
                      estimator: str, bandwidth: float | None) -> tuple[list[float], ...]:
    """:func:`window_test` of x[t - width:t] against y[t - width:t] for t = width, width + stride, ... <= rows.

    Returns the observed MMD^2, null medians and p-values as float lists,
    the bits of one :func:`window_test` per window with ``window_index`` t.
    Runs of up to ``width // stride`` overlapping windows share one pool
    Gram (under ``median-window`` a run is one window), and the runs go to
    one thread per usable CPU, as numpy's element-wise ops, einsum and
    matmul release the GIL. matmul takes the null's product only at shapes
    whose probe found einsum's bits, so the bits hold for any thread count;
    two runs that probe one shape at once agree. The arrays in flight, Grams
    and nulls alike, hold about ``BLOCK_DISTANCES`` numbers; a window that
    alone holds more runs alone.
    Runs of one window share no Gram and are tested in order on the calling
    thread, where threads cost CPU for no wall time. ``bandwidth`` None
    under the global median is a ValueError: each run would take its own.
    """
    from concurrent.futures import ThreadPoolExecutor

    if bandwidth is None and spec.needs_bandwidth and spec.bandwidth == kernels.MEDIAN_GLOBAL:
        raise ValueError("the global median bandwidth must be resolved over the whole scan and passed in")
    check_window_settings(width, k, estimator)
    ends = range(width, x.shape[0] + 1, stride)
    entries = 4 * width * width  # one window's pool Gram
    footprint = entries + _null_numbers(width, k)
    workers = min(kernels._usable_cpus(), len(ends), max(1, kernels.BLOCK_DISTANCES // footprint))
    # a run spans under 2 * width rows a side, so its Gram has under 4 * entries
    size = 1 if spec.per_window_bandwidth else max(
        1, min(width // stride, (kernels.BLOCK_DISTANCES // workers - 4 * entries) // footprint))

    def run(t: range):
        return _span_tests(spec, x[t[0] - width:t[-1]], y[t[0] - width:t[-1]], width, stride, t, k, seed,
                           estimator, bandwidth)[1:]

    runs = (ends[i:i + size] for i in range(0, len(ends), size))
    with ThreadPoolExecutor(workers) as pool:  # the pool starts no thread for runs of one window
        parts = list((pool.map if size > 1 else map)(run, runs))
    return tuple(np.concatenate(column).tolist() for column in zip(*parts))
