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
quadratic forms come from one BLAS product (``np.matmul``) of the (k, w)
signs with H, after each window's H is rounded onto the grid of multiples
of q = 2^(E + ceil(log2 w) - 53), 2^E the least power of two above its max
|H| and q at least 2^-1074. Every entry of S H is then a sum of w multiples
of q whose partial sums stay within 2^53 q, exact in any order, so the bits
do not depend on the BLAS kernel or its threads (Ozaki, Ogita, Oishi and
Rump 2012; Demmel and Nguyen 2015).

A scan draws one (k, rows) sign matrix S, in column blocks from the streams
(seed, "scan-flip", block), and the window ending at row t reads columns
[t - w, t); :func:`window_test` is the one-window case, columns [0, w). A
scan tests its windows in blocks: runs of overlapping windows share Kxx, Kxy
and Kyy over the union of their rows, and a block stacks runs along a
leading axis, so that each step of the test is one numpy call for all of a
block's windows.
"""

from __future__ import annotations

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

def check_window_settings(rows: int, bootstraps: int, estimator: str) -> None:
    """Check the settings of window tests on windows of ``rows`` rows, the one rule of scan and calibrate.

    ValueError for settings that cannot run: no rows, one row under the unbiased estimator, and windows whose
    one test, a block of one window (:func:`_block_numbers`, without its rows), would hold more than
    ``WINDOW_NUMBERS`` beside one int8 block of S.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if bootstraps < 1:
        raise ValueError(f"bootstraps must be >= 1, got {bootstraps}")
    if rows < 1:
        raise ValueError(f"window must be >= 1, got {rows}")
    if estimator == "unbiased" and rows < 2:
        raise ValueError("unbiased estimator needs blocks of >= 2 rows")
    peak = sum(_block_numbers(rows, rows, bootstraps, rows)) + bootstraps * FLIP_COLUMNS // 8
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


def _quadratic_forms(signs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """s'Hs for each row s of ``signs``; leading axes stack windows."""
    return np.einsum("...im,...im->...i", np.matmul(signs, h), signs)


def median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=-1)``, to its bits, without the ``numpy.ma`` import it makes on first use.

    The middle value, or the mean of the two middles for an even count, each
    summed from 0.0 as np.mean does (so -0.0 reads 0.0); NaN where a row
    holds one.
    """
    k = values.shape[-1]
    part = np.partition(values, [(k - 1) // 2, k // 2], axis=-1)
    middle = 0.0 + part[..., k // 2] if k % 2 else (0.0 + part[..., k // 2 - 1] + part[..., k // 2]) / 2.0
    return np.where(np.isnan(values).any(axis=-1), np.nan, middle)


def _block_tests(spec, x, y, width, stride, runs, run, signs, estimator, bandwidth):
    """Window tests of x[i * stride:][:width] against y[i * stride:][:width] for each i < ``runs * run``.

    Window i = r * run + j is window j of run r, whose rows [r * run * stride,
    r * run * stride + span) hold its ``run`` windows (span = width + (run - 1)
    * stride). Each run takes Kxx, Kxy and Kyy over its rows, stacked along a
    leading run axis, and every window its Gram blocks from them, with the bits
    of their own; Kyx is Kxy's transpose, to the bit. Window i takes its flips
    from columns [i * stride, i * stride + width) of ``signs``, a (k, columns)
    array. ``bandwidth`` None resolves one per run over its rows. Returns, per
    window, the k null statistics, the observed MMD^2, their median and p-value.
    """
    k, span = signs.shape[0], width + (run - 1) * stride
    rows = np.array([x, x, y, y], dtype=np.float64)
    s, r, c = rows.strides
    rows = as_strided(rows, (4, runs, span, x.shape[1]), (s, run * stride * r, r, c), writeable=False)
    if bandwidth is None and spec.needs_bandwidth:
        bandwidth = np.array([resolve_bandwidth(spec, a, b) for a, b in zip(rows[0], rows[2])])[:, None, None]
    grams = kernel_matrix(spec, bandwidth, rows[:3], rows[1:])  # Kxx, Kxy, Kyy
    del rows

    # every window's Gram blocks as strided views of its run's, as (Gram, run, window, row, column)
    g, r, c = grams.strides[1:]
    windows = (3, runs, run, width, width)
    kxx, kxy, kyy = as_strided(grams, windows, (grams.strides[0], g, stride * (r + c), r, c), writeable=False)
    observed = mmd_sq_from_gram(kxx, kyy, kxy, estimator).reshape(-1)
    cross = grams[1] + np.swapaxes(grams[1], -2, -1)  # Kxy + Kyx, so H is swap-symmetric
    h = grams[0]
    h += grams[2]
    h -= cross
    del kxx, kxy, kyy, cross
    # each window's block of H and columns of the signs, copied once for the block
    h = as_strided(h, windows[1:], (g, stride * (r + c), r, c), writeable=False).copy().reshape(-1, width, width)
    del grams
    r, c = signs.strides
    signs = np.ascontiguousarray(as_strided(signs, (runs * run, k, width), (stride * c, r, c), writeable=False))
    # each window's H onto its grid q, so that every sum in its products with the signs is exact
    top = np.maximum(h.max(axis=(1, 2)), -h.min(axis=(1, 2)))
    grid = np.maximum(np.frexp(top)[1] + (width - 1).bit_length() - 53, -1074)[:, None, None]
    np.ldexp(h, -grid, out=h)
    np.rint(h, out=h)
    np.ldexp(h, grid, out=h)
    ones = np.ones((1, width))
    offset = _quadratic_forms(signs, h) - _quadratic_forms(ones, h)
    b = 1.0 / (width * width)
    stats = observed[:, None] + (b if estimator == "biased" else (1.0 / (width * (width - 1)) + b) / 2) * offset
    if estimator == "biased":
        np.maximum(stats, 0.0, out=stats)
    p_value = (1.0 + np.count_nonzero(stats >= observed[:, None], axis=-1)) / (k + 1.0)
    return stats, observed, median(stats), p_value


def window_test(spec: KernelSpec, x: np.ndarray, y: np.ndarray, k: int, seed: int, estimator: str,
                bandwidth: float | None = None) -> tuple[float, np.ndarray, float, float]:
    """MMD^2 between windows ``x`` and ``y`` and its sign-flip null.

    Returns (observed_sq, stats, median, p_value): the observed MMD^2, the
    MMD^2 of k flips of the row pairs, their median (the mean of the two
    middles for even k), and the add-one-smoothed tail probability
    (1 + #{stats >= observed_sq}) / (k + 1), never zero.

    ``x`` and ``y`` are (rows, dims) arrays, computed in float64. Kxx, Kxy
    and Kyy are built once: the observed statistic comes from them
    (bit-identical to :func:`~driftscan.mmd.mmd`), the
    flips from columns [0, rows) of the sign matrix S of :func:`flip_signs`
    for ``seed``, as for a scan's first window. ``bandwidth`` is resolved
    over both windows' rows when None (per window);
    :func:`check_window_settings` checks the settings, and a non-finite
    value is a :class:`ValidationError`. It is a block of one
    one-window run of :func:`scan_window_tests`.
    """
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(f"windows must have the same rows and dims, got {x.shape} and {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):  # a NaN statistic would rank as the most significant
        raise ValidationError("window tests need finite values")
    rows = x.shape[0]
    check_window_settings(rows, k, estimator)
    stats, observed, middle, p_value = _block_tests(
        spec, x, y, rows, 1, 1, 1, flip_signs(seed, k, rows)(0, rows), estimator, bandwidth)
    return float(observed[0]), stats[0], float(middle[0]), float(p_value[0])


def _block_numbers(width: int, stride: int, k: int, span: int) -> tuple[int, int]:
    """The float64 numbers a block of window tests holds per window and per run of ``span`` rows, rows left out.

    Per window: its Gram blocks or H, its float64 columns of S, its flips and their product with H. Per run: its
    three Grams and Kxy + Kyx, the 4 w^2 of a one-window test's peak as measured (VmHWM) at w = 1024.
    """
    return width * width + 2 * k * width + k * min(stride, width), 4 * span * span


def _block_shape(per_window: bool, width: int, stride: int, k: int, rows: int, dims: int) -> tuple[int, int]:
    """Windows a run and runs a block for a scan of ``rows`` x ``dims`` sides.

    A block, with the int8 block of S held beside it, keeps to half of
    ``BLOCK_DISTANCES``: larger blocks were measured slower, their arrays
    out of the CPU's caches. It counts :func:`_block_numbers` and each
    run's rows. A run holds the windows that overlap its first, fewer if
    they do not fit, and one under a per-window bandwidth; a block holds at
    least one run.
    """
    budget = kernels.BLOCK_DISTANCES // 2 - k * min(FLIP_COLUMNS, rows) // 8
    window = _block_numbers(width, stride, k, 0)[0]

    def held(span):
        return _block_numbers(width, stride, k, span)[1] + 8 * dims * span

    run = 1 if per_window else max(1, min(width // stride, (budget - held(2 * width)) // window))
    return run, max(1, budget // (held(width + (run - 1) * stride) + run * window))


def scan_window_tests(spec: KernelSpec, x: np.ndarray, y: np.ndarray, width: int, stride: int, k: int, seed: int,
                      estimator: str, bandwidth: float | None) -> tuple[list[float], ...]:
    """Window tests of x[t - width:t] against y[t - width:t] for t = width, width + stride, ... <= rows.

    Returns the observed MMD^2, null medians and p-values as float lists.
    Window t takes its flips from columns [t - width, t) of one sign matrix
    S for ``seed`` (:func:`flip_signs`). Consecutive windows form runs of up
    to ``width // stride``, whose Grams cover the union of their rows (under
    ``median-window`` a run is one window), and consecutive runs of equal
    length are tested together in blocks (:func:`_block_tests`) along a
    leading axis, with the bits of one window at a time; a last, shorter run
    is a block of its own. :func:`_block_shape` sizes them to the memory
    budget. ``bandwidth`` None under the global median is a ValueError: each
    run would take its own.
    """
    if bandwidth is None and spec.needs_bandwidth and spec.bandwidth == kernels.MEDIAN_GLOBAL:
        raise ValueError("the global median bandwidth must be resolved over the whole scan and passed in")
    check_window_settings(width, k, estimator)
    stride = min(stride, x.shape[0])  # any stride past rows - width leaves one window; larger ones overflow views
    count = len(range(width, x.shape[0] + 1, stride))
    run, per_block = _block_shape(spec.per_window_bandwidth, width, stride, k, *x.shape)
    full = count // run
    blocks = [(min(per_block, full - first), run) for first in range(0, full, per_block)]
    if count % run:
        blocks.append((1, count % run))
    signs = flip_signs(seed, k, x.shape[0])
    columns, first = ([], [], []), 0
    for runs, length in blocks:
        rows = slice(first * stride, (first + runs * length - 1) * stride + width)
        tests = _block_tests(spec, x[rows], y[rows], width, stride, runs, length, signs(rows.start, rows.stop),
                             estimator, bandwidth)
        for column, values in zip(columns, tests[1:]):
            column.extend(values.tolist())  # Python floats: no small arrays pinned in the heap between blocks
        first += runs * length
    return columns
