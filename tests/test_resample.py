import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from driftscan import kernels, resample
from driftscan.embeddings import ValidationError, as_embeddings
from driftscan.kernels import KernelSpec, kernel_matrix, resolve_bandwidth
from driftscan.mmd import mmd, mmd_sq_from_gram
from driftscan.resample import scan_window_tests, window_test
from driftscan.rng import check_seed, derive_rng, derive_seed
from peak_rss import HAS_PROC_STATUS, peak_rise_mb

RBF_FIXED = KernelSpec("rbf", 1.0)


def test_window_test_rejects_mismatched_windows():
    x = np.zeros((4, 2))
    with pytest.raises(ValidationError, match="same rows and dims"):
        window_test(RBF_FIXED, x, np.zeros((4, 3)), 5, 0, "biased")
    with pytest.raises(ValidationError, match="same rows and dims"):
        window_test(RBF_FIXED, x, np.zeros((5, 2)), 5, 0, "biased")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_window_test_refuses_non_finite_values(bad, side):
    # a NaN statistic counts no flip at or above it, which read as p = 1/(k + 1)
    windows = list(_windows(3, 8, 2))
    windows[side][5, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        window_test(RBF_FIXED, *windows, 19, 0, "biased")


def test_degenerate_pool_gives_zero_stats_and_p_one():
    window = np.array([[2.0, -1.0]] * 4)
    observed_sq, stats, median, p_value = window_test(RBF_FIXED, window, window, 25, 9, "biased")
    assert (observed_sq, median, p_value) == (0.0, 0.0, 1.0)
    assert np.all(stats == 0.0)


def flips(seed, k, rows):
    """The k x rows sign matrix a window test of ``rows`` rows draws for ``seed``."""
    return resample.flip_signs(seed, k, rows)(0, rows)


def one_window_null(spec, bandwidth, x, y, signs, estimator):
    """The k null statistics, observed MMD^2 and p-value of one window tested with the flips ``signs``."""
    stats, observed, _, p_value = resample._block_tests(spec, x, y, x.shape[0], 1, 1, 1, signs, estimator, bandwidth)
    return stats[0], observed[0], p_value[0]


def swapped_null_stats(spec, bandwidth, x, y, signs, estimator):
    """Reference: mmd() of the windows with the pairs swapped where the sign is -1, one flip at a time."""
    stats = []
    for row in signs:
        swap = row < 0
        xs, ys = x.copy(), y.copy()
        xs[swap], ys[swap] = y[swap], x[swap]
        stats.append(mmd(spec, as_embeddings(xs), as_embeddings(ys), estimator,
                         bandwidth=bandwidth)[0])
    return np.array(stats)


def _float32_windows(seed, rows, dims, shift=0.5):
    """Two windows of float32 values in float64, which mmd() reads without rounding."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, rows, dims)).astype(np.float32)
    return x.astype(np.float64), (y + np.float32(shift)).astype(np.float64)


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_quadratic_form_matches_gathered_blocks(family, estimator):
    # each flip statistic is mmd() on the windows with the flipped pairs swapped
    spec = KernelSpec(family)
    for width in (2, 3, 7):
        x, y = _float32_windows(11 + width, width, 4)
        bandwidth = resolve_bandwidth(spec, x, y)
        signs = flips(11, 60, width)
        stats, observed, _ = one_window_null(spec, bandwidth, x, y, signs, estimator)
        slow = swapped_null_stats(spec, bandwidth, x, y, signs, estimator)
        assert observed == mmd(spec, as_embeddings(x), as_embeddings(y), estimator,
                               bandwidth=bandwidth)[0]
        if estimator == "biased":
            slow = np.maximum(slow, 0.0)
        assert np.max(np.abs(stats - slow)) <= 1e-12 * np.max(np.abs(slow)), width


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
@pytest.mark.parametrize("half", [2, 7])
def test_unpermuted_signs_give_the_observed_statistic(family, estimator, half):
    # the flip that swaps no pair, and the one that swaps every pair, give the
    # observed statistic to the bit; 2 rows is the least the unbiased estimator takes
    rng = np.random.default_rng(17)
    x, y = (as_embeddings(rng.standard_normal((half, 3)) + shift) for shift in (0.0, 0.5))
    spec = KernelSpec(family)
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    bandwidth = resolve_bandwidth(spec, x64, y64)
    observed = mmd(spec, x, y, estimator, bandwidth=bandwidth)[0]
    ones = np.ones(half)
    stats, _, p_value = one_window_null(spec, bandwidth, x64, y64, np.stack([ones, -ones]), estimator)
    assert stats.tolist() == [observed, observed] and p_value == 1.0


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
@pytest.mark.parametrize("width", [2, 3, 7])
def test_identical_windows_give_every_flip_the_observed_value(family, estimator, width):
    # H = Kxx + Kyy - Kxy - Kxy' is exactly 0, so no flip moves the statistic
    x, _ = _float32_windows(19, width, 3)
    spec = KernelSpec(family)
    observed_sq, stats, median, p_value = window_test(spec, x, x, 50, 2, estimator, resolve_bandwidth(spec, x, x))
    assert np.all(stats == observed_sq) and median == observed_sq and p_value == 1.0


_TWIN = as_embeddings(np.random.default_rng(12).standard_normal((8, 3))).astype(np.float64)
_FAR = ([9.658225059509277, 53.671287536621094, 26.380176544189453],
        [11.147784233093262, 44.63081359863281, 21.859966278076172])
_FAR_PICK = [0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1]

#: name -> (kernel, the two windows stacked, seed). Identical windows give
#: an observed statistic of 0. The two far rows (far in bandwidth units) are
#: each repeated, so many flips land on exactly 0, where the biased
#: statistic's clamp would act on any rounding below it.
DUPLICATED_POOLS = {
    "identical-windows-rbf": (RBF_FIXED, np.vstack([_TWIN, _TWIN]), 4),
    "identical-windows-linear": (KernelSpec("linear"), np.vstack([_TWIN, _TWIN]), 4),
    "two-far-rows": (RBF_FIXED, as_embeddings([_FAR[i] for i in _FAR_PICK]).astype(np.float64), 56),
}


@pytest.mark.parametrize("name", sorted(DUPLICATED_POOLS))
def test_biased_null_on_duplicated_rows_is_nonnegative_with_p_one(name):
    spec, pool, seed = DUPLICATED_POOLS[name]
    x, y = pool[:8], pool[8:]
    stats, observed, p_value = one_window_null(spec, resolve_bandwidth(spec, pool), x, y, flips(seed, 200, 8),
                                               "biased")
    assert np.all(stats >= 0.0)
    if name.startswith("identical"):
        assert observed == 0.0 and p_value == 1.0


def test_shared_gram_gives_the_same_null():
    # the first window of a run, on the run's pool Gram and the scan's first
    # columns of S, gets the bits of a window test alone
    x, y = (side.astype(np.float32) for side in _windows(13, 10, 3))
    observed_sq, stats, _, _ = window_test(RBF_FIXED, x[:8], y[:8], 30, 6, "biased", 1.0)
    run, observed, _, _ = resample._block_tests(RBF_FIXED, x, y, 8, 1, 1, 3, resample.flip_signs(6, 30, 10)(0, 10),
                                                "biased", 1.0)
    np.testing.assert_array_equal(run[0], stats)
    assert observed[0] == observed_sq
    assert (observed_sq, 1.0) == mmd(RBF_FIXED, as_embeddings(x[:8]),
                                     as_embeddings(y[:8]), "biased")


def test_sign_columns_do_not_depend_on_the_rows_or_the_blocks_held(monkeypatch):
    # block c of S is a (FLIP_COLUMNS, k) draw from (seed, "scan-flip", c), cut at the scan's rows
    monkeypatch.setattr(resample, "FLIP_COLUMNS", 7)
    blocks = [derive_rng(3, "scan-flip", c).integers(0, 2, (7, 5), dtype=np.int8).T for c in range(5)]
    whole = 1.0 - 2.0 * np.concatenate(blocks, axis=1)
    for rows in (20, 35):
        signs = resample.flip_signs(3, 5, rows)
        for start, stop in ((0, 4), (2, 9), (5, 20), (6, 13), (0, 20)):  # out of order, and across blocks
            np.testing.assert_array_equal(signs(start, stop), whole[:, start:stop])
    assert set(np.unique(whole)) == {-1.0, 1.0}


def _run_nulls(x, y, width, k, count, seed=5):
    """The null statistics of ``count`` stride-1 windows tested as one run."""
    signs = resample.flip_signs(seed, k, x.shape[0])(0, x.shape[0])
    return resample._block_tests(RBF_FIXED, x, y, width, 1, 1, count, signs, "biased", 1.0)[0]


#: the sign product by einsum, which adds each sum in order, and by einsum over the reversed sum axis
IN_ORDER = {
    "einsum": lambda a, b: np.einsum("...in,...nm->...im", a, b, optimize=False),
    "reversed": lambda a, b: np.einsum("...in,...nm->...im", a[..., ::-1], b[..., ::-1, :], optimize=False),
}


def _run_nulls_by(monkeypatch, product, *args):
    """:func:`_run_nulls` with ``product`` in place of ``np.matmul``."""
    with monkeypatch.context() as m:
        m.setattr(np, "matmul", IN_ORDER[product])
        return _run_nulls(*args)


@pytest.mark.parametrize("width", [1, 2, 32, 128, 129])
@pytest.mark.parametrize("k", [1, 2, 3, 50, 199])
def test_null_has_the_bits_of_einsum_at_every_shape(monkeypatch, width, k):
    # one flip is a matrix-vector product, and 129 rows make a GEMM of several
    # panels; a BLAS product of either may add in another order than einsum,
    # which H on its grid makes give the same bits
    x, y = _windows(width, width + 2, 4)
    stacked = _run_nulls(x, y, width, k, 3)
    assert stacked.tobytes() == _run_nulls_by(monkeypatch, "einsum", x, y, width, k, 3).tobytes()
    signs = resample.flip_signs(5, k, width + 2)(0, width + 2)
    for j, stats in enumerate(stacked):
        own = resample._block_tests(RBF_FIXED, x[j:j + width], y[j:j + width], width, 1, 1, 1,
                                    signs[:, j:j + width], "biased", 1.0)[0][0]
        assert own.tobytes() == stats.tobytes()


#: stand-ins for H: exponents from 2^-40 to 2^40, and every entry within a factor 2 of max |H|, whose sums
#: of w entries fill the grid's exact range
STAND_IN_H = {
    "wide": lambda rng, shape: np.ldexp(rng.standard_normal(shape), rng.integers(-40, 41, shape)),
    "top": lambda rng, shape: rng.uniform(0.5, 1.0, shape),
}


def _stand_in_grams(h, seed):
    """A stand-in for :func:`kernel_matrix` whose H is its Kxx, drawn by ``STAND_IN_H[h]``; Kxy and Kyy are 0."""
    def grams(spec, bandwidth, a, b):
        out = np.zeros(a.shape[:-1] + b.shape[-2:-1])
        out[0] = STAND_IN_H[h](np.random.default_rng(seed), out.shape[1:])
        return out

    return grams


@pytest.mark.parametrize("width", [1, 2, 32, 128, 129])
@pytest.mark.parametrize("k", [1, 2, 3, 50, 199])
@pytest.mark.parametrize("h", ["kernel", *STAND_IN_H])
def test_null_does_not_depend_on_the_order_of_the_sign_product(monkeypatch, width, k, h):
    # H on its grid makes every sum of the sign product exact, so matmul,
    # einsum in order and einsum over the reversed sum give the same bits
    x, y = _windows(width + 1, width + 2, 4)
    if h in STAND_IN_H:
        monkeypatch.setattr(resample, "kernel_matrix", _stand_in_grams(h, width * 1000 + k))
    want = _run_nulls(x, y, width, k, 3)
    for product in IN_ORDER:
        assert _run_nulls_by(monkeypatch, product, x, y, width, k, 3).tobytes() == want.tobytes()


#: name -> (kernel, bandwidth shared by the windows, estimator)
SCAN_CASES = {
    "rbf-biased": (RBF_FIXED, 1.0, "biased"),
    "rbf-unbiased": (RBF_FIXED, 1.0, "unbiased"),
    "linear-biased": (KernelSpec("linear"), None, "biased"),
    "linear-unbiased": (KernelSpec("linear"), None, "unbiased"),
    "median-window-unbiased": (KernelSpec("rbf", "median-window"), None, "unbiased"),
    "median-window-biased": (KernelSpec("rbf", "median-window"), None, "biased"),
}
SCAN_WIDTH = 8


def _window_test_loop(spec, x, y, stride, k, seed, estimator, bandwidth, width=SCAN_WIDTH):
    """Reference: one window at a time, window t with columns [t - width, t) of the scan's S."""
    signs = resample.flip_signs(seed, k, x.shape[0])(0, x.shape[0])
    columns = ([], [], [])
    for t in range(width, x.shape[0] + 1, stride):
        rows = slice(t - width, t)
        stats, observed_sq, median, p_value = resample._block_tests(spec, x[rows], y[rows], width, 1, 1, 1,
                                                                   signs[:, rows], estimator, bandwidth)
        assert observed_sq[0] == window_test(spec, x[rows], y[rows], k, seed, estimator, bandwidth)[0]
        for column, value in zip(columns, (observed_sq, median, p_value)):
            column.append(float(value[0]))
    return columns


def _scan_inputs(rows=45):
    rng = np.random.default_rng(21)
    return rng.standard_normal((rows, 3)).astype(np.float32), (rng.standard_normal((rows, 3)) + 0.3).astype(np.float32)


@pytest.mark.parametrize("stride", [1, 3, SCAN_WIDTH, SCAN_WIDTH + 1, 2 * SCAN_WIDTH])
@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_window_tests_equal_a_loop_of_window_test(name, stride):
    spec, bandwidth, estimator = SCAN_CASES[name]
    x, y = _scan_inputs()
    got = scan_window_tests(spec, x, y, SCAN_WIDTH, stride, 13, 4, estimator, bandwidth)
    want = _window_test_loop(spec, x, y, stride, 13, 4, estimator, bandwidth)
    assert all(type(v) is float for column in got for v in column)  # reports print each float's repr
    assert got == want


@pytest.mark.parametrize("spec", [KernelSpec("rbf", "median"), KernelSpec("rbf", "median-window"), KernelSpec("linear"),
                                  RBF_FIXED], ids=["median", "median-window", "linear", "fixed"])
def test_scan_window_tests_refuse_an_unresolved_global_median(spec):
    # a run would take the median of its own rows, so the bits would depend
    # on how many windows a run holds
    x, y = _windows(26, 200, 3)
    if spec == KernelSpec("rbf", "median"):
        with pytest.raises(ValueError, match="global median"):
            scan_window_tests(spec, x, y, 160, 4, 19, 7, "biased", None)
    else:
        assert len(scan_window_tests(spec, x, y, 160, 4, 19, 7, "biased", None)[0]) == 11


def blocks_of(monkeypatch, windows, runs):
    """Make :func:`scan_window_tests` take blocks of ``runs`` runs of ``windows`` windows.

    A run holds at most ``width // stride`` windows, and one under a
    per-window bandwidth, as the budget would allow.
    """
    def shape(per_window, width, stride, *_):
        return 1 if per_window else max(1, min(windows, width // stride)), runs

    monkeypatch.setattr(resample, "_block_shape", shape)


def spy_on_blocks(monkeypatch):
    """A list of the (runs, windows a run) of each block :func:`scan_window_tests` tests."""
    blocks = []
    real = resample._block_tests
    monkeypatch.setattr(resample, "_block_tests", lambda *args: blocks.append(args[5:7]) or real(*args))
    return blocks


#: (windows a run, runs a block): one window a block, one run a block, and
#: many runs a block; 45 rows leave a ragged last run at strides 1 and 3
BLOCK_SHAPES = ((1, 1), (3, 1), (8, 4), (2, 32))


@pytest.mark.parametrize("stride", [1, 3, SCAN_WIDTH, SCAN_WIDTH + 1, 2 * SCAN_WIDTH])
@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_blocks_of_any_shape_equal_a_loop_of_window_test(monkeypatch, name, stride):
    # runs of windows stacked along a leading axis keep each window's bits,
    # whatever a block and its runs hold
    spec, bandwidth, estimator = SCAN_CASES[name]
    x, y = _scan_inputs()
    want = _window_test_loop(spec, x, y, stride, 13, 4, estimator, bandwidth)
    blocks = spy_on_blocks(monkeypatch)
    count = len(want[0])
    for windows, runs in BLOCK_SHAPES:
        blocks_of(monkeypatch, windows, runs)
        blocks.clear()
        assert scan_window_tests(spec, x, y, SCAN_WIDTH, stride, 13, 4, estimator, bandwidth) == want
        run = 1 if spec.per_window_bandwidth else max(1, min(windows, SCAN_WIDTH // stride))
        full = [(min(runs, count // run - first), run) for first in range(0, count // run, runs)]
        assert blocks == full + ([(1, count % run)] if count % run else [])


def _budget(width, stride, k, rows, dims, windows):
    """A ``BLOCK_DISTANCES`` whose budget fits runs of ``windows`` windows and not of one more.

    A block keeps to half of it beside S's int8 block, and counts 4 span^2
    + 8 dims span numbers a run and w^2 + 2kw + k min(stride, w) a window.
    """
    window = width * width + 2 * k * width + k * min(stride, width)
    return 2 * (k * rows // 8 + 4 * (2 * width) ** 2 + 8 * dims * 2 * width + windows * window)


@pytest.mark.parametrize("budget_windows, stride", [(1, 1), (3, 2), (5, 3)])
def test_scan_window_tests_equal_the_loop_when_the_budget_cuts_the_runs(monkeypatch, budget_windows, stride):
    # with room for budget_windows windows, runs hold that many, not width // stride
    width = 24
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", _budget(width, stride, 9, 60, 2, budget_windows))
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal((60, 2)), rng.standard_normal((60, 2))
    blocks = spy_on_blocks(monkeypatch)
    for estimator in ("biased", "unbiased"):
        blocks.clear()
        got = scan_window_tests(RBF_FIXED, x, y, width, stride, 9, 6, estimator, 1.0)
        windows, rest = divmod(len(range(width, 61, stride)), budget_windows)
        assert [run for runs, run in blocks for _ in range(runs)] == [budget_windows] * windows + [rest] * (rest > 0)
        assert got == _window_test_loop(RBF_FIXED, x, y, stride, 9, 6, estimator, 1.0, width)


@pytest.mark.parametrize("width, stride, k, rows, dims", [(32, 1, 50, 2000, 8), (32, 64, 50, 6000, 64),
                                                          (8, 8, 2000, 40000, 2), (512, 1, 50, 600, 8),
                                                          (32, 1, 2000, 95, 8), (16, 3, 19, 200, 4)])
def test_a_block_keeps_to_half_the_budget(width, stride, k, rows, dims):
    # the numbers a block counts, with S's int8 block, stay within half of
    # BLOCK_DISTANCES unless one window alone is over; a run holds the windows
    # that overlap its first, or one under a per-window bandwidth
    run, runs = resample._block_shape(False, width, stride, k, rows, dims)
    span = width + (run - 1) * stride
    window, held = resample._block_numbers(width, stride, k, span)
    numbers = k * min(resample.FLIP_COLUMNS, rows) // 8 + runs * (held + 8 * dims * span + run * window)
    assert 1 <= run <= max(1, width // stride) and runs >= 1
    assert numbers <= kernels.BLOCK_DISTANCES // 2 or (run, runs) == (1, 1)
    assert resample._block_shape(True, width, stride, k, rows, dims)[0] == 1


def _windows(seed, rows, dims):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, dims)), rng.standard_normal((rows, dims))


def _own_h(x, y):
    """H = Kxx + Kyy - Kxy - Kxy' of one window, from its own kernel matrices."""
    kxy = kernel_matrix(RBF_FIXED, 1.0, x, y)
    return kernel_matrix(RBF_FIXED, 1.0, x, x) + kernel_matrix(RBF_FIXED, 1.0, y, y) - (kxy + kxy.T)


def _spy_on_nulls(monkeypatch):
    """Weak references to the kernel matrices window tests build, and the H stacks given to the null at that time."""
    built, given = [], []
    kernel, forms = resample.kernel_matrix, resample._quadratic_forms

    def spy_forms(signs, h):
        given.append((h.copy(), [ref() is not None for ref in built]))
        return forms(signs, h)

    def spy_kernel(*args):
        gram = kernel(*args)
        built.append(weakref.ref(gram))
        return gram

    monkeypatch.setattr(resample, "kernel_matrix", spy_kernel)
    monkeypatch.setattr(resample, "_quadratic_forms", spy_forms)
    return built, given


def test_one_window_frees_its_gram_before_the_null(monkeypatch):
    # the null's arrays come after the Gram is gone, so check_window_settings
    # may count the Gram's peak and the null's arrays apart
    built, given = _spy_on_nulls(monkeypatch)
    x, y = _windows(24, SCAN_WIDTH, 3)
    window_test(RBF_FIXED, x, y, 9, 0, "biased", 1.0)
    assert len(built) == 1 and len(given) == 2  # the flips, then the flip that swaps no pair
    for h, alive in given:
        assert alive == [False]
        assert h.shape == (1, SCAN_WIDTH, SCAN_WIDTH)
        np.testing.assert_allclose(h[0], _own_h(x, y), rtol=0, atol=1e-15)


def test_a_run_of_windows_gives_the_null_one_contiguous_copy_of_their_grams(monkeypatch):
    # each window's H block of the run's H, copied out once for the run
    built, given = _spy_on_nulls(monkeypatch)
    x, y = _windows(25, 20, 3)
    scan_window_tests(RBF_FIXED, x, y, SCAN_WIDTH, 1, 9, 0, "biased", 1.0)
    stacks = [h for h, _ in given[::2]]
    assert [h.shape[0] for h in stacks] == [SCAN_WIDTH, 20 - 2 * SCAN_WIDTH + 1]
    assert all(alive == [False] * len(alive) for _, alive in given)
    own = [_own_h(x[t - SCAN_WIDTH:t], y[t - SCAN_WIDTH:t]) for t in range(SCAN_WIDTH, 21)]
    np.testing.assert_allclose(np.concatenate(stacks), own, rtol=0, atol=1e-15)


def test_fixed_seed_reproduces_stats_bitwise():
    x, y = _windows(1, 8, 3)
    _, a_stats, *a = window_test(RBF_FIXED, x, y, 50, 7, "biased")
    _, b_stats, *b = window_test(RBF_FIXED, x, y, 50, 7, "biased")
    np.testing.assert_array_equal(a_stats, b_stats)
    assert a == b
    _, c_stats, *_ = window_test(RBF_FIXED, x, y, 50, 8, "biased")
    assert not np.array_equal(a_stats, c_stats)


def test_p_value_bounds_and_monotonicity():
    # one window against shifted copies of itself: the observed statistic grows
    # with the shift, and the flips (same seed, same sizes) stay the same
    x, _ = _windows(2, 6, 2)
    k = 40
    signs = flips(3, k, 6)
    ties = np.count_nonzero(np.all(signs == 1.0, axis=1) | np.all(signs == -1.0, axis=1))
    ps = []
    for shift in (0.0, 0.1, 0.3, 1.0, 100.0):
        observed_sq, stats, _, p_value = window_test(RBF_FIXED, x, x + shift, k, 3, "biased")
        assert p_value == (1 + np.count_nonzero(stats >= observed_sq)) / (k + 1)
        assert 1.0 / (k + 1) <= p_value <= 1.0
        ps.append(p_value)
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0  # identical windows: every flip gives the observed 0
    # far apart, every flip but the two that swap no pair or every pair falls
    # below the observed value, and those two tie it to the bit; at w = 6 a
    # draw is one of them with chance 2/64
    assert ties > 0
    assert ps[-1] == (1 + ties) / (k + 1)


def test_label_swap_invariance_on_canonicalized_pool():
    # H is the same bits with the sides swapped, so the null is too, and the
    # observed statistic is symmetric bit for bit
    q1, q2 = _windows(4, 6, 2)
    q2 = q2 + 1.0
    a_sq, a_stats, _, a_p = window_test(RBF_FIXED, q1, q2, 30, 5, "biased")
    b_sq, b_stats, _, b_p = window_test(RBF_FIXED, q2, q1, 30, 5, "biased")
    assert (a_sq, a_p) == (b_sq, b_p)
    np.testing.assert_array_equal(a_stats, b_stats)


def test_one_row_windows_have_a_null():
    # the null's blocks are as large as a window, so one row per window suffices
    x, y = _windows(6, 1, 2)
    assert window_test(RBF_FIXED, x, y, 5, 0, "biased")[1].shape == (5,)


def test_check_window_settings_refuses_windows_past_window_numbers():
    # 4096-row windows peak at about 0.63 GB and pass; 8192-row ones at about 2.5 GB
    resample.check_window_settings(4096, 50, "biased")
    with pytest.raises(ValueError, match="8192 rows with 50 bootstraps need about 2.5 GB"):
        resample.check_window_settings(8192, 50, "biased")


def test_check_window_settings_counts_the_flips_at_the_boundary():
    # at w = 32 one window test is a block of one window: its four 32 x 32
    # Grams and H, 3 x 32 float64 numbers a flip (its columns of S, its signs
    # and their product with H), and one 4096-column int8 block of S, 512
    # numbers a flip: 5120 + 608 k against 2**28
    def numbers(k):
        return sum(resample._block_numbers(32, 32, k, 32)) + k * resample.FLIP_COLUMNS // 8

    assert [numbers(k) for k in (0, 1)] == [5120, 5120 + 608]
    assert numbers(441497) <= resample.WINDOW_NUMBERS < numbers(441498)
    resample.check_window_settings(32, 441497, "biased")
    with pytest.raises(ValueError, match="32 rows with 441498 bootstraps need about 2.0 GB"):
        resample.check_window_settings(32, 441498, "biased")


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
def test_scan_sign_memory_does_not_grow_with_rows():
    # 40000 rows with k = 2000 make an S of 76 MB as int8, 610 MB as float64;
    # the scan holds one 4096-column int8 block (7.8 MB) and one run's
    # float64 columns (2000 x 8, 0.12 MB) at a time, beside its 5000 results
    setup = """
import numpy as np
from driftscan.kernels import KernelSpec
from driftscan.resample import scan_window_tests
x, y = np.random.default_rng(0).standard_normal((2, 40000, 2))
scan_window_tests(KernelSpec("rbf", 1.0), x[:16], y[:16], 8, 8, 2000, 0, "biased", 1.0)  # lazy imports
"""
    rise_mb = peak_rise_mb(setup, 'scan_window_tests(KernelSpec("rbf", 1.0), x, y, 8, 8, 2000, 0, "biased", 1.0)')
    block_mb = 2000 * resample.FLIP_COLUMNS / 2**20
    assert rise_mb < 2 * block_mb, f"peak {rise_mb:.1f} MB over a {block_mb:.1f} MB block of signs"


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
def test_one_window_test_peaks_near_its_measured_gram_ratio():
    # check_window_settings refuses settings by the numbers of a one-window block; a
    # window test that held more copies of its Gram would pass settings that cannot fit
    setup = """
import numpy as np
from driftscan.kernels import KernelSpec
from driftscan.resample import window_test
x, y = np.random.default_rng(0).standard_normal((2, 1024, 8))
window_test(KernelSpec("rbf", 1.0), x[:8], y[:8], 1, 0, "biased", 1.0)  # lazy imports
"""
    rise_mb = peak_rise_mb(setup, 'window_test(KernelSpec("rbf", 1.0), x, y, 1, 0, "biased", 1.0)')
    block_mb = (sum(resample._block_numbers(1024, 1024, 1, 1024)) + resample.FLIP_COLUMNS // 8) * 8 / 2**20
    assert rise_mb < block_mb, f"peak {rise_mb:.1f} MB over the {block_mb:.0f} MB that check_window_settings counts"


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 1e-200, 1e160])
def test_non_finite_bandwidth_is_refused(bandwidth):
    # NaN once gave every null statistic NaN and a flagged p = 1/(k + 1); inf a constant kernel;
    # 1e-200 a kernel divisor -2 * bandwidth**2 of -0.0, so 0/0 on each Gram's zero diagonal;
    # 1e160 a divisor of -inf, so a constant kernel and MMD^2 0 for any inputs
    x = np.random.default_rng(3).standard_normal((16, 3))
    with pytest.raises(ValueError, match="positive finite bandwidth"):
        window_test(KernelSpec(), x, x, 19, 0, "biased", bandwidth)
    with pytest.raises(ValueError, match="positive finite bandwidth"):
        mmd(KernelSpec(), as_embeddings(x), as_embeddings(x), bandwidth=bandwidth)


def test_the_smallest_accepted_bandwidths_give_finite_statistics():
    # at 1.5e-162 the kernel's divisor -2 * bandwidth**2 is -4.9e-324, not -0.0; a nonzero distance
    # over it is -inf, whose exp 0 is the kernel's value, so the overflow warns of nothing
    x, y = _windows(3, 16, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        observed, stats, middle, p_value = window_test(KernelSpec("rbf", 1.5e-162), x, y, 19, 0, "biased")
    assert np.isfinite([observed, middle, p_value, *stats]).all()


def test_parameter_validation():
    x = np.array([[1.0], [2.0]])
    y = np.array([[3.0], [4.0]])
    with pytest.raises(ValueError, match="empty blocks"):
        window_test(RBF_FIXED, x[:0], y[:0], 5, 0, "biased")
    with pytest.raises(ValueError):
        window_test(RBF_FIXED, x, y, 0, 0, "biased")
    with pytest.raises(ValueError, match="estimator"):
        window_test(RBF_FIXED, x, y, 5, 0, "plain")
    with pytest.raises(ValueError, match="unbiased"):
        window_test(RBF_FIXED, x[:1], y[:1], 5, 0, "unbiased")


def test_even_k_median_averages_middles():
    x, y = _windows(8, 3, 2)
    _, stats, median, _ = window_test(RBF_FIXED, x, y, 10, 2, "biased")
    s = np.sort(stats)
    assert median == pytest.approx((s[4] + s[5]) / 2.0, rel=0, abs=0)


@pytest.mark.parametrize("k", [1, 2, 3, 50, 199])
def test_median_has_the_bits_of_np_median(k):
    # rows with ties, signed zeros, infinities and a NaN, whose median is NaN
    rng = np.random.default_rng(k)
    values = rng.choice([0.0, -0.0, 1e-300, 0.5, 0.5 + 2**-53, 3.0, np.inf, -np.inf], (40, k))
    values[:20] = rng.standard_normal((20, k)) * 10.0 ** rng.integers(-300, 300, (20, 1))
    values[7, k // 2] = np.nan
    values[8] = -0.0
    with np.errstate(invalid="ignore"):  # the mean of -inf and inf
        assert resample.median(values).tobytes() == np.median(values, axis=-1).tobytes()
    assert resample.median(values[0]).tobytes() == np.median(values[0]).tobytes()


def test_derived_streams_are_stable_and_distinct():
    a = derive_rng(123, "x", 4).integers(0, 1 << 30, 8)
    b = derive_rng(123, "x", 4).integers(0, 1 << 30, 8)
    c = derive_rng(123, "x", 5).integers(0, 1 << 30, 8)
    d = derive_rng(123, "y", 4).integers(0, 1 << 30, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert derive_seed(1, "t", 0) == derive_seed(1, "t", 0)
    assert derive_seed(1, "t", 0) != derive_seed(2, "t", 0)


def test_seed_range_validated():
    with pytest.raises(ValueError):
        check_seed(-1)
    with pytest.raises(ValueError):
        check_seed(2**64)
    check_seed(2**64 - 1)
