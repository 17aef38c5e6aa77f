import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from driftscan import kernels, resample
from driftscan.embeddings import EmbeddingMatrix, ValidationError
from driftscan.kernels import KernelSpec, kernel_matrix, resolve_bandwidth
from driftscan.mmd import mmd, mmd_sq_from_gram
from driftscan.resample import BOOTSTRAP_TAG, null_stats_from_gram, scan_window_tests, window_test
from driftscan.rng import check_seed, derive_rng, derive_seed
from peak_rss import HAS_PROC_STATUS, peak_rise_mb

RBF_FIXED = KernelSpec("rbf", 1.0)


def test_window_test_rejects_mismatched_windows():
    x = np.zeros((4, 2))
    with pytest.raises(ValidationError, match="same rows and dims"):
        window_test(RBF_FIXED, x, np.zeros((4, 3)), 5, 0, "biased")
    with pytest.raises(ValidationError, match="same rows and dims"):
        window_test(RBF_FIXED, x, np.zeros((5, 2)), 5, 0, "biased")


def test_degenerate_pool_gives_zero_stats_and_p_one():
    window = np.array([[2.0, -1.0]] * 4)
    observed_sq, stats, median, p_value = window_test(RBF_FIXED, window, window, 25, 9, "biased")
    assert (observed_sq, median, p_value) == (0.0, 0.0, 1.0)
    assert np.all(stats == 0.0)


def permutation_signs(seed, window, k, rows):
    """Window ``window``'s k permutations of 2 * rows pooled rows, as the window test draws them."""
    return derive_rng(seed, BOOTSTRAP_TAG, window).permuted(np.tile(np.repeat([1.0, -1.0], rows), (k, 1)), axis=1)


def gathered_null_stats(gram, signs, estimator):
    """Reference: gather each permutation's Gram blocks and reduce them one permutation at a time."""
    stats = []
    for row in signs:
        b1, b2 = np.flatnonzero(row > 0), np.flatnonzero(row < 0)
        stats.append(mmd_sq_from_gram(
            gram[np.ix_(b1, b1)], gram[np.ix_(b2, b2)], gram[np.ix_(b1, b2)], estimator
        ))
    return np.array(stats)


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_quadratic_form_matches_gathered_blocks(family, estimator):
    half = 12
    pool = np.random.default_rng(11).standard_normal((2 * half, 4))
    gram = kernel_matrix(KernelSpec(family), 1.5, pool, pool)
    signs = permutation_signs(11, 0, 60, half)
    assert np.all(signs.sum(axis=1) == 0)  # two blocks of half rows each
    fast = null_stats_from_gram(gram, signs, estimator)
    slow = gathered_null_stats(gram, signs, estimator)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
@pytest.mark.parametrize("half", [2, 7])
def test_unpermuted_signs_give_the_observed_statistic(family, estimator, half):
    # the draw that keeps each row on its own side is the observed split, in
    # either orientation; 2 rows is the least the unbiased estimator takes
    rng = np.random.default_rng(17)
    x, y = (EmbeddingMatrix.from_array(rng.standard_normal((half, 3)) + shift) for shift in (0.0, 0.5))
    spec = KernelSpec(family)
    pool = np.vstack([x.as_float64(), y.as_float64()])
    bandwidth = resolve_bandwidth(spec, pool)
    observed = mmd(spec, x, y, estimator, bandwidth=bandwidth)[0]
    split = np.repeat([1.0, -1.0], half)
    stats = null_stats_from_gram(kernel_matrix(spec, bandwidth, pool, pool), np.stack([split, -split]), estimator)
    assert stats[0] == stats[1]
    assert abs(stats[0] - observed) <= 1e-12 * abs(observed)


_TWIN = EmbeddingMatrix.from_array(np.random.default_rng(12).standard_normal((8, 3))).as_float64()
_FAR = ([9.658225059509277, 53.671287536621094, 26.380176544189453],
        [11.147784233093262, 44.63081359863281, 21.859966278076172])
_FAR_PICK = [0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1]

#: name -> (kernel, pool, seed). Identical windows pool into each row twice,
#: so the observed statistic is 0. The two far rows (far in bandwidth units)
#: are each repeated; without the clamp some of their draws round to about
#: -6e-39, and an observed 0 would get p < 1.
DUPLICATED_POOLS = {
    "identical-windows-rbf": (RBF_FIXED, np.vstack([_TWIN, _TWIN]), 4),
    "identical-windows-linear": (KernelSpec("linear"), np.vstack([_TWIN, _TWIN]), 4),
    "two-far-rows": (RBF_FIXED, EmbeddingMatrix.from_array([_FAR[i] for i in _FAR_PICK]).as_float64(), 56),
}


@pytest.mark.parametrize("name", sorted(DUPLICATED_POOLS))
def test_biased_null_on_duplicated_rows_is_nonnegative_with_p_one(name):
    spec, pool, seed = DUPLICATED_POOLS[name]
    gram = kernel_matrix(spec, resolve_bandwidth(spec, pool), pool, pool)
    # p = (1 + #{stats >= 0}) / (k + 1) is 1 for an observed 0 exactly when no stat is negative
    assert np.all(null_stats_from_gram(gram, permutation_signs(seed, 0, 200, 8), "biased") >= 0.0)


def test_shared_gram_gives_the_same_null():
    rng = np.random.default_rng(13)
    x, y = (EmbeddingMatrix.from_array(rng.standard_normal((8, 3))) for _ in range(2))
    observed_sq, stats, _, _ = window_test(RBF_FIXED, x.values, y.values, 30, 6, "biased")
    pool = np.vstack([x.as_float64(), y.as_float64()])
    own = null_stats_from_gram(kernel_matrix(RBF_FIXED, 1.0, pool, pool), permutation_signs(6, 0, 30, 8), "biased")
    np.testing.assert_array_equal(stats, own)
    assert (observed_sq, 1.0) == mmd(RBF_FIXED, x, y, "biased")


@pytest.fixture
def fresh_probe():
    """An empty cache of :func:`resample._matmul_keeps_bits`, emptied again afterwards."""
    resample._matmul_keeps_bits.cache_clear()
    yield
    resample._matmul_keeps_bits.cache_clear()


def _einsum_null_stats(monkeypatch, gram, signs, estimator):
    """Reference: the null with its sign product through einsum, whatever the probe says."""
    with monkeypatch.context() as m:
        m.setattr(resample, "_matmul_keeps_bits", lambda k, width: False)
        return null_stats_from_gram(gram, signs, estimator)


def _stacked_pools(width, windows=3):
    pools = np.random.default_rng(width).standard_normal((windows, 2 * width, 4))
    return np.stack([kernel_matrix(RBF_FIXED, 1.0, pool, pool) for pool in pools])


@pytest.mark.parametrize("width", [1, 2, 32, 128, 129])
@pytest.mark.parametrize("k", [1, 2, 3, 50, 199])
def test_null_has_the_bits_of_einsum_at_every_shape(monkeypatch, width, k):
    # one permutation is a matrix-vector product, and 129 rows a side pool over
    # 256 rows; a BLAS product of either may add in another order than einsum
    grams = _stacked_pools(width)
    signs = np.stack([permutation_signs(5, t, k, width) for t in range(len(grams))])
    stacked = null_stats_from_gram(grams, signs, "biased")
    assert stacked.tobytes() == _einsum_null_stats(monkeypatch, grams, signs, "biased").tobytes()
    for gram, own, stats in zip(grams, signs, stacked):
        assert null_stats_from_gram(gram, own, "biased").tobytes() == stats.tobytes()


def _spy_on_matmul(monkeypatch, product):
    """A list of the shapes of the left operands given to ``np.matmul``, which ``product`` then multiplies."""
    calls = []
    monkeypatch.setattr(np, "matmul", lambda a, b: calls.append(a.shape) or product(a, b))
    return calls


@pytest.mark.parametrize("keeps_bits", [False, True])
def test_the_probe_picks_the_product(monkeypatch, keeps_bits):
    grams = _stacked_pools(8)
    signs = np.stack([permutation_signs(5, t, 4, 8) for t in range(len(grams))])
    want = _einsum_null_stats(monkeypatch, grams, signs, "biased")
    monkeypatch.setattr(resample, "_matmul_keeps_bits", lambda k, width: keeps_bits)
    calls = _spy_on_matmul(monkeypatch, resample._einsum_product)  # einsum's bits on any BLAS
    assert null_stats_from_gram(grams, signs, "biased").tobytes() == want.tobytes()
    assert calls == ([signs.shape] if keeps_bits else [])


def test_a_probe_of_one_shape_does_not_serve_another(monkeypatch, fresh_probe):
    # a product that has einsum's bits for k >= 2 and is one ulp off for k = 1:
    # a probe keyed on the width alone would take it for k = 1 after k = 50
    def product(a, b):
        exact = resample._einsum_product(a, b)
        return np.nextafter(exact, np.inf) if a.shape[-2] == 1 else exact

    calls = _spy_on_matmul(monkeypatch, product)
    grams = _stacked_pools(32, windows=1)
    for k in (50, 1):
        signs = permutation_signs(5, 0, k, 32)[None]
        want = _einsum_null_stats(monkeypatch, grams, signs, "biased")
        assert null_stats_from_gram(grams, signs, "biased").tobytes() == want.tobytes()
    assert resample._matmul_keeps_bits(50, 32) and not resample._matmul_keeps_bits(1, 32)
    assert [shape[-2] for shape in calls] == [50, 50, 1]  # probe and null at k = 50, the probe alone at k = 1


def test_the_probe_waits_for_the_first_null():
    # importing the CLI probes no shape, so start-up time does not include it
    code = "import driftscan.cli, driftscan.resample as r; print(r._matmul_keeps_bits.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(resample.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout == "0\n"


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


def _window_test_loop(spec, x, y, stride, k, seed, estimator, bandwidth):
    """Reference: one window_test per window."""
    columns = ([], [], [])
    for t in range(SCAN_WIDTH, x.shape[0] + 1, stride):
        rows = slice(t - SCAN_WIDTH, t)
        observed_sq, _, median, p_value = window_test(spec, x[rows], y[rows], k, seed, estimator, bandwidth,
                                                      window_index=t)
        for column, value in zip(columns, (observed_sq, median, p_value)):
            column.append(value)
    return columns


@pytest.mark.parametrize("stride", [1, 3, SCAN_WIDTH, 2 * SCAN_WIDTH])
@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_window_tests_equal_a_loop_of_window_test(name, stride):
    spec, bandwidth, estimator = SCAN_CASES[name]
    rng = np.random.default_rng(21)
    x = rng.standard_normal((45, 3)).astype(np.float32)
    y = (rng.standard_normal((45, 3)) + 0.3).astype(np.float32)
    got = scan_window_tests(spec, x, y, SCAN_WIDTH, stride, 13, 4, estimator, bandwidth)
    want = _window_test_loop(spec, x, y, stride, 13, 4, estimator, bandwidth)
    assert all(type(v) is float for column in got for v in column)  # reports print each float's repr
    assert got == want


@pytest.mark.parametrize("spec", [KernelSpec("rbf", "median"), KernelSpec("rbf", "median-window"), KernelSpec("linear"),
                                  RBF_FIXED], ids=["median", "median-window", "linear", "fixed"])
def test_scan_window_tests_refuse_an_unresolved_global_median(spec):
    # a run would take the median of its own rows, so the bits would depend
    # on how many windows a run holds, that is on the CPU count
    x, y = _windows(26, 200, 3)
    if spec == KernelSpec("rbf", "median"):
        with pytest.raises(ValueError, match="global median"):
            scan_window_tests(spec, x, y, 160, 4, 19, 7, "biased", None)
    else:
        assert len(scan_window_tests(spec, x, y, 160, 4, 19, 7, "biased", None)[0]) == 11


@pytest.mark.parametrize("budget_windows, workers", [(1, 1), (3, 2), (5, 3)])
def test_scan_window_tests_equal_the_loop_when_the_budget_cuts_the_runs(monkeypatch, budget_windows, workers):
    # a run's budget is BLOCK_DISTANCES // workers numbers. A window holds
    # its Gram and 3k(2w) null numbers, a run's span Gram under 4 window
    # Grams: with room for those and budget_windows windows a worker, runs
    # of stride-1 windows hold budget_windows windows, not SCAN_WIDTH
    gram = 4 * SCAN_WIDTH**2
    window = gram + 3 * 9 * 2 * SCAN_WIDTH  # k = 9: tiled signs, their permutation, its product with the Gram
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", workers * (4 * gram + budget_windows * window))
    rng = np.random.default_rng(22)
    x, y = rng.standard_normal((40, 2)), rng.standard_normal((40, 2))
    grams = []
    real = resample.kernel_matrix
    monkeypatch.setattr(resample, "kernel_matrix", lambda *args: grams.append(args[2].shape[0]) or real(*args))
    for estimator in ("biased", "unbiased"):
        grams.clear()
        got = scan_window_tests(RBF_FIXED, x, y, SCAN_WIDTH, 1, 9, 6, estimator, 1.0)
        # 33 windows in runs of budget_windows; a run of n windows pools 2 * (SCAN_WIDTH + n - 1) rows
        assert grams.count(2 * (SCAN_WIDTH + budget_windows - 1)) == 33 // budget_windows
        assert got == _window_test_loop(RBF_FIXED, x, y, 1, 9, 6, estimator, 1.0)


@pytest.mark.parametrize("stride, threaded", [(1, True), (SCAN_WIDTH, False), (2 * SCAN_WIDTH, False)])
def test_only_runs_of_several_windows_go_to_threads(monkeypatch, stride, threaded):
    # windows that share no Gram are tested in order on the calling thread
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    threads = set()
    real = resample.kernel_matrix
    monkeypatch.setattr(resample, "kernel_matrix", lambda *args: threads.add(threading.get_ident()) or real(*args))
    x, y = _windows(23, 40, 2)
    scan_window_tests(RBF_FIXED, x, y, SCAN_WIDTH, stride, 9, 6, "biased", 1.0)
    assert (threads != {threading.get_ident()}) == threaded


def _windows(seed, rows, dims):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, dims)), rng.standard_normal((rows, dims))


def _spy_on_grams(monkeypatch):
    """Lists that collect the kernel matrices window tests build and the Grams they give the null."""
    built, given = [], []
    kernel, null = resample.kernel_matrix, resample.null_stats_from_gram
    monkeypatch.setattr(resample, "kernel_matrix", lambda *args: built.append(kernel(*args)) or built[-1])
    monkeypatch.setattr(resample, "null_stats_from_gram", lambda gram, *args: given.append(gram) or null(gram, *args))
    return built, given


def test_one_window_gives_the_null_a_view_of_its_kernel_matrix(monkeypatch):
    # a copy would push the window's peak past the GRAM_PEAK_RATIO that check_window_settings budgets for
    built, given = _spy_on_grams(monkeypatch)
    x, y = _windows(24, SCAN_WIDTH, 3)
    window_test(RBF_FIXED, x, y, 9, 0, "biased", 1.0)
    assert len(built) == len(given) == 1
    assert given[0].shape == (1, 2 * SCAN_WIDTH, 2 * SCAN_WIDTH)
    assert np.shares_memory(given[0], built[0])


def test_a_run_of_windows_gives_the_null_one_contiguous_copy_of_their_grams(monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)  # runs in order
    built, given = _spy_on_grams(monkeypatch)
    x, y = _windows(25, 20, 3)
    scan_window_tests(RBF_FIXED, x, y, SCAN_WIDTH, 1, 9, 0, "biased", 1.0)
    assert [grams.shape[0] for grams in given] == [SCAN_WIDTH, 20 - 2 * SCAN_WIDTH + 1]
    assert all(grams.flags.c_contiguous for grams in given)
    pools = [np.concatenate([x[t - SCAN_WIDTH:t], y[t - SCAN_WIDTH:t]]) for t in range(SCAN_WIDTH, 21)]
    own = [kernel_matrix(RBF_FIXED, 1.0, pool, pool) for pool in pools]
    np.testing.assert_array_equal(np.concatenate(given), own)


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
    # with the shift, and the draws (same seed, same sizes) stay the same
    x, _ = _windows(2, 6, 2)
    k = 40
    ps = []
    for shift in (0.0, 0.1, 0.3, 1.0, 100.0):
        observed_sq, stats, _, p_value = window_test(RBF_FIXED, x, x + shift, k, 3, "biased")
        assert p_value == (1 + np.count_nonzero(stats >= observed_sq)) / (k + 1)
        assert 1.0 / (k + 1) <= p_value <= 1.0
        ps.append(p_value)
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0  # identical windows: every stat reaches the observed 0
    assert ps[-1] == 1.0 / (k + 1)  # add-one smoothing floor


def test_label_swap_invariance_on_canonicalized_pool():
    # the null depends on the pool alone, so with the pool rows canonicalized
    # (sorted lexicographically) the stats do not depend on which sample was
    # called reference; the observed statistic is symmetric bit for bit
    q1, q2 = _windows(4, 6, 2)
    q2 = q2 + 1.0

    def canonical(a, b):
        t = np.vstack([a, b])
        t = t[np.lexsort(t.T[::-1])]
        return window_test(RBF_FIXED, t[:6], t[6:], 30, 5, "biased")[1]

    np.testing.assert_array_equal(np.sort(canonical(q1, q2)), np.sort(canonical(q2, q1)))
    assert window_test(RBF_FIXED, q1, q2, 30, 5, "biased")[0] == window_test(RBF_FIXED, q2, q1, 30, 5, "biased")[0]


def test_one_row_windows_have_a_null():
    # the null's blocks are as large as a window, so one row per window suffices
    x, y = _windows(6, 1, 2)
    assert window_test(RBF_FIXED, x, y, 5, 0, "biased")[1].shape == (5,)


def test_check_window_settings_refuses_windows_past_window_numbers():
    # 4096-row windows peak at about 0.63 GB and pass; 8192-row ones at about 2.5 GB
    resample.check_window_settings(4096, 50, "biased")
    with pytest.raises(ValueError, match="8192 rows with 50 bootstraps need about 2.5 GB"):
        resample.check_window_settings(8192, 50, "biased")


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
def test_one_window_test_peaks_near_its_measured_gram_ratio():
    # check_window_settings refuses settings by GRAM_PEAK_RATIO times the Gram; a window
    # test that held more copies of its Gram would pass settings that cannot fit
    setup = """
import numpy as np
from driftscan.kernels import KernelSpec
from driftscan.resample import window_test
x, y = np.random.default_rng(0).standard_normal((2, 1024, 8))
window_test(KernelSpec("rbf", 1.0), x[:8], y[:8], 1, 0, "biased", 1.0)  # lazy imports
"""
    rise_mb = peak_rise_mb(setup, 'window_test(KernelSpec("rbf", 1.0), x, y, 1, 0, "biased", 1.0)')
    gram_mb = (2 * 1024) ** 2 * 8 / 2**20
    assert rise_mb < (resample.GRAM_PEAK_RATIO + 0.25) * gram_mb, f"peak {rise_mb:.1f} MB over a {gram_mb:.0f} MB Gram"


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf")])
def test_non_finite_bandwidth_is_refused(bandwidth):
    # NaN once gave every null statistic NaN and a flagged p = 1/(k + 1); inf a constant kernel
    x = np.random.default_rng(3).standard_normal((16, 3))
    with pytest.raises(ValueError, match="positive finite bandwidth"):
        window_test(KernelSpec(), x, x, 19, 0, "biased", bandwidth)
    with pytest.raises(ValueError, match="positive finite bandwidth"):
        mmd(KernelSpec(), EmbeddingMatrix.from_array(x), EmbeddingMatrix.from_array(x), bandwidth=bandwidth)


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
