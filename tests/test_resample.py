import numpy as np
import pytest

from driftscan.embeddings import EmbeddingMatrix, ValidationError
from driftscan.kernels import KernelSpec, kernel_matrix, resolve_bandwidth
from driftscan.mmd import mmd, mmd_sq_from_gram
from driftscan.resample import BOOTSTRAP_TAG, null_stats_from_gram, window_test
from driftscan.rng import check_seed, derive_rng, derive_seed

RBF_FIXED = KernelSpec("rbf", 1.0)


def test_window_test_rejects_mismatched_windows():
    x = np.zeros((4, 2))
    with pytest.raises(ValidationError, match="same rows and dims"):
        window_test(RBF_FIXED, x, np.zeros((4, 3)), 5, 0, "paired_halves", "biased")
    with pytest.raises(ValidationError, match="same rows and dims"):
        window_test(RBF_FIXED, x, np.zeros((5, 2)), 5, 0, "paired_halves", "biased")


def test_degenerate_pool_gives_zero_stats_and_p_one():
    window = np.array([[2.0, -1.0]] * 4)
    est, result = window_test(RBF_FIXED, window, window, 25, 9, "paired_halves", "biased")
    assert est.squared == 0.0
    assert np.all(result.stats == 0.0)
    assert result.median == 0.0
    assert result.p_value == 1.0


def gathered_null_stats(gram, idx, block, estimator):
    """Reference: gather each draw's Gram blocks and reduce them one draw at a time."""
    stats = []
    for row in idx:
        b1, b2 = row[:block], row[block:]
        stats.append(mmd_sq_from_gram(
            gram[np.ix_(b1, b1)], gram[np.ix_(b2, b2)], gram[np.ix_(b1, b2)], estimator
        ))
    return np.array(stats)


@pytest.mark.parametrize("family", ["rbf", "linear"])
@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
@pytest.mark.parametrize("split", ["paired_halves", "literal_quarter"])
def test_quadratic_form_matches_gathered_blocks(family, estimator, split):
    half = 12
    block = half if split == "paired_halves" else half // 2
    rng = np.random.default_rng(11)
    pool = rng.standard_normal((2 * half, 4))
    gram = kernel_matrix(KernelSpec(family), 1.5, pool, pool)
    idx = rng.integers(0, 2 * half, size=(60, 2 * block))
    fast = null_stats_from_gram(gram, idx, block, estimator)
    slow = gathered_null_stats(gram, idx, block, estimator)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


_TWIN = EmbeddingMatrix.from_array(np.random.default_rng(12).standard_normal((8, 3))).as_float64()
_FAR = ([9.658225059509277, 53.671287536621094, 26.380176544189453],
        [11.147784233093262, 44.63081359863281, 21.859966278076172])
_FAR_PICK = [0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1]

#: name -> (kernel, pool, seed). Identical windows pool into each row twice,
#: so the observed statistic is 0. The two far rows (far in bandwidth units)
#: are each repeated; without the clamp some of their draws round to about
#: -1e-40, and an observed 0 would get p < 1.
DUPLICATED_POOLS = {
    "identical-windows-rbf": (RBF_FIXED, np.vstack([_TWIN, _TWIN]), 4),
    "identical-windows-linear": (KernelSpec("linear"), np.vstack([_TWIN, _TWIN]), 4),
    "two-far-rows": (RBF_FIXED, EmbeddingMatrix.from_array([_FAR[i] for i in _FAR_PICK]).as_float64(), 56),
}


@pytest.mark.parametrize("name", sorted(DUPLICATED_POOLS))
def test_biased_null_on_duplicated_rows_is_nonnegative_with_p_one(name):
    spec, pool, seed = DUPLICATED_POOLS[name]
    gram = kernel_matrix(spec, resolve_bandwidth(spec, pool), pool, pool)
    idx = derive_rng(seed, BOOTSTRAP_TAG, 0).integers(0, 16, size=(200, 16))
    # p = (1 + #{stats >= 0}) / (k + 1) is 1 for an observed 0 exactly when no stat is negative
    assert np.all(null_stats_from_gram(gram, idx, 8, "biased") >= 0.0)


def test_shared_gram_gives_the_same_null():
    rng = np.random.default_rng(13)
    x, y = (EmbeddingMatrix.from_array(rng.standard_normal((8, 3))) for _ in range(2))
    est, result = window_test(RBF_FIXED, x.values, y.values, 30, 6, "paired_halves", "biased")
    pool = np.vstack([x.as_float64(), y.as_float64()])
    idx = derive_rng(6, BOOTSTRAP_TAG, 0).integers(0, 16, size=(30, 16))
    own = null_stats_from_gram(kernel_matrix(RBF_FIXED, 1.0, pool, pool), idx, 8, "biased")
    np.testing.assert_array_equal(result.stats, own)
    assert est == mmd(RBF_FIXED, x, y, "biased")


def _windows(seed, rows, dims):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, dims)), rng.standard_normal((rows, dims))


def test_fixed_seed_reproduces_stats_bitwise():
    x, y = _windows(1, 8, 3)
    _, a = window_test(RBF_FIXED, x, y, 50, 7, "paired_halves", "biased")
    _, b = window_test(RBF_FIXED, x, y, 50, 7, "paired_halves", "biased")
    np.testing.assert_array_equal(a.stats, b.stats)
    assert a.median == b.median and a.p_value == b.p_value
    _, c = window_test(RBF_FIXED, x, y, 50, 8, "paired_halves", "biased")
    assert not np.array_equal(a.stats, c.stats)


def test_p_value_bounds_and_monotonicity():
    # one window against shifted copies of itself: the observed statistic grows
    # with the shift, and the draws (same seed, same sizes) stay the same
    x, _ = _windows(2, 6, 2)
    k = 40
    ps = []
    for shift in (0.0, 0.1, 0.3, 1.0, 100.0):
        est, result = window_test(RBF_FIXED, x, x + shift, k, 3, "paired_halves", "biased")
        assert result.p_value == (1 + np.count_nonzero(result.stats >= est.squared)) / (k + 1)
        assert 1.0 / (k + 1) <= result.p_value <= 1.0
        ps.append(result.p_value)
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
        return window_test(RBF_FIXED, t[:6], t[6:], 30, 5, "paired_halves", "biased")[1]

    np.testing.assert_array_equal(np.sort(canonical(q1, q2).stats), np.sort(canonical(q2, q1).stats))
    e12, _ = window_test(RBF_FIXED, q1, q2, 30, 5, "paired_halves", "biased")
    e21, _ = window_test(RBF_FIXED, q2, q1, 30, 5, "paired_halves", "biased")
    assert e12.squared == e21.squared


def test_split_policy_preconditions():
    # paired compares blocks as large as a window, so one row per window suffices
    x, y = _windows(6, 1, 2)
    _, result = window_test(RBF_FIXED, x, y, 5, 0, "paired_halves", "biased")
    assert result.stats.shape == (5,)
    # literal compares blocks of half a window, which one row leaves empty
    with pytest.raises(ValueError, match="empty blocks"):
        window_test(RBF_FIXED, x, y, 5, 0, "literal_quarter", "biased")
    x, y = _windows(6, 3, 2)
    _, result = window_test(RBF_FIXED, x, y, 5, 0, "literal_quarter", "biased")
    assert result.stats.shape == (5,)


def test_literal_and_paired_differ():
    x, y = _windows(7, 8, 2)
    _, a = window_test(RBF_FIXED, x, y, 20, 1, "paired_halves", "biased")
    _, b = window_test(RBF_FIXED, x, y, 20, 1, "literal_quarter", "biased")
    assert not np.array_equal(a.stats, b.stats)


def test_parameter_validation():
    x = np.array([[1.0], [2.0]])
    y = np.array([[3.0], [4.0]])
    with pytest.raises(ValueError):
        window_test(RBF_FIXED, x[:0], y[:0], 5, 0, "paired_halves", "biased")
    with pytest.raises(ValueError):
        window_test(RBF_FIXED, x, y, 0, 0, "paired_halves", "biased")
    with pytest.raises(ValueError, match="split"):
        window_test(RBF_FIXED, x, y, 5, 0, "thirds", "biased")
    with pytest.raises(ValueError, match="estimator"):
        window_test(RBF_FIXED, x, y, 5, 0, "paired_halves", "plain")
    with pytest.raises(ValueError, match="unbiased"):
        window_test(RBF_FIXED, x, y, 5, 0, "literal_quarter", "unbiased")


def test_even_k_median_averages_middles():
    x, y = _windows(8, 3, 2)
    _, result = window_test(RBF_FIXED, x, y, 10, 2, "paired_halves", "biased")
    s = np.sort(result.stats)
    assert result.median == pytest.approx((s[4] + s[5]) / 2.0, rel=0, abs=0)


def test_rng_policy_streams_are_stable_and_distinct():
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
