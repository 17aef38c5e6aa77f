import numpy as np
import pytest

from driftscan.embeddings import EmbeddingMatrix, ValidationError
from driftscan.kernels import KernelSpec, kernel_matrix
from driftscan.mmd import mmd_sq_from_gram
from driftscan.resample import RngPolicy, bootstrap_null, combine_under_null, null_stats_from_gram
from driftscan.rng import derive_rng, derive_seed

RBF_FIXED = KernelSpec("rbf", 1.0)


def test_combine_concatenates_in_order():
    q1 = EmbeddingMatrix.from_array([[1.0, 1.0], [2.0, 2.0]])
    q2 = EmbeddingMatrix.from_array([[3.0, 3.0], [4.0, 4.0], [5.0, 5.0]])
    t = combine_under_null(q1, q2)
    assert t.rows == 5
    np.testing.assert_array_equal(t.values[:2], q1.values)
    np.testing.assert_array_equal(t.values[2:], q2.values)


def test_combine_empty_left_is_identity():
    q2 = EmbeddingMatrix.from_array([[1.0], [2.0]])
    assert combine_under_null(EmbeddingMatrix.empty(1), q2) is q2


def test_combine_then_split_recovers_inputs():
    rng = np.random.default_rng(0)
    q1 = EmbeddingMatrix.from_array(rng.standard_normal((4, 3)))
    q2 = EmbeddingMatrix.from_array(rng.standard_normal((7, 3)))
    t = combine_under_null(q1, q2)
    np.testing.assert_array_equal(t.take_rows(0, q1.rows).values, q1.values)
    np.testing.assert_array_equal(t.take_rows(q1.rows, t.rows).values, q2.values)


def test_combine_dimension_mismatch():
    with pytest.raises(ValidationError):
        combine_under_null(EmbeddingMatrix.from_array([[1.0]]), EmbeddingMatrix.from_array([[1.0, 2.0]]))


def test_degenerate_pool_gives_zero_stats_and_p_one():
    beta = 4
    t = EmbeddingMatrix.from_array([[2.0, -1.0]] * (2 * beta))
    result = bootstrap_null(
        RBF_FIXED, t, half_size=beta, k=25, rng=RngPolicy(9), observed=0.0
    )
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


_TWIN = EmbeddingMatrix.from_array(np.random.default_rng(12).standard_normal((8, 3)))
_FAR = ([9.658225059509277, 53.671287536621094, 26.380176544189453],
        [11.147784233093262, 44.63081359863281, 21.859966278076172])
_FAR_PICK = [0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1]

#: name -> (kernel, pool, seed). Identical windows pool into each row twice,
#: so the observed statistic is 0. The two far rows (far in bandwidth units)
#: are each repeated; without the clamp some of their draws round to about
#: -1e-40 and p drops below 1.
DUPLICATED_POOLS = {
    "identical-windows-rbf": (RBF_FIXED, combine_under_null(_TWIN, _TWIN), 4),
    "identical-windows-linear": (KernelSpec("linear"), combine_under_null(_TWIN, _TWIN), 4),
    "two-far-rows": (RBF_FIXED, EmbeddingMatrix.from_array([_FAR[i] for i in _FAR_PICK]), 56),
}


@pytest.mark.parametrize("name", sorted(DUPLICATED_POOLS))
def test_biased_null_on_duplicated_rows_is_nonnegative_with_p_one(name):
    spec, pool, seed = DUPLICATED_POOLS[name]
    result = bootstrap_null(spec, pool, half_size=8, k=200, rng=RngPolicy(seed), observed=0.0)
    assert np.all(result.stats >= 0.0)
    assert result.p_value == 1.0


def test_shared_gram_gives_the_same_null():
    rng = np.random.default_rng(13)
    t = EmbeddingMatrix.from_array(rng.standard_normal((16, 3)))
    pool = t.as_float64()
    own = bootstrap_null(RBF_FIXED, t, half_size=8, k=30, rng=RngPolicy(6), bandwidth=1.0)
    shared = bootstrap_null(RBF_FIXED, t, half_size=8, k=30, rng=RngPolicy(6), bandwidth=1.0,
                            gram=kernel_matrix(RBF_FIXED, 1.0, pool, pool))
    np.testing.assert_array_equal(own.stats, shared.stats)
    with pytest.raises(ValueError, match="gram"):
        bootstrap_null(RBF_FIXED, t, half_size=8, k=30, rng=RngPolicy(6), gram=np.eye(15))


def test_fixed_seed_reproduces_stats_bitwise():
    rng = np.random.default_rng(1)
    t = EmbeddingMatrix.from_array(rng.standard_normal((16, 3)))
    a = bootstrap_null(RBF_FIXED, t, half_size=8, k=50, rng=RngPolicy(7), observed=0.1)
    b = bootstrap_null(RBF_FIXED, t, half_size=8, k=50, rng=RngPolicy(7), observed=0.1)
    np.testing.assert_array_equal(a.stats, b.stats)
    assert a.median == b.median and a.p_value == b.p_value
    c = bootstrap_null(RBF_FIXED, t, half_size=8, k=50, rng=RngPolicy(8), observed=0.1)
    assert not np.array_equal(a.stats, c.stats)


def test_p_value_bounds_and_monotonicity():
    rng = np.random.default_rng(2)
    t = EmbeddingMatrix.from_array(rng.standard_normal((12, 2)))
    k = 40
    observeds = [-1.0, 0.0, 0.01, 0.05, 1e9]
    ps = [
        bootstrap_null(RBF_FIXED, t, half_size=6, k=k, rng=RngPolicy(3), observed=o).p_value
        for o in observeds
    ]
    for p in ps:
        assert 1.0 / (k + 1) <= p <= 1.0
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] == 1.0  # every stat beats an impossible observation
    assert ps[-1] == 1.0 / (k + 1)  # add-one smoothing floor


def test_label_swap_invariance_on_canonicalized_pool():
    # combination precedes resampling, so with the pool rows canonicalized
    # (sorted lexicographically) the stats do not depend on which sample was
    # called reference
    rng = np.random.default_rng(4)
    q1 = EmbeddingMatrix.from_array(rng.standard_normal((6, 2)))
    q2 = EmbeddingMatrix.from_array(rng.standard_normal((6, 2)) + 1.0)

    def canonical(a, b):
        t = combine_under_null(a, b)
        order = np.lexsort(t.values.T[::-1])
        return EmbeddingMatrix(t.values[order])

    r12 = bootstrap_null(RBF_FIXED, canonical(q1, q2), half_size=6, k=30, rng=RngPolicy(5))
    r21 = bootstrap_null(RBF_FIXED, canonical(q2, q1), half_size=6, k=30, rng=RngPolicy(5))
    np.testing.assert_array_equal(np.sort(r12.stats), np.sort(r21.stats))


def test_split_policy_preconditions():
    rng = np.random.default_rng(6)
    t = EmbeddingMatrix.from_array(rng.standard_normal((6, 2)))
    # paired needs 2*half rows
    with pytest.raises(ValidationError, match="needs >="):
        bootstrap_null(RBF_FIXED, t, half_size=6, k=5, rng=RngPolicy(0), split_policy="paired_halves")
    # literal compares blocks of half//2, so 6 rows suffice for half_size 6
    result = bootstrap_null(RBF_FIXED, t, half_size=6, k=5, rng=RngPolicy(0), split_policy="literal_quarter")
    assert result.stats.shape == (5,)


def test_literal_and_paired_differ():
    rng = np.random.default_rng(7)
    t = EmbeddingMatrix.from_array(rng.standard_normal((16, 2)))
    a = bootstrap_null(RBF_FIXED, t, half_size=8, k=20, rng=RngPolicy(1), split_policy="paired_halves")
    b = bootstrap_null(RBF_FIXED, t, half_size=8, k=20, rng=RngPolicy(1), split_policy="literal_quarter")
    assert not np.array_equal(a.stats, b.stats)


def test_parameter_validation():
    t = EmbeddingMatrix.from_array([[1.0], [2.0], [3.0], [4.0]])
    with pytest.raises(ValidationError):
        bootstrap_null(RBF_FIXED, t, half_size=0, k=5, rng=RngPolicy(0))
    with pytest.raises(ValidationError):
        bootstrap_null(RBF_FIXED, t, half_size=2, k=0, rng=RngPolicy(0))
    with pytest.raises(ValueError, match="split"):
        bootstrap_null(RBF_FIXED, t, half_size=2, k=5, rng=RngPolicy(0), split_policy="thirds")
    with pytest.raises(ValidationError, match="unbiased"):
        bootstrap_null(RBF_FIXED, t, half_size=2, k=5, rng=RngPolicy(0),
                       split_policy="literal_quarter", estimator="unbiased")


def test_even_k_median_averages_middles():
    beta = 3
    rng = np.random.default_rng(8)
    t = EmbeddingMatrix.from_array(rng.standard_normal((2 * beta, 2)))
    result = bootstrap_null(RBF_FIXED, t, half_size=beta, k=10, rng=RngPolicy(2))
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
        RngPolicy(-1)
    with pytest.raises(ValueError):
        RngPolicy(2**64)
    RngPolicy(2**64 - 1)
