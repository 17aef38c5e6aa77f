import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftscan.embeddings import as_embeddings
from driftscan.prep import BatchConfig, batch_means, shuffle_rows

finite_f32 = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32)


def test_shuffle_empty_matrix():
    m = as_embeddings(np.zeros((0, 3)))
    assert shuffle_rows(m, 1).shape[0] == 0


def test_shuffle_deterministic_per_seed():
    m = as_embeddings(np.arange(20, dtype=float).reshape(10, 2))
    a = shuffle_rows(m, 42)
    b = shuffle_rows(m, 42)
    c = shuffle_rows(m, 43)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float32, st.tuples(st.integers(0, 20), st.integers(1, 5)), elements=finite_f32),
       st.integers(0, 2**32))
def test_shuffle_preserves_row_multiset(values, seed):
    m = as_embeddings(values)
    shuffled = shuffle_rows(m, seed)
    def sorted_rows(x):
        return x[np.lexsort(x.T[::-1])] if len(x) else x
    np.testing.assert_array_equal(sorted_rows(shuffled), sorted_rows(m))


def test_batch_size_one_is_identity_without_shuffle():
    m = as_embeddings([[1.0, 2.0], [3.0, 4.0]])
    out = batch_means(m, BatchConfig(batch_size=1, shuffle=False))
    np.testing.assert_array_equal(out, m)


def test_two_row_mean():
    m = as_embeddings([[0.0, 0.0], [2.0, 2.0]])
    out = batch_means(m, BatchConfig(batch_size=2, shuffle=False))
    np.testing.assert_array_equal(out, np.array([[1.0, 1.0]], dtype=np.float32))


def test_constant_matrix_means_are_constant():
    row = [3.5, -1.25, 0.5]
    m = as_embeddings([row] * 10)
    for batch_size in (1, 2, 3, 7, 10):
        out = batch_means(m, BatchConfig(batch_size=batch_size, shuffle=True, seed=1))
        for got in out:
            np.testing.assert_array_equal(got, np.asarray(row, dtype=np.float32))


def test_tail_policies_row_counts():
    m = as_embeddings(np.arange(22, dtype=float).reshape(11, 2))
    dropped = batch_means(m, BatchConfig(batch_size=4, shuffle=False, tail_policy="drop"))
    kept = batch_means(m, BatchConfig(batch_size=4, shuffle=False, tail_policy="keep_partial"))
    assert dropped.shape[0] == 11 // 4
    assert kept.shape[0] == -(-11 // 4)
    assert dropped.shape[1] == kept.shape[1] == 2
    # tail block is the mean of the leftover 3 rows
    np.testing.assert_allclose(kept[-1], m[8:].mean(axis=0), rtol=1e-6)


def test_oversized_batch_warns_and_returns_empty():
    m = as_embeddings([[1.0], [2.0]])
    with pytest.warns(UserWarning, match="exceeds row count"):
        out = batch_means(m, BatchConfig(batch_size=5, shuffle=False))
    assert out.shape == (0, 1)
    # keep_partial turns the whole input into one mean instead
    kept = batch_means(m, BatchConfig(batch_size=5, shuffle=False, tail_policy="keep_partial"))
    assert kept.shape[0] == 1
    np.testing.assert_allclose(kept[0], [1.5])


def test_grand_mean_preserved_when_batch_divides_rows():
    rng = np.random.default_rng(5)
    m = as_embeddings(rng.standard_normal((24, 4)))
    out = batch_means(m, BatchConfig(batch_size=6, shuffle=True, seed=9))
    np.testing.assert_allclose(out.mean(axis=0), m.mean(axis=0), atol=1e-6)


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(batch_size=0)
    with pytest.raises(ValueError):
        BatchConfig(tail_policy="pad")
