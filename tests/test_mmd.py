import importlib

import numpy as np
import pytest

from driftscan.embeddings import ValidationError, as_embeddings
from driftscan.kernels import KernelSpec, kernel_matrix
from driftscan.mmd import mmd, mmd_sq_from_gram, mmd_value
from oracle import mmd_oracle

RBF_FIXED = KernelSpec("rbf", 1.0)
LINEAR = KernelSpec("linear")


def random_matrix(rng, rows, dims):
    return as_embeddings(rng.standard_normal((rows, dims)))


def assert_close_to_oracle(fast, oracle):
    if abs(oracle) < 1e-2:
        assert fast == pytest.approx(oracle, abs=1e-12)
    else:
        assert fast == pytest.approx(oracle, rel=1e-10)


def test_identical_samples_biased_is_exactly_zero():
    m = random_matrix(np.random.default_rng(0), 10, 4)
    assert mmd(RBF_FIXED, m, m, "biased") == (0.0, 1.0)
    assert mmd_oracle(RBF_FIXED, m, m, "biased")[0] == 0.0


def test_linear_hand_example():
    # within q1: all k((0),(0)) = 0; within q2: all k((1),(1)) = 1; cross: 0
    q1 = as_embeddings([[0.0], [0.0]])
    q2 = as_embeddings([[1.0], [1.0]])
    for estimator in ("biased", "unbiased"):
        assert mmd(LINEAR, q1, q2, estimator) == (1.0, None)
    assert mmd_oracle(LINEAR, q1, q2, "biased") == (1.0, None)


def test_oracle_agreement_seeded_instances():
    # smaller sibling of the acceptance run, covering every kernel/estimator combo
    rng = np.random.default_rng(42)
    kernels = (KernelSpec("rbf", "median"), LINEAR)
    estimators = ("biased", "unbiased")
    for i in range(12):
        rows1, rows2 = rng.integers(2, 20, size=2)
        dims = int(rng.integers(1, 8))
        q1 = random_matrix(rng, int(rows1), dims)
        q2 = random_matrix(rng, int(rows2), dims)
        spec = kernels[i % 2]
        estimator = estimators[(i // 2) % 2]
        fast, fast_bandwidth = mmd(spec, q1, q2, estimator)
        slow, slow_bandwidth = mmd_oracle(spec, q1, q2, estimator)
        assert_close_to_oracle(fast, slow)
        assert fast_bandwidth == slow_bandwidth


def test_symmetry_is_exact():
    rng = np.random.default_rng(5)
    q1 = random_matrix(rng, 9, 3)
    q2 = random_matrix(rng, 13, 3)
    for spec in (RBF_FIXED, LINEAR):
        for estimator in ("biased", "unbiased"):
            a = mmd(spec, q1, q2, estimator)[0]
            b = mmd(spec, q2, q1, estimator)[0]
            assert a == b


def test_row_permutation_invariance():
    rng = np.random.default_rng(6)
    q1 = random_matrix(rng, 12, 4)
    q2 = random_matrix(rng, 15, 4)
    base = mmd(RBF_FIXED, q1, q2, "biased")[0]
    perm = rng.permutation(12)
    shuffled = as_embeddings(q1[perm])
    assert mmd(RBF_FIXED, shuffled, q2, "biased")[0] == pytest.approx(base, rel=1e-12, abs=1e-15)


def test_biased_nonnegative_and_rbf_bounded():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q1 = random_matrix(rng, int(rng.integers(1, 20)), 3)
        q2 = random_matrix(rng, int(rng.integers(1, 20)), 3)
        sq = mmd(RBF_FIXED, q1, q2, "biased")[0]
        assert sq >= -1e-12
        assert sq <= 2.0


def test_unbiased_can_go_negative():
    rng = np.random.default_rng(8)
    seen_negative = False
    for i in range(50):
        q1 = random_matrix(rng, 6, 2)
        q2 = random_matrix(rng, 6, 2)
        if mmd(RBF_FIXED, q1, q2, "unbiased")[0] < 0:
            seen_negative = True
            break
    assert seen_negative


def test_value_is_sqrt_of_clamped_squared():
    rng = np.random.default_rng(9)
    q1 = random_matrix(rng, 8, 2)
    q2 = random_matrix(rng, 8, 2)
    squared, _ = mmd(RBF_FIXED, q1, q2, "unbiased")
    assert mmd_value(squared) == np.sqrt(max(0.0, squared))
    assert (mmd_value(-1e-3), mmd_value(0.25)) == (0.0, 0.5)


def test_unbiased_needs_two_rows():
    one = as_embeddings([[1.0]])
    two = as_embeddings([[1.0], [2.0]])
    with pytest.raises(ValidationError):
        mmd(RBF_FIXED, one, two, "unbiased")
    mmd(RBF_FIXED, one, two, "biased")  # fine


def test_dimension_mismatch_rejected():
    a = as_embeddings([[1.0, 2.0]])
    b = as_embeddings([[1.0]])
    with pytest.raises(ValidationError, match="dimension"):
        mmd(RBF_FIXED, a, b, "biased")


def test_samples_over_the_memory_limit_are_refused_before_any_kernel_work(monkeypatch):
    # 6 and 5 rows need (6 + 5)**2 = 121 Gram entries: both within blocks,
    # the cross block and its transposed copy. The limit is patched small,
    # so that no large array is built
    module = importlib.import_module("driftscan.mmd")  # the package's ``mmd`` is the function
    rng = np.random.default_rng(10)
    q1, q2 = random_matrix(rng, 6, 2), random_matrix(rng, 5, 2)
    monkeypatch.setattr(module, "WINDOW_NUMBERS", 121)
    assert mmd(RBF_FIXED, q1, q2, "biased")[0] > 0.0  # at the limit
    monkeypatch.setattr(module, "WINDOW_NUMBERS", 120)
    calls = []
    monkeypatch.setattr(module, "resolve_bandwidth", lambda *a: calls.append(a))
    monkeypatch.setattr(module, "kernel_matrix", lambda *a: calls.append(a))
    with pytest.raises(ValidationError, match="MMD of 6 and 5 rows"):
        mmd(KernelSpec("rbf", "median"), q1, q2, "biased")
    assert calls == []


def test_unknown_estimator_rejected():
    m = as_embeddings([[1.0], [2.0]])
    with pytest.raises(ValueError, match="estimator"):
        mmd(RBF_FIXED, m, m, "vstat")


def test_pooled_gram_slices_match_direct_mmd():
    # the bootstrap path reduces slices of one pooled Gram matrix; it must
    # agree with mmd() on the materialized rows
    rng = np.random.default_rng(11)
    pool = random_matrix(rng, 24, 5)
    pool64 = pool.astype(np.float64)
    for spec, bw in ((RBF_FIXED, 1.0), (LINEAR, None)):
        gram = kernel_matrix(spec, bw, pool64, pool64)
        for estimator in ("biased", "unbiased"):
            for trial in range(5):
                idx = rng.integers(0, 24, size=24)
                b1, b2 = idx[:12], idx[12:]
                sliced = mmd_sq_from_gram(
                    gram[np.ix_(b1, b1)], gram[np.ix_(b2, b2)], gram[np.ix_(b1, b2)], estimator
                )
                direct = mmd(
                    spec,
                    as_embeddings(pool[b1]),
                    as_embeddings(pool[b2]),
                    estimator,
                    bandwidth=bw,
                )[0]
                assert sliced == direct
