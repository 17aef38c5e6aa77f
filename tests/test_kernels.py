import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from driftscan import kernels
from driftscan.embeddings import DegenerateInputError, EmbeddingMatrix, ValidationError
from driftscan.kernels import (
    KernelSpec,
    kernel_matrix,
    median_heuristic_bandwidth,
    resolve_bandwidth,
)
from oracle import kernel_value

RBF = KernelSpec("rbf", 1.0)
LINEAR = KernelSpec("linear")

# kept within the regime where exp(-d^2 / (2 bw^2)) cannot underflow to 0
vectors = st.lists(st.floats(-6.0, 6.0, allow_nan=False), min_size=1, max_size=8)


def test_rbf_same_point_is_one():
    x = np.array([0.3, -1.2, 4.0])
    assert kernel_value(RBF, 7.5, x, x) == 1.0


def test_linear_orthogonal_to_zero():
    assert kernel_value(LINEAR, None, np.zeros(2), np.ones(2)) == 0.0


def test_rbf_closed_form_unit_gap():
    # exp(-(1-0)^2 / (2*1^2)) evaluated independently
    got = kernel_value(RBF, 1.0, np.array([0.0]), np.array([1.0]))
    assert got == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_dimension_mismatch_is_usage_error():
    with pytest.raises(ValueError, match="equal length"):
        kernel_value(RBF, 1.0, np.zeros(2), np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(vectors, st.floats(1.0, 100.0))
def test_rbf_symmetric_bounded(vals, bw):
    x = np.array(vals)
    y = x[::-1].copy()
    kxy = kernel_value(RBF, bw, x, y)
    kyx = kernel_value(RBF, bw, y, x)
    assert kxy == kyx
    assert 0.0 < kxy <= 1.0
    assert kernel_value(RBF, bw, x, x) == 1.0


@settings(max_examples=60, deadline=None)
@given(vectors, st.floats(-5.0, 5.0))
def test_linear_scales_in_first_argument(vals, a):
    x = np.array(vals)
    y = x + 1.0
    assert kernel_value(LINEAR, None, a * x, y) == pytest.approx(
        a * kernel_value(LINEAR, None, x, y), rel=1e-9, abs=1e-9
    )
    assert kernel_value(LINEAR, None, x, y) == kernel_value(LINEAR, None, y, x)


def test_median_heuristic_three_points():
    # rows {0, 1, 3}: pairwise distances {1, 2, 3}, median 2
    m = EmbeddingMatrix.from_array([[0.0], [1.0], [3.0]])
    assert median_heuristic_bandwidth(m) == 2.0


def test_median_heuristic_duplicate_rows():
    # rows {5, 5, 9}: distances {0, 4, 4}, median 4
    m = EmbeddingMatrix.from_array([[5.0], [5.0], [9.0]])
    assert median_heuristic_bandwidth(m) == 4.0


def test_median_heuristic_even_count_takes_lower_middle():
    # rows {0, 1, 3, 7}: distances sorted [1, 2, 3, 4, 6, 7], lower middle 3
    m = EmbeddingMatrix.from_array([[0.0], [1.0], [3.0], [7.0]])
    assert median_heuristic_bandwidth(m) == 3.0


def test_median_heuristic_single_row_degenerate():
    with pytest.raises(DegenerateInputError):
        median_heuristic_bandwidth(EmbeddingMatrix.from_array([[1.0, 2.0]]))


def test_median_heuristic_identical_rows_degenerate():
    m = EmbeddingMatrix.from_array([[1.0, 1.0]] * 4)
    with pytest.raises(DegenerateInputError):
        median_heuristic_bandwidth(m)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3), min_size=2, max_size=10))
def test_median_heuristic_permutation_invariant(rows):
    m = np.array(rows)
    if m.shape[0] < 2:
        return
    try:
        base = median_heuristic_bandwidth(m)
    except DegenerateInputError:
        return
    shuffled = m[np.random.default_rng(0).permutation(m.shape[0])]
    assert median_heuristic_bandwidth(shuffled) == base


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", "med")
    KernelSpec("rbf", "median-window")  # valid


def test_kernel_matrix_matches_kernel_value():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal((5, 3))
    for spec, bw in ((RBF, 0.9), (LINEAR, None)):
        km = kernel_matrix(spec, bw, x, y)
        for i in range(4):
            for j in range(5):
                assert km[i, j] == pytest.approx(kernel_value(spec, bw, x[i], y[j]), rel=1e-12)


def test_resolve_bandwidth_policies():
    m = np.array([[0.0], [1.0], [3.0]])
    assert resolve_bandwidth(KernelSpec("rbf", "median"), m) == 2.0
    assert resolve_bandwidth(KernelSpec("rbf", 0.5), m) == 0.5
    assert resolve_bandwidth(LINEAR, m) is None


# --- the blockwise median of large inputs ----------------------------------


def _pdist_lower_median(x) -> float:
    d = pdist(np.asarray(x, dtype=np.float64), "euclidean")
    k = (d.size - 1) // 2
    return float(np.partition(d, k)[k])


def _count_passes(monkeypatch) -> list:
    passes = []
    real = kernels._count_and_keep

    def counted(*args):
        passes.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(kernels, "_count_and_keep", counted)
    return passes


def _medians_by_workers(x, monkeypatch) -> list:
    # the pass with 1, 2 and 3 worker threads; each layout of its blocks
    # must give the same bits
    medians = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
        medians.append(median_heuristic_bandwidth(x))
    return medians


def _rows_for_pairs(pairs: int) -> int:
    # the most rows whose n(n-1)/2 pairs fit in ``pairs``
    n = math.isqrt(2 * pairs) + 1
    while n * (n - 1) // 2 > pairs:
        n -= 1
    return n


@pytest.mark.parametrize("side", ["one-pdist", "blockwise"])
def test_median_either_side_of_the_block_threshold_matches_pdist(side, monkeypatch):
    n = _rows_for_pairs(kernels.BLOCK_DISTANCES) + (side == "blockwise")
    x = np.random.default_rng(21).standard_normal((n, 4))
    passes = _count_passes(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert len(passes) == (0 if side == "one-pdist" else 1)


def _tied_rows(n, rng):
    # rows on three points of a line: every distance is 0, 1, 2 or 3
    return rng.choice([0.0, 1.0, 3.0], size=(n, 1))


def _drift_rows(n, rng):
    half = n // 2
    return np.vstack([rng.standard_normal((half, 3)), rng.standard_normal((n - half, 3)) + 3.0])


def _float32_rows(n, rng):
    return EmbeddingMatrix.from_array(rng.standard_normal((n, 5)) * 1e3)


@pytest.mark.parametrize("make", [_tied_rows, _drift_rows, _float32_rows])
def test_blockwise_median_is_exact(make, monkeypatch):
    # small blocks, so that many block offsets and a partial last block occur
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    monkeypatch.setattr(kernels, "BRACKET_SAMPLE_ROWS", 40)
    x = make(301, np.random.default_rng(22))
    ref = _pdist_lower_median(x.values if isinstance(x, EmbeddingMatrix) else x)
    if make is _tied_rows:  # the target rank sits inside a run of equal distances
        d = np.sort(pdist(x))
        k = (d.size - 1) // 2
        assert d[k - 1] == d[k] == d[k + 1]
    passes = _count_passes(monkeypatch)
    assert _medians_by_workers(x, monkeypatch) == [ref] * 3
    assert len(passes) >= 3


def test_blockwise_median_when_the_bracket_starts_at_zero(monkeypatch):
    # 210 of 301 rows are the origin, so 48.6% of the distances are 0 and the
    # median lies just above them: the first bracket misses high of it and
    # the second starts at 0, where the masked pairs j <= i must not count
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    monkeypatch.setattr(kernels, "BRACKET_SAMPLE_ROWS", 40)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((301, 3)) + 5.0
    x[rng.permutation(301)[:210]] = 0.0
    passes = _count_passes(monkeypatch)
    assert _medians_by_workers(x, monkeypatch) == [_pdist_lower_median(x)] * 3
    assert passes[-1][0] == 0.0


def test_blockwise_median_after_a_bracket_miss(monkeypatch):
    # every other row is the origin, so the strided sample of rows is one
    # point, its distances are all 0, and the first bracket [0, 0] misses
    x = np.random.default_rng(23).standard_normal((4096, 3))
    x[::2] = 0.0
    passes = _count_passes(monkeypatch)
    assert _medians_by_workers(x, monkeypatch) == [_pdist_lower_median(x)] * 3
    assert passes[0] == (0.0, 0.0)
    assert len(passes) >= 6


@pytest.mark.parametrize("seed", range(6))
def test_blockwise_median_with_tiny_blocks_and_misses(seed, monkeypatch):
    # a zero margin makes the first bracket one or two adjacent sampled
    # values, which miss unless the median is among them
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", int(rng.integers(60, 600)))
    monkeypatch.setattr(kernels, "BRACKET_SAMPLE_ROWS", int(rng.integers(3, 30)))
    monkeypatch.setattr(kernels, "BRACKET_MARGIN", 0.0 if seed % 2 else 0.03)
    x = rng.standard_normal((int(rng.integers(40, 160)), int(rng.integers(1, 4))))
    assert _medians_by_workers(x, monkeypatch) == [_pdist_lower_median(x)] * 3


@pytest.mark.parametrize("workers", [1, 3])
def test_blockwise_workers_share_the_distance_budget(workers, monkeypatch):
    # each worker's block holds at most BLOCK_DISTANCES // workers distances,
    # so the blocks in flight together hold at most BLOCK_DISTANCES
    from scipy.spatial import distance

    sizes = []
    real = distance.cdist
    monkeypatch.setattr(distance, "cdist", lambda a, b, metric: sizes.append(len(a) * len(b)) or real(a, b, metric))
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 6000)
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: workers)
    x = np.random.default_rng(25).standard_normal((400, 3))
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert 6000 // workers - 400 < max(sizes) <= 6000 // workers


def test_blockwise_median_of_mostly_identical_rows_is_degenerate(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 500)
    x = np.zeros((120, 2))
    x[-1] = 1.0
    with pytest.raises(DegenerateInputError):
        median_heuristic_bandwidth(x)


@pytest.mark.parametrize("block", [10**6, 500])
def test_median_heuristic_rejects_non_finite_values(block, monkeypatch):
    # one pdist, or blocks; a NaN distance lies in no bracket, so without
    # the check the blockwise search would never end
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", block)
    x = np.random.default_rng(24).standard_normal((120, 2))
    x[7, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        median_heuristic_bandwidth(x)
