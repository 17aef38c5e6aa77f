import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from driftscan import kernels
from driftscan.embeddings import DegenerateInputError, ValidationError, as_embeddings
from driftscan.kernels import (
    KernelSpec,
    kernel_matrix,
    median_heuristic_bandwidth,
    resolve_bandwidth,
)
from oracle import kernel_value
from peak_rss import HAS_PROC_STATUS, peak_rise_mb

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
    m = as_embeddings([[0.0], [1.0], [3.0]])
    assert median_heuristic_bandwidth(m) == 2.0


def test_median_heuristic_duplicate_rows():
    # rows {5, 5, 9}: distances {0, 4, 4}, median 4
    m = as_embeddings([[5.0], [5.0], [9.0]])
    assert median_heuristic_bandwidth(m) == 4.0


def test_median_heuristic_even_count_takes_lower_middle():
    # rows {0, 1, 3, 7}: distances sorted [1, 2, 3, 4, 6, 7], lower middle 3
    m = as_embeddings([[0.0], [1.0], [3.0], [7.0]])
    assert median_heuristic_bandwidth(m) == 3.0


def test_median_heuristic_single_row_degenerate():
    with pytest.raises(DegenerateInputError):
        median_heuristic_bandwidth(as_embeddings([[1.0, 2.0]]))


def test_median_heuristic_identical_rows_degenerate():
    m = as_embeddings([[1.0, 1.0]] * 4)
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
    for bandwidth in (True, False):  # a bool is an int to isinstance, but no bandwidth
        with pytest.raises(ValueError, match="positive finite number"):
            KernelSpec("rbf", bandwidth)
    for bandwidth in (1e-200, 1e160, 10**200):  # the divisor -2 * bandwidth**2 would be -0.0 or -inf
        with pytest.raises(ValueError, match="finite and nonzero"):
            KernelSpec("rbf", bandwidth)
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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 70), st.integers(1, 70), st.integers(1, 130), st.integers(-150, 150), st.integers(0, 300),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_distances_are_scipys_bits(n, m, d, exponent, spread, via_float32, seed):
    # scipy is the oracle: the Gram's squared distances must be cdist's and
    # the pairs' distances pdist's, bit for bit. Each value is 10**e times a
    # standard normal, e spread around ``exponent`` within 1e-150..1e150; the
    # loaders' float32 values (about 1e-30..1e30 here) round through float32
    rng = np.random.default_rng(seed)
    if via_float32:
        exponent, spread = min(max(exponent, -20), 20), 10
    lo, hi = max(-150, exponent - spread), min(150, exponent + spread)
    x, y = (rng.standard_normal((rows, d)) * 10.0 ** rng.integers(lo, hi + 1, size=(rows, d)) for rows in (n, m))
    if via_float32:
        x, y = (v.astype(np.float32).astype(np.float64) for v in (x, y))
    gram = kernels._squared_distances(zip(x.T[:, :, None], y.T), np.empty((n, m)))
    np.testing.assert_array_equal(gram, cdist(x, y, "sqeuclidean"), strict=True)
    i, j = np.triu_indices(n, 1)
    pairs = kernels._pair_distances(np.ascontiguousarray(x.T), i, j, np.empty(i.size))
    np.testing.assert_array_equal(np.sqrt(pairs), pdist(x, "euclidean"), strict=True)


def test_rbf_kernel_matrix_is_the_exp_of_cdist_in_any_row_steps(monkeypatch):
    # the Gram is summed a few rows at a time; each step must give the bits
    # of one cdist
    x, y = np.random.default_rng(4).standard_normal((2, 90, 7))
    expected = np.exp(cdist(x, y, "sqeuclidean") / (-2.0 * 0.7 * 0.7))
    for seen in (kernels.SEEN_DISTANCES, 1000, 1):
        monkeypatch.setattr(kernels, "SEEN_DISTANCES", seen)
        np.testing.assert_array_equal(kernel_matrix(RBF, 0.7, x, y), expected, strict=True)


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
        passes.append(args[1:3])  # lo, hi
        return real(*args)

    monkeypatch.setattr(kernels, "_count_and_keep", counted)
    return passes


def _measured_pairs(monkeypatch) -> list:
    # the row indices (i, j) of each exact measurement of pairs: the first
    # bracket's sample, then the near pairs
    calls = []
    real = kernels._pair_distances
    monkeypatch.setattr(kernels, "_pair_distances", lambda xt, i, j, out: calls.append((i, j)) or real(xt, i, j, out))
    return calls


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


def _sampled_median_by_hand(x) -> float:
    # the lower median of the distances of MEDIAN_SAMPLE_PAIRS pairs from
    # default_rng(0), each summed over the columns in order, as pdist sums
    m = kernels.MEDIAN_SAMPLE_PAIRS
    i, j = np.random.default_rng(0).integers(0, [[len(x)], [len(x) - 1]], size=(2, m))
    j += j >= i
    squares = np.zeros(m)
    for column in np.asarray(x, dtype=np.float64).T:
        t = column[i] - column[j]
        squares += t * t
    return float(np.sort(np.sqrt(squares))[(m - 1) // 2])


@pytest.mark.parametrize("side", ["blockwise", "sampled"])
def test_median_either_side_of_the_exact_threshold(side, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    monkeypatch.setattr(kernels, "EXACT_PAIRS", 1 << 16)
    x = np.random.default_rng(34).standard_normal((_rows_for_pairs(1 << 16) + (side == "sampled"), 4))
    passes = _count_passes(monkeypatch)
    want = _sampled_median_by_hand(x) if side == "sampled" else _pdist_lower_median(x)
    assert median_heuristic_bandwidth(x) == want
    assert len(passes) == (0 if side == "sampled" else 1)


@pytest.mark.parametrize("shift", [0.0, 4.0], ids=["normal", "two-class"])
def test_sampled_median_of_a_large_pool(shift, monkeypatch):
    # a pool over EXACT_PAIRS pairs takes the lower median of a fixed sample
    # of pairs, summed in numpy with no BLAS product. Its rank among all the
    # distances errs by about sqrt(1 / 4m) = 0.001 for m = 2**18 pairs,
    # about 2.4e-4 relative for 64-d normal rows
    monkeypatch.setattr(kernels, "EXACT_PAIRS", 1 << 16)
    x = np.random.default_rng(35).standard_normal((600, 64))
    x[:240, 0] += shift
    products = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: products.append(a.shape) or real(a, b))
    got = median_heuristic_bandwidth(x)
    assert products == []
    assert got == _sampled_median_by_hand(x)
    d = np.sort(pdist(x))
    assert abs(np.searchsorted(d, got) / d.size - 0.5) < 5 * math.sqrt(1 / (4 * kernels.MEDIAN_SAMPLE_PAIRS))
    assert got == pytest.approx(_pdist_lower_median(x), rel=1e-3)


def _tied_rows(n, rng):
    # rows on three points of a line: every distance is 0, 1, 2 or 3
    return rng.choice([0.0, 1.0, 3.0], size=(n, 1))


def _drift_rows(n, rng):
    half = n // 2
    return np.vstack([rng.standard_normal((half, 3)), rng.standard_normal((n - half, 3)) + 3.0])


def _float32_rows(n, rng):
    return as_embeddings(rng.standard_normal((n, 5)) * 1e3)


def _offset_rows(n, rng):
    # |x|^2 + |y|^2 - 2 x.y of rows 1e6 from the origin cancels to noise
    # unless the rows are centred first
    return rng.standard_normal((n, 4)) + 1e6


def _outlier_rows(n, rng):
    # one row far from the rest: its bound is vast, and must widen no other
    # pair's
    x = rng.standard_normal((n, 4))
    x[n // 3] = 1e5
    return x


def _far_cluster_rows(n, rng):
    # a fifth of the rows 1e7 away: their bounds dwarf the distances near
    # the median, and only the exact sums keep those apart
    x = rng.standard_normal((n, 4))
    x[: n // 5, 0] += 1e7
    return x


def _near_cluster_rows(n, rng):
    # a fifth of the rows 1e4 away: their blocks' bounds are wider than the
    # other rows', and must stay their own
    x = rng.standard_normal((n, 4))
    x[: n // 5, 0] += 1e4
    return x


def _three_point_rows(n, rng):
    # rows within 1e-6 of three points: the origin, and two 100 from it and 1
    # apart. The median lies among the distances of about 1, while the
    # bracket reaches those of 100
    points = np.array([[0.0, 0.0, 0.0, 0.0], [100.0, 0.0, 0.0, 0.0], [100.0, 1.0, 0.0, 0.0]])
    return points[rng.choice(3, size=n, p=[0.6, 0.2, 0.2])] + 1e-6 * rng.standard_normal((n, 4))


def _subnormal_square_rows(n, rng):
    # squares below float64's smallest normal number
    return rng.standard_normal((n, 4)) * 1e-160


def _two_far_cluster_rows(n, rng):
    # two halves 2e8 apart on axis 0: every row is 1e8 from the centre, and
    # the median is among the cross distances, which differ by about 1e-8
    # of their size, so the kept values must keep them apart
    x = rng.standard_normal((n, 4))
    x[:, 0] += np.where(np.arange(n) < n // 2, -1e8, 1e8)
    return x


def _huge_rows(n, rng):
    return rng.standard_normal((n, 4)) * 1e30


def _small_rows(n, rng):
    return rng.standard_normal((n, 4)) * 1e-30


def _lattice_rows(n, rng):
    # small integer rows: long runs of equal distances, one of them at rank
    # k, whose pairs all fall in the near set
    return rng.integers(0, 3, size=(n, 4)).astype(np.float64)


def _near_duplicate_rows(n, rng):
    # copies of five points, each moved by about 1e-9: the distances come in
    # five clusters far narrower than the bracket, ordered only by the exact sums
    return rng.standard_normal((5, 3))[rng.integers(0, 5, size=n)] + 1e-9 * rng.standard_normal((n, 3))


def _one_dim_rows(n, rng):
    return rng.standard_normal((n, 1))


def _wide_rows(n, rng):
    return rng.standard_normal((n, 256))


@pytest.mark.parametrize("make", [_tied_rows, _drift_rows, _float32_rows, _offset_rows, _outlier_rows,
                                  _far_cluster_rows, _near_cluster_rows, _three_point_rows, _subnormal_square_rows,
                                  _huge_rows, _small_rows, _lattice_rows, _near_duplicate_rows, _one_dim_rows,
                                  _wide_rows])
def test_blockwise_median_is_exact(make, monkeypatch):
    # small blocks, so that many block offsets and a partial last block
    # occur, and a small sample of pairs, so that brackets miss
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    monkeypatch.setattr(kernels, "SAMPLE_PAIRS", 780)
    x = make(301, np.random.default_rng(22))
    ref = _pdist_lower_median(x)
    if make in (_tied_rows, _lattice_rows):  # the target rank sits inside a run of equal distances
        d = np.sort(pdist(x))
        k = (d.size - 1) // 2
        assert d[k - 1] == d[k] == d[k + 1]
    passes = _count_passes(monkeypatch)
    assert median_heuristic_bandwidth(x) == ref
    assert len(passes) >= 1


@pytest.mark.parametrize("seed", range(6))
def test_blockwise_median_of_subnormal_squares_is_exact(seed, monkeypatch):
    # pdist rounds each square of these rows on float64's subnormal grid,
    # far coarser, in the pass's scaled unit, than the product's own error:
    # bounds floored only for the product's underflow give another distance
    # on seeds 0 and 5
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    monkeypatch.setattr(kernels, "SAMPLE_PAIRS", 780)
    x = _subnormal_square_rows(301, np.random.default_rng(seed))
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)


def test_blockwise_median_when_the_bracket_starts_at_zero(monkeypatch):
    # 210 of 301 rows are the origin, so 48.6% of the distances are 0 and the
    # median lies just above them: the bracket starts at a squared distance
    # of 0, where the masked pairs j <= i must not count
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((301, 3)) + 5.0
    x[rng.permutation(301)[:210]] = 0.0
    passes = _count_passes(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert passes[-1][0] == 0.0


def test_blockwise_median_after_a_bracket_miss(monkeypatch):
    # the rows of the 64 sampled pairs are the origin, so their squared
    # distances are all 0 and the first bracket [0, 0] misses. The sample
    # depends on the row count alone, so a first median learns its rows
    monkeypatch.setattr(kernels, "SAMPLE_PAIRS", 64)
    x = np.random.default_rng(23).standard_normal((4096, 3))
    measured = _measured_pairs(monkeypatch)
    median_heuristic_bandwidth(x)
    x[np.concatenate(measured[0])] = 0.0
    passes = _count_passes(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert passes[0] == (0.0, 0.0)
    assert len(passes) >= 2


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_blockwise_median_when_the_near_set_reaches_past_the_bracket(seed, monkeypatch):
    # integer rows, whose squared distances come in long runs of equal
    # values, and a zero margin, so the first bracket is the exact squared
    # median alone. The far-cluster approximations near it err by about
    # 0.03, so the pairs that may hold the answer reach past any bracket
    # that hits, and a pass on a bracket around them must follow
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 997)
    monkeypatch.setattr(kernels, "BRACKET_MARGIN", 0.0)
    x = _lattice_rows(301, np.random.default_rng(seed))
    x[: 301 // 5, 0] += 1e7
    passes = _count_passes(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    squares = np.sort(pdist(x, "sqeuclidean"))
    # the pass's unit is a squared distance times 4**e, set as the pass sets it
    c = x - np.partition(x.T, 301 // 2, axis=1)[:, 301 // 2]
    e = min(511, -math.frexp(np.abs(c).max())[1] - ((x.shape[1] - 1).bit_length() + 1) // 2)
    assert passes[0] == (squares[(squares.size - 1) // 2] * 4.0**e,) * 2
    assert len(passes) >= 2


@pytest.mark.parametrize("seed", range(6))
def test_blockwise_median_with_tiny_blocks_and_misses(seed, monkeypatch):
    # a zero margin makes the first bracket one or two adjacent sampled
    # values, which miss unless the median is among them
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", int(rng.integers(60, 600)))
    monkeypatch.setattr(kernels, "SAMPLE_PAIRS", int(rng.integers(3, 435)))
    monkeypatch.setattr(kernels, "BRACKET_MARGIN", 0.0 if seed % 2 else 0.03)
    x = rng.standard_normal((int(rng.integers(40, 160)), int(rng.integers(1, 4))))
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)


def test_blockwise_products_hold_at_most_the_distance_budget(monkeypatch):
    # each block's products fill one array of at most BLOCK_DISTANCES
    # approximations; every product writes a tile of it, whose base is
    # that array
    sizes = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: sizes.append(kwargs["out"].base.size) or real(*args, **kwargs))
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 6000)
    x = np.random.default_rng(25).standard_normal((400, 3))
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert 6000 - 400 < max(sizes) <= 6000


@pytest.mark.parametrize("shape", [(4000, 8), (2100, 300)])
def test_blockwise_products_run_on_one_blas_thread(shape, monkeypatch):
    # OpenBLAS threads a GEMM whose m n k passes 65536 times its
    # GEMM_MULTITHREAD_THRESHOLD, 4 by default, and numpy issues one GEMM a
    # slice of a stacked product. scan-dense pools 4000 rows of 8 columns;
    # with 300 columns one row's product, 302 x 2100, passes it alone
    products = []
    real = np.matmul

    def spy(a, b, **kwargs):
        products.append((*a.shape[-2:], b.shape[-1], a.ndim))  # m, k, n of each slice
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    x = np.random.default_rng(32).standard_normal(shape)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    mnk = [m * k * n for m, k, n, _ in products]
    assert 65536 * 2 < max(mnk) <= 65536 * 4
    # stacked tiles, and a block whose rows leave a remainder to the last product
    assert {ndim for m, *_, ndim in products if m} == {2, 3}


def test_blockwise_median_runs_on_the_calling_thread(monkeypatch):
    # the pass tiles its products so that BLAS runs each on the calling
    # thread (about 0.075 s at CPU equal to wall on scan-dense's pool), and it
    # starts no thread pool of its own
    import concurrent.futures

    pools = []
    real = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda *a, **kw: pools.append(a) or real(*a, **kw))
    x = np.random.default_rng(31).standard_normal((_rows_for_pairs(kernels.BLOCK_DISTANCES) + 1, 4))
    passes = _count_passes(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert len(passes) >= 1
    assert pools == []


#: 2100 seeded rows (2.2M pairs) of ``dims`` columns, a fifth of them 1e4
#: away, so that the pass has blocks of wide bounds and blocks of narrow ones
_BLAS_ROWS = """
import numpy as np
x = np.random.default_rng(26).standard_normal((2100, {dims})) + 100.0
x[:420, 0] += 1e4
"""
#: a child that prints their blockwise median from tiled products, then
#: from one product a block, which BLAS threads where it may, then their
#: sampled one
_BLAS_CHILD = _BLAS_ROWS + """
from driftscan import kernels
print(repr(kernels.median_heuristic_bandwidth(x)))
kernels.ONE_THREAD_PRODUCT = 1 << 62
print(repr(kernels.median_heuristic_bandwidth(x)))
kernels.EXACT_PAIRS = 1 << 16
print(repr(kernels.median_heuristic_bandwidth(x)))
"""


def test_blockwise_median_is_the_same_bits_for_any_blas_threads(monkeypatch):
    # BLAS picks its own summation order for each thread count and product
    # shape; it may move the approximations, never the answer. The pass's
    # products are all float64, and the sampled median takes no BLAS
    # product at all. Untiled, a block's product is threaded; with 300
    # columns even one row's, 302 x 2100, is past what OpenBLAS runs on one
    # thread
    dtypes = set()
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: dtypes.add(args[0].dtype) or real(*args, **kwargs))
    knobs = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: value for key, value in os.environ.items() if key not in knobs}
    env["PYTHONPATH"] = str(Path(kernels.__file__).resolve().parents[1])
    for dims in (16, 300):
        rows = {}
        exec(_BLAS_ROWS.format(dims=dims), rows)
        x = rows["x"]
        assert x.shape[0] * (x.shape[0] - 1) // 2 > kernels.BLOCK_DISTANCES
        median_heuristic_bandwidth(x)
        assert dtypes == {np.dtype(np.float64)}
        printed = []
        for threads in ({}, dict.fromkeys(knobs, "1")):
            proc = subprocess.run([sys.executable, "-c", _BLAS_CHILD.format(dims=dims)], env={**env, **threads},
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout.split())
        exact = repr(_pdist_lower_median(x))
        assert printed == [[exact, exact, repr(_sampled_median_by_hand(x))]] * 2


#: a child's setup for a median of ``x``: one BLAS thread, so that its
#: buffers are the same on any machine, and small blocks, so that on the
#: blockwise pass the kept pairs set the peak
_PEAK_SETUP = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"
import numpy as np
from driftscan import kernels
kernels.BLOCK_DISTANCES = 1 << 16
{rows}
kernels.median_heuristic_bandwidth(x[:100])  # lazy imports
"""


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
def test_blockwise_median_holds_each_kept_pair_once():
    # 16000 rows keep about 7.7M of their 128M pairs (2 * BRACKET_MARGIN of
    # them): an 8-byte value and a 4-byte offset each, and 8 bytes more for
    # the partition of their bounds, plus 30 MB for the interpreter's and
    # BLAS's own. Measured at 146 MB on a 2-core box; a second float64 copy
    # of the kept values would take about 205 MB
    pairs = 16000 * 15999 // 2
    setup = _PEAK_SETUP.format(rows="kernels.EXACT_PAIRS = 1 << 27  # keeps these 128M pairs exact\n"
                                    "x = np.random.default_rng(27).standard_normal((16000, 2))")
    rise_mb = peak_rise_mb(setup, "kernels.median_heuristic_bandwidth(x)")
    assert rise_mb < 20 * 2 * kernels.BRACKET_MARGIN * pairs / 2**20 + 30, f"peak {rise_mb:.1f} MB"


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
@pytest.mark.parametrize("far", [1e8, 1e12, 1e30])
def test_blockwise_median_beside_a_far_outlier_holds_less_than_its_distances(far):
    # one far row, whose error bound dwarfs the median, must widen only its
    # own pairs' bounds, or every pair is held near the median. Measured at
    # 12 MB on a 2-core box, under the 8 bytes a pair of pdist's vector
    pairs = 3001 * 3000 // 2
    setup = _PEAK_SETUP.format(rows=f"x = np.random.default_rng(29).standard_normal((3001, 2))\nx[1500] = {far!r}")
    rise_mb = peak_rise_mb(setup, "kernels.median_heuristic_bandwidth(x)")
    assert rise_mb < 8 * pairs / 2**20, f"peak {rise_mb:.1f} MB"


@pytest.mark.skipif(not HAS_PROC_STATUS, reason="needs /proc/self/status for the child's own peak RSS")
def test_sampled_median_beside_a_1e30_row_holds_a_few_mb():
    # 8000 rows have 32M pairs, over EXACT_PAIRS, so the median is of a fixed
    # sample of pairs, a few MB for any rows. On the blockwise pass the 1e30
    # row sent almost every other pair to exact measurement: about 660 MB
    setup = _PEAK_SETUP.format(rows="x = np.random.default_rng(36).standard_normal((8000, 8))\nx[4000] = 1e30")
    rise_mb = peak_rise_mb(setup, "kernels.median_heuristic_bandwidth(x)")
    assert rise_mb < 64, f"peak {rise_mb:.1f} MB"


@pytest.mark.parametrize("far", [1e8, 1e10, 1e12, 1e30])
def test_blockwise_median_beside_a_far_outlier_measures_few_pairs(far, monkeypatch):
    # at the default block size, the outlier's block must not widen the
    # bounds of the rows that share it, or they all reach the median; nor
    # may it move the centre the other rows' bounds are measured from
    x = np.random.default_rng(29).standard_normal((3001, 2))
    x[1500] = far
    measured = _measured_pairs(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert measured[0][0].size == kernels.SAMPLE_PAIRS
    assert 0 < sum(i.size for i, _ in measured[1:]) < 1000


@pytest.mark.parametrize("make, most", [pytest.param(_near_cluster_rows, 1000, id="_near_cluster_rows"),
                                        pytest.param(_two_far_cluster_rows, 1000, id="_two_far_cluster_rows"),
                                        pytest.param(_subnormal_square_rows, 80_000, id="_subnormal_square_rows")])
def test_blockwise_median_measures_few_pairs(make, most, monkeypatch):
    # a cluster's wide bounds, or kept values rounded coarser than the
    # distances near the median differ, make nearly every pair reach it.
    # Rows whose squares are float64-subnormal measure the pairs within
    # pdist's underflow floor of it: 57,343 of 4.5M, against 114,498 with
    # bounds twice as wide
    x = make(3001, np.random.default_rng(30))
    measured = _measured_pairs(monkeypatch)
    assert median_heuristic_bandwidth(x) == _pdist_lower_median(x)
    assert 0 < sum(i.size for i, _ in measured[1:]) < most


def test_blockwise_median_of_mostly_identical_rows_is_degenerate(monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 500)
    x = np.zeros((120, 2))
    x[-1] = 1.0
    with pytest.raises(DegenerateInputError):
        median_heuristic_bandwidth(x)


def test_blockwise_median_rejects_rows_whose_squares_overflow(monkeypatch):
    # the error bound would be infinite and the approximations NaN
    monkeypatch.setattr(kernels, "BLOCK_DISTANCES", 500)
    x = np.random.default_rng(28).standard_normal((120, 2)) * 1e160
    with pytest.raises(ValidationError, match="squared norms"):
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
