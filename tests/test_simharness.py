import math
from dataclasses import replace

import numpy as np
import pytest

from driftscan import kernels, simharness
from driftscan.embeddings import as_embeddings
from driftscan.kernels import KernelSpec
from driftscan.resample import window_test
from driftscan.rng import derive_rng, derive_seed
from driftscan.scan import ScanConfig
from driftscan.simharness import (
    SERIES_COLUMNS,
    ClassMixtureSpec,
    auc,
    bce,
    correlation_study,
    generate_labeled_mixture,
    generate_mixture,
    null_calibration,
    pearson,
    positive_count,
    ratio_drift_study,
)


def _cluster_mean(spec: ClassMixtureSpec) -> tuple[np.ndarray, float]:
    # the mean of a one-class mixture; it lies within 4 standard errors of the class mean
    m = generate_mixture(spec)
    return m.mean(axis=0), 4 * spec.scale / math.sqrt(spec.n)


def test_pure_positive_mixture_clusters_at_positive_mean():
    # separation 4 in units of scale 0.5 puts the means at +-1 on axis 0
    mean, tolerance = _cluster_mean(ClassMixtureSpec(dims=3, n=400, positive_fraction=1.0, seed=1, scale=0.5))
    np.testing.assert_allclose(mean, [1.0, 0.0, 0.0], atol=tolerance)


def test_pure_negative_mixture_clusters_at_negative_mean():
    mean, tolerance = _cluster_mean(ClassMixtureSpec(dims=3, n=400, positive_fraction=0.0, seed=2, scale=0.5))
    np.testing.assert_allclose(mean, [-1.0, 0.0, 0.0], atol=tolerance)


@pytest.mark.parametrize("separation, shift, axis0", [
    (4.0, 1.5, 0.25),  # +1 moves 0.75 toward -1
    (-4.0, 1.5, -0.25),  # -1 moves 0.75 toward +1
    (0.0, 1.5, -0.75),  # at separation 0, toward -axis 0
    (4.0, -1.0, 1.5),  # a negative shift moves away from the negative mean
])
def test_shift_moves_the_positive_mean_toward_the_negative_mean(separation, shift, axis0):
    spec = ClassMixtureSpec(dims=2, n=400, positive_fraction=1.0, seed=4, scale=0.5,
                            separation=separation, shift=shift)
    mean, tolerance = _cluster_mean(spec)
    np.testing.assert_allclose(mean, [axis0, 0.0], atol=tolerance)
    negatives, _ = _cluster_mean(replace(spec, positive_fraction=0.0))
    np.testing.assert_allclose(negatives, [-separation * 0.25, 0.0], atol=tolerance)  # shift leaves them


def test_empty_mixture():
    spec = ClassMixtureSpec(dims=2, n=0, positive_fraction=0.5, seed=3)
    m, labels = generate_labeled_mixture(spec)
    assert m.shape[0] == 0 and labels.size == 0


def test_mixture_deterministic_and_label_counts_exact():
    spec = ClassMixtureSpec(dims=4, n=101, positive_fraction=0.37, seed=9)
    m1, y1 = generate_labeled_mixture(spec)
    m2, y2 = generate_labeled_mixture(spec)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(y1, y2)
    assert int(y1.sum()) == positive_count(101, 0.37)


def test_positive_count_rounds_half_up():
    assert positive_count(10, 0.25) == 3  # 2.5 rounds up
    assert positive_count(10, 0.24) == 2
    assert positive_count(4, 0.5) == 2
    assert positive_count(5000, 0.1) == 500


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        ClassMixtureSpec(dims=2, n=5, positive_fraction=1.5, seed=0)
    with pytest.raises(ValueError):
        ClassMixtureSpec(dims=2, n=5, positive_fraction=0.5, seed=0, scale=0.0)
    with pytest.raises(ValueError, match="dims must be >= 1, got 0"):
        ClassMixtureSpec(dims=0, n=5, positive_fraction=0.5, seed=0)
    for name, value in (("scale", math.inf), ("separation", math.nan), ("shift", -math.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            ClassMixtureSpec(dims=2, n=5, positive_fraction=0.5, seed=0, **{name: value})
    # finite settings whose products, or the positive mean's difference, overflow float64 or float32
    for extremes in ({"separation": 1e308, "scale": 10.0}, {"shift": 1e308, "scale": 10.0},
                     {"separation": 1.7e308, "shift": -1.7e308}, {"scale": 1e39}, {"scale": 1e308, "separation": 1.0}):
        with pytest.raises(ValueError, match="class means overflow"):
            ClassMixtureSpec(dims=2, n=5, positive_fraction=0.5, seed=0, **extremes)


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_ties_use_midranks():
    assert auc([0.5, 0.5], [0, 1]) == 0.5
    # pairwise wins (0.5>0.3, 0.7>0.3, 0.7>0.5) plus half credit for the tie
    assert auc([0.3, 0.5, 0.5, 0.7], [0, 0, 1, 1]) == 0.875


def test_auc_single_class_rejected():
    with pytest.raises(ValueError, match="both classes"):
        auc([0.1, 0.9], [1, 1])


def test_auc_random_labels_centered_at_half():
    rng = np.random.default_rng(0)
    values = []
    for _ in range(500):
        scores = rng.uniform(size=40)
        labels = np.zeros(40, dtype=int)
        labels[rng.permutation(40)[:20]] = 1
        values.append(auc(scores, labels))
    assert abs(float(np.mean(values)) - 0.5) < 0.03


def test_bce_all_half_is_ln2():
    assert bce([0.5, 0.5, 0.5], [0, 1, 0]) == pytest.approx(math.log(2.0), rel=1e-12)


def test_bce_rejects_boundary_scores():
    with pytest.raises(ValueError, match="strictly inside"):
        bce([1.0, 0.5], [1, 0])
    with pytest.raises(ValueError, match="strictly inside"):
        bce([0.0, 0.5], [1, 0])


def test_pearson_hand_values():
    x = [1.0, 2.0, 4.0, 7.0]
    assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_zero_variance_is_nan_with_warning():
    with pytest.warns(UserWarning, match="zero-variance"):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.warns(UserWarning, match="fewer than 2"):
        assert math.isnan(pearson([1.0], [2.0]))


FAST_SCAN = ScanConfig(window=8, bootstraps=10, seed=5)


def test_ratio_study_minimum_at_balanced_fraction():
    base = ClassMixtureSpec(dims=4, n=600, positive_fraction=0.5, seed=11)
    rows = ratio_drift_study(base, [0.1, 0.5, 0.9], FAST_SCAN, batch_size=16)
    fractions = [r[0] for r in rows]
    scores = {r[0]: r[1] for r in rows}
    assert fractions == [0.1, 0.5, 0.9]
    assert min(scores, key=scores.get) == 0.5


def test_ratio_study_reproducible_bitwise():
    base = ClassMixtureSpec(dims=3, n=400, positive_fraction=0.5, seed=21)
    a = ratio_drift_study(base, [0.2, 0.5], FAST_SCAN, batch_size=16)
    b = ratio_drift_study(base, [0.2, 0.5], FAST_SCAN, batch_size=16)
    assert a == b


def test_ratio_study_rejects_empty_fractions():
    base = ClassMixtureSpec(dims=2, n=100, positive_fraction=0.5, seed=0)
    with pytest.raises(ValueError):
        ratio_drift_study(base, [], FAST_SCAN)


def test_a_study_row_depends_on_its_position_and_its_own_entry_only():
    base = ClassMixtureSpec(dims=3, n=400, positive_fraction=0.5, seed=7)
    scan = ScanConfig(window=8, bootstraps=5)
    rows = ratio_drift_study(base, [0.1, 0.9], scan, batch_size=16)
    assert ratio_drift_study(base, [0.1, 0.5], scan, batch_size=16)[0] == rows[0]
    # a row's seeds follow its position, so the same fraction elsewhere scores otherwise
    assert ratio_drift_study(base, [0.9, 0.1], scan, batch_size=16)[1] != rows[0]
    buckets, _, _ = correlation_study(base, [0.0, 2.0], scan, batch_size=16)
    assert correlation_study(base, [0.0, 1.0], scan, batch_size=16)[0][0] == buckets[0]


def test_correlation_study_signs_on_monotone_profile():
    rows, corr_bce, corr_auc = correlation_study(
        ClassMixtureSpec(dims=4, n=1024, positive_fraction=0.5, seed=31), [0.0, 1.5, 3.0], FAST_SCAN, batch_size=32
    )
    series = [dict(zip(SERIES_COLUMNS, row, strict=True)) for row in rows]
    assert [m["bucket_id"] for m in series] == [0, 1, 2]
    assert corr_bce > 0.5
    assert corr_auc < -0.5
    for m in series:
        assert 0.0 <= m["auc"] <= 1.0
        assert m["bce"] >= 0.0
    # the collapsing separation must actually hurt the scorer
    assert series[-1]["auc"] < series[0]["auc"]
    assert series[-1]["bce"] > series[0]["bce"]
    assert series[-1]["drift"] > series[0]["drift"]


def test_correlation_study_degenerate_profile_is_nan():
    # constant zero profile: every bucket draws from the reference distribution
    with pytest.warns(UserWarning, match="degenerate"):
        series, corr_bce, corr_auc = correlation_study(
            ClassMixtureSpec(dims=3, n=512, positive_fraction=0.5, seed=32), [0.0, 0.0, 0.0], FAST_SCAN, batch_size=32
        )
    assert len(series) == 3
    assert math.isnan(corr_bce) and math.isnan(corr_auc)


def test_correlation_study_single_bucket_is_nan():
    with pytest.warns(UserWarning, match="degenerate"):
        _, corr_bce, corr_auc = correlation_study(
            ClassMixtureSpec(dims=3, n=512, positive_fraction=0.5, seed=33), [2.0], FAST_SCAN, batch_size=32
        )
    assert math.isnan(corr_bce) and math.isnan(corr_auc)


def test_correlation_study_needs_a_bucket():
    with pytest.raises(ValueError, match="at least one bucket"):
        correlation_study(ClassMixtureSpec(dims=3, n=512, positive_fraction=0.5, seed=0), [], FAST_SCAN)


def test_null_calibration_runs_and_reproduces():
    a = null_calibration(trials=30, n=64, dims=4, window=16, bootstraps=39, seed=13)
    b = null_calibration(trials=30, n=64, dims=4, window=16, bootstraps=39, seed=13)
    assert a.shape == (30,) and a.dtype == np.float64
    assert 0.0 <= (a <= 0.05).mean() <= 0.2  # loose sanity bound at this tiny scale
    np.testing.assert_array_equal(a, b)


def test_null_calibration_linear_kernel():
    p_values = null_calibration(trials=5, n=48, dims=3, window=12, bootstraps=19, seed=14, kernel=KernelSpec("linear"))
    assert p_values.shape == (5,)


def test_null_calibration_median_window_runs_the_per_window_test():
    args = {"trials": 8, "n": 40, "dims": 3, "window": 8, "bootstraps": 19, "seed": 21}
    spec = KernelSpec("rbf", "median-window")
    p_values = null_calibration(**args, kernel=spec)
    by_hand = []
    for i in range(args["trials"]):  # each trial's data and bootstrap seed, as null_calibration derives them
        data_rng = derive_rng(21, "calibration-data", i)
        ref, target = (as_embeddings(data_rng.standard_normal((40, 3))) for _ in range(2))
        *_, p_value = window_test(spec, ref[:8], target[:8], 19,
                                  derive_seed(21, "calibration-boot", i), "biased", bandwidth=None)
        by_hand.append(p_value)
    np.testing.assert_array_equal(p_values, by_hand)
    assert not np.array_equal(p_values, null_calibration(**args))


def test_null_calibration_validation():
    with pytest.raises(ValueError):
        null_calibration(trials=0, n=64, dims=2, window=8, bootstraps=9, seed=0)
    with pytest.raises(ValueError):
        null_calibration(trials=1, n=4, dims=2, window=8, bootstraps=9, seed=0)
    for name in ("bootstraps", "window", "dims"):
        args = {"trials": 1, "n": 64, "dims": 2, "window": 8, "bootstraps": 9, "seed": 0, name: 0}
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            null_calibration(**args)
    assert null_calibration(trials=2, n=16, dims=2, window=1, bootstraps=9, seed=0).shape == (2,)


def _pool_sizes(monkeypatch) -> list:
    # the max_workers of every thread pool started, in order; each pool
    # really runs at most 2 threads, which cannot move the bits
    import concurrent.futures

    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    class Recording(real):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(min(max_workers, 2))

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.mark.parametrize("n, block, workers", [(512, None, 4), (24, 1000, 1)])
def test_calibration_trials_share_the_distance_budget(n, block, workers, monkeypatch):
    # trials in flight hold at most BLOCK_DISTANCES distances between them:
    # 4 trials of 1024 pooled rows (523776 pairs each) fit in 2**21; a trial
    # over the budget takes the blockwise pass and runs alone
    if block is not None:
        monkeypatch.setattr(kernels, "BLOCK_DISTANCES", block)
    monkeypatch.setattr(simharness, "_usable_cpus", lambda: 64)
    sizes = _pool_sizes(monkeypatch)
    null_calibration(trials=6, n=n, dims=2, window=8, bootstraps=9, seed=0)
    assert sizes[0] == workers
    if block is None:
        assert sizes == [workers]
    else:  # then each trial's bandwidth takes a blockwise pass, which starts no pool
        assert sizes == [1]


def test_calibration_submits_its_trials_in_bounded_chunks(monkeypatch):
    # a spy on the pool counts the trials submitted ahead of the p-values
    # read: a chunk at most, where a future for every trial would hold
    # about 2 KB each; the chunks keep the p-values' bits
    import concurrent.futures

    args = {"trials": 10, "n": 16, "dims": 2, "window": 8, "bootstraps": 9, "seed": 0}
    expected = null_calibration(**args)
    counts = {"submitted": 0, "read": 0, "ahead": 0}
    submit, result = concurrent.futures.ThreadPoolExecutor.submit, concurrent.futures.Future.result

    def spy_submit(self, *args, **kwargs):
        counts["submitted"] += 1
        counts["ahead"] = max(counts["ahead"], counts["submitted"] - counts["read"])
        return submit(self, *args, **kwargs)

    def spy_result(self, *args, **kwargs):
        counts["read"] += 1
        return result(self, *args, **kwargs)

    monkeypatch.setattr(simharness, "TRIAL_CHUNK", 3)
    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", spy_submit)
    monkeypatch.setattr(concurrent.futures.Future, "result", spy_result)
    p_values = null_calibration(**args)
    assert counts == {"submitted": 10, "read": 10, "ahead": 3}
    assert p_values.tobytes() == expected.tobytes()
