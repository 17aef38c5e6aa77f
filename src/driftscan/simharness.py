"""Synthetic-data generators, study drivers, and evaluation metrics.

The studies here reproduce the detector's qualitative behavior at desk
scale on synthetic two-class Gaussian embeddings:

* :func:`ratio_drift_study` sweeps the positive-class fraction of the
  target set against a balanced reference and tabulates the drift score.
* :func:`correlation_study` degrades a fixed scorer by collapsing the class
  separation bucket by bucket and correlates drift with BCE and AUC.
* :func:`null_calibration` measures the empirical false-positive rate of
  the single-window test on same-distribution data.

Real encoder embeddings can be substituted by loading them from files and
calling the prep/scan modules directly; nothing here is text-specific.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .embeddings import DatasetPair, EmbeddingMatrix
from .kernels import KernelSpec, resolve_bandwidth
from .prep import BatchConfig, batch_means
from .resample import block_size, window_test
from .rng import derive_rng, derive_seed
from .scan import ScanConfig, check_alpha, drift_scan


@dataclass(frozen=True, eq=False)
class ClassMixtureSpec:
    """Two-class isotropic Gaussian mixture in embedding space."""

    dims: int
    positive_mean: np.ndarray
    negative_mean: np.ndarray
    scale: float
    positive_fraction: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("positive_mean", "negative_mean"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.shape != (self.dims,):
                raise ValueError(f"{name} must have shape ({self.dims},), got {vec.shape}")
            object.__setattr__(self, name, vec)
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ValueError(f"positive_fraction must be in [0, 1], got {self.positive_fraction}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class MetricSeries:
    """Per-bucket drift score and scorer performance."""

    bucket_id: int
    drift: float
    bce: float
    auc: float


def axis_mixture_spec(
    dims: int,
    n: int,
    positive_fraction: float,
    seed: int,
    scale: float = 1.0,
    separation: float = 4.0,
) -> ClassMixtureSpec:
    """Mixture with class means +-(separation * scale / 2) along the first axis."""
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    mu = np.zeros(dims)
    mu[0] = separation * scale / 2.0
    return ClassMixtureSpec(
        dims=dims,
        positive_mean=mu,
        negative_mean=-mu,
        scale=scale,
        positive_fraction=positive_fraction,
        n=n,
        seed=seed,
    )


def positive_count(n: int, fraction: float) -> int:
    """Round n * fraction half up, for exactly reproducible class counts."""
    return int(math.floor(n * fraction + 0.5))


def generate_labeled_mixture(spec: ClassMixtureSpec) -> tuple[EmbeddingMatrix, np.ndarray]:
    """Draw the mixture and return (matrix, 0/1 labels), shuffled together."""
    n_pos = positive_count(spec.n, spec.positive_fraction)
    rng = derive_rng(spec.seed, "mixture")
    if spec.n == 0:
        return EmbeddingMatrix.empty(spec.dims), np.empty(0, dtype=np.int64)
    pos = rng.normal(loc=spec.positive_mean, scale=spec.scale, size=(n_pos, spec.dims))
    neg = rng.normal(loc=spec.negative_mean, scale=spec.scale, size=(spec.n - n_pos, spec.dims))
    data = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(spec.n - n_pos, dtype=np.int64)])
    perm = rng.permutation(spec.n)
    return EmbeddingMatrix.from_array(data[perm]), labels[perm]


def generate_mixture(spec: ClassMixtureSpec) -> EmbeddingMatrix:
    return generate_labeled_mixture(spec)[0]


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank statistic, midranks on ties."""
    from scipy.stats import rankdata  # deferred: slow to import, and only correlate needs it

    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    n_pos = int(np.count_nonzero(y == 1))
    n_neg = int(np.count_nonzero(y == 0))
    if n_pos + n_neg != y.size:
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    ranks = rankdata(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def bce(scores, labels) -> float:
    """Binary cross entropy; scores must lie strictly inside (0, 1)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    if s.size == 0:
        raise ValueError("bce needs at least one score")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise ValueError("scores must be strictly inside (0, 1)")
    return float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))


def pearson(x, y) -> float:
    """Pearson correlation; NaN (with a warning) when either side has zero variance."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValueError("inputs must be 1-D and the same length")
    if xv.size < 2:
        warnings.warn("pearson undefined for fewer than 2 points", stacklevel=2)
        return float("nan")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    denom = math.sqrt(float(np.dot(xc, xc)) * float(np.dot(yc, yc)))
    if denom == 0.0:
        warnings.warn("pearson undefined for zero-variance input", stacklevel=2)
        return float("nan")
    return float(np.dot(xc, yc) / denom)


def ratio_drift_study(
    base: ClassMixtureSpec,
    fractions,
    scan: ScanConfig,
    batch_size: int = 64,
) -> list[tuple[float, float]]:
    """Drift score per target positive-class fraction, reference fixed at 0.5.

    Each fraction gets its own derived generator and scan seeds, so the
    table is reproducible bit-identically per seed and independent of the
    order in which fractions are evaluated. Rows are (fraction, score).
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions must be nonempty")
    ref_spec = replace(base, positive_fraction=0.5, seed=derive_seed(base.seed, "ratio-ref"))
    ref = batch_means(
        generate_mixture(ref_spec),
        BatchConfig(batch_size=batch_size, shuffle=True, seed=derive_seed(base.seed, "ratio-ref-batch")),
    )
    rows = []
    for i, fraction in enumerate(fractions):
        target_spec = replace(
            base, positive_fraction=fraction, seed=derive_seed(base.seed, "ratio-target", i)
        )
        target = batch_means(
            generate_mixture(target_spec),
            BatchConfig(
                batch_size=batch_size, shuffle=True, seed=derive_seed(base.seed, "ratio-target-batch", i)
            ),
        )
        scan_i = replace(scan, seed=derive_seed(scan.seed, "ratio-scan", i))
        report = drift_scan(DatasetPair(ref, target), scan_i)
        rows.append((fraction, report.summary_score))
    return rows


def _stable_sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    e = np.exp(logits[~pos])
    out[~pos] = e / (1.0 + e)
    # keep scores strictly inside (0, 1) for bce
    return np.clip(out, 1e-15, 1.0 - 1e-15)


def correlation_study(
    drift_profile,
    scan: ScanConfig,
    seed: int,
    *,
    dims: int = 16,
    n: int = 4096,
    batch_size: int = 64,
    scale: float = 1.0,
    separation: float = 4.0,
) -> tuple[list[MetricSeries], float, float]:
    """Correlate per-bucket drift scores with a fixed scorer's BCE and AUC.

    The reference is a balanced mixture; bucket b, one per profile entry,
    moves the positive-class mean toward the negative class by
    drift_profile[b] * scale, shrinking the class separation, which
    simultaneously drifts the bucket's inputs and degrades the scorer (a
    logistic score along the class axis, calibrated on the reference).
    Returns (series, pearson(drift, bce), pearson(drift, auc)); the
    correlations are NaN with a warning when the profile is degenerate
    (fewer than 2 buckets or all magnitudes equal).
    """
    profile = [float(v) for v in drift_profile]
    buckets = len(profile)
    if buckets < 1:
        raise ValueError("need at least one bucket")

    ref_spec = axis_mixture_spec(
        dims, n, 0.5, derive_seed(seed, "corr-ref"), scale=scale, separation=separation
    )
    ref_batched = batch_means(
        generate_mixture(ref_spec),
        BatchConfig(batch_size=batch_size, shuffle=True, seed=derive_seed(seed, "corr-ref-batch")),
    )
    # fixed scorer: Bayes-optimal logistic score for the reference mixture
    weights = (ref_spec.positive_mean - ref_spec.negative_mean) / (scale * scale)
    bias = -float(np.dot(weights, (ref_spec.positive_mean + ref_spec.negative_mean) / 2.0))
    axis = (ref_spec.positive_mean - ref_spec.negative_mean) / float(
        np.linalg.norm(ref_spec.positive_mean - ref_spec.negative_mean)
    )

    series = []
    for b in range(buckets):
        bucket_spec = ClassMixtureSpec(
            dims=dims,
            positive_mean=ref_spec.positive_mean - profile[b] * scale * axis,
            negative_mean=ref_spec.negative_mean,
            scale=scale,
            positive_fraction=0.5,
            n=n,
            seed=derive_seed(seed, "corr-bucket", b),
        )
        points, labels = generate_labeled_mixture(bucket_spec)
        bucket_batched = batch_means(
            points,
            BatchConfig(batch_size=batch_size, shuffle=True, seed=derive_seed(seed, "corr-bucket-batch", b)),
        )
        scan_b = replace(scan, seed=derive_seed(scan.seed, "corr-scan", b))
        report = drift_scan(DatasetPair(ref_batched, bucket_batched), scan_b)
        scores = _stable_sigmoid(points.as_float64() @ weights + bias)
        series.append(
            MetricSeries(
                bucket_id=b,
                drift=report.summary_score,
                bce=bce(scores, labels),
                auc=auc(scores, labels),
            )
        )

    if buckets < 2 or all(v == profile[0] for v in profile):
        warnings.warn("degenerate drift profile: correlations are undefined", stacklevel=2)
        return series, float("nan"), float("nan")
    drifts = [m.drift for m in series]
    return series, pearson(drifts, [m.bce for m in series]), pearson(drifts, [m.auc for m in series])


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    trials: int
    rejections: int
    rate: float
    p_values: np.ndarray = field(repr=False)


def null_calibration(
    trials: int,
    n: int,
    dims: int,
    window: int,
    bootstraps: int,
    alpha: float,
    seed: int,
    kernel: KernelSpec | None = None,
    estimator: str = "biased",
    split_policy: str = "paired_halves",
) -> CalibrationResult:
    """Empirical false-positive rate of the single-window test under no drift.

    Each trial draws fresh n-row reference and target sets from one standard
    Gaussian, chooses the bandwidth as a scan would (over their concatenation,
    or per window under ``median-window``), tests the first ``window`` rows of
    each side against the bootstrap null, and counts p_value <= alpha. The
    trials run on a thread pool (``pdist``, the partition and the data draws
    release the GIL); each draws from its own streams, so the p-values are
    the same bits for any number of CPUs.
    """
    if kernel is None:
        kernel = KernelSpec()
    for name, value in (("window", window), ("dims", dims), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if n < window:
        raise ValueError(f"n ({n}) must be >= window ({window})")
    block_size(window, bootstraps, split_policy, estimator)  # a window may be 1 row here, unlike a scan's
    check_alpha(alpha)
    from concurrent.futures import ThreadPoolExecutor

    def trial(i: int) -> float:
        data_rng = derive_rng(seed, "calibration-data", i)
        ref = EmbeddingMatrix.from_array(data_rng.standard_normal((n, dims)))
        target = EmbeddingMatrix.from_array(data_rng.standard_normal((n, dims)))
        bandwidth = None if kernel.per_window_bandwidth else resolve_bandwidth(
            kernel, np.vstack([ref.as_float64(), target.as_float64()]))
        _, boot = window_test(kernel, ref.values[:window], target.values[:window], bootstraps,
                              derive_seed(seed, "calibration-boot", i), split_policy, estimator, bandwidth)
        return boot.p_value

    # trials in flight hold at most BLOCK_DISTANCES distances, as one
    # blockwise pass does; a trial that needs that pass runs alone
    pairs = n * (2 * n - 1)
    workers = min(kernels._usable_cpus(), trials, max(1, kernels.BLOCK_DISTANCES // pairs))
    with ThreadPoolExecutor(workers) as pool:
        p_values = np.fromiter(pool.map(trial, range(trials)), dtype=np.float64, count=trials)
    rejections = int(np.count_nonzero(p_values <= alpha))
    return CalibrationResult(
        trials=trials,
        rejections=rejections,
        rate=rejections / trials,
        p_values=p_values,
    )
