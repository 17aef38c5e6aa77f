"""Synthetic-data generators, study drivers, and evaluation metrics.

The studies here reproduce the detector's qualitative behavior at desk
scale on synthetic two-class Gaussian embeddings, each drawn from a
:class:`ClassMixtureSpec` whose class means lie on the first axis:

* :func:`ratio_drift_study` sweeps the positive-class fraction of the
  target set against a balanced reference and tabulates the drift score.
* :func:`correlation_study` shifts the positive-class mean toward the
  negative one bucket by bucket (the spec's ``shift``), which degrades a
  fixed scorer, and correlates drift with BCE and AUC.
* :func:`null_calibration` returns the single-window test's p-values on
  same-distribution data; the share at or below alpha is its false-positive
  rate.

Real encoder embeddings can be substituted by loading them from files and
calling the prep/scan modules directly; nothing here is text-specific.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from . import kernels
from .embeddings import as_embeddings
from .kernels import KernelSpec
from .prep import BatchConfig, batch_means
from .resample import check_window_settings, window_test
from .rng import derive_rng, derive_seed
from .scan import ScanConfig, drift_scan, shared_bandwidth

#: trials a calibration submits to its pool at a time; a pending trial holds
#: about 2 KB, so submitting all of a million trials at once would hold 2 GB
TRIAL_CHUNK = 1024

#: the columns of :func:`ratio_drift_study`'s rows and of :func:`correlation_study`'s buckets
RATIO_COLUMNS = ("fraction", "summary_score")
SERIES_COLUMNS = ("bucket_id", "drift", "bce", "auc")


@dataclass(frozen=True)
class ClassMixtureSpec:
    """Two-class isotropic Gaussian mixture with its class means on the first axis.

    The means sit at +-(separation * scale / 2); the positive mean then moves
    shift * scale toward the negative one (toward -axis 0 at separation 0).
    """

    dims: int
    n: int
    positive_fraction: float
    seed: int
    scale: float = 1.0
    separation: float = 4.0
    shift: float = 0.0

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        for name in ("scale", "separation", "shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        with np.errstate(over="ignore"):  # the mixture is stored as float32
            means = np.array(self.class_means(), dtype=np.float32)
        if not np.isfinite(means).all():
            raise ValueError(f"class means overflow at scale {self.scale}, separation {self.separation}, "
                             f"shift {self.shift}, past float32's range")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise ValueError(f"positive_fraction must be in [0, 1], got {self.positive_fraction}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")

    def class_means(self) -> tuple[float, float]:
        """The positive and the negative class mean on the first axis."""
        half = self.separation * self.scale / 2.0
        toward_negative = 1.0 if self.separation >= 0 else -1.0
        return half - self.shift * self.scale * toward_negative, -half


def positive_count(n: int, fraction: float) -> int:
    """Round n * fraction half up, for exactly reproducible class counts."""
    return int(math.floor(n * fraction + 0.5))


def generate_labeled_mixture(spec: ClassMixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw the mixture and return (embeddings, 0/1 labels), shuffled together."""
    n_pos = positive_count(spec.n, spec.positive_fraction)
    rng = derive_rng(spec.seed, "mixture")
    pos_mean, neg_mean = np.zeros(spec.dims), np.zeros(spec.dims)
    pos_mean[0], neg_mean[0] = spec.class_means()
    pos = rng.normal(loc=pos_mean, scale=spec.scale, size=(n_pos, spec.dims))
    neg = rng.normal(loc=neg_mean, scale=spec.scale, size=(spec.n - n_pos, spec.dims))
    data = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(spec.n - n_pos, dtype=np.int64)])
    perm = rng.permutation(spec.n)
    return as_embeddings(data[perm]), labels[perm]


def generate_mixture(spec: ClassMixtureSpec) -> np.ndarray:
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


def _bucket_drifts(base: ClassMixtureSpec, changes, scan: ScanConfig, batch_size: int, study: str, side: str):
    """Yield each bucket's spec, points, labels and drift ``summary_score`` against a balanced reference.

    The reference is ``base`` at fraction 0.5 and bucket i is it with ``changes[i]``'s fields replaced, both
    scanned as shuffled ``batch_size``-row means. Seeds come from the tags ``{study}-ref``, ``{study}-ref-batch``
    and, by position, ``{study}-{side}``, ``{study}-{side}-batch`` and ``{study}-scan``.
    """
    ref_spec = replace(base, positive_fraction=0.5, seed=derive_seed(base.seed, f"{study}-ref"))
    specs = [replace(ref_spec, **change, seed=derive_seed(base.seed, f"{study}-{side}", i))
             for i, change in enumerate(changes)]  # a bad spec fails before any mixture is drawn
    if not specs:
        raise ValueError(f"need at least one {side}")
    ref_batch = BatchConfig(batch_size, seed=derive_seed(base.seed, f"{study}-ref-batch"))  # and so does a bad size
    ref = batch_means(generate_mixture(ref_spec), ref_batch)
    for i, spec in enumerate(specs):
        points, labels = generate_labeled_mixture(spec)
        target = batch_means(points, replace(ref_batch, seed=derive_seed(base.seed, f"{study}-{side}-batch", i)))
        scan_i = replace(scan, seed=derive_seed(scan.seed, f"{study}-scan", i))
        yield spec, points, labels, drift_scan(ref, target, scan_i)["summary_score"]


def ratio_drift_study(
    base: ClassMixtureSpec,
    fractions,
    scan: ScanConfig,
    batch_size: int = 64,
) -> list[tuple[float, float]]:
    """Drift score per target positive-class fraction, reference fixed at 0.5.

    The table is reproducible bit-identically per seed. A row's seeds follow
    its position, so a row depends on its position and its own fraction
    only. Rows are tuples in ``RATIO_COLUMNS`` order.
    """
    changes = [{"positive_fraction": float(f)} for f in fractions]
    return [(spec.positive_fraction, drift)
            for spec, _, _, drift in _bucket_drifts(base, changes, scan, batch_size, "ratio", "target")]


def _stable_sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    e = np.exp(logits[~pos])
    out[~pos] = e / (1.0 + e)
    # keep scores strictly inside (0, 1) for bce
    return np.clip(out, 1e-15, 1.0 - 1e-15)


def correlation_study(
    base: ClassMixtureSpec,
    drift_profile,
    scan: ScanConfig,
    batch_size: int = 64,
) -> tuple[list[tuple[int, float, float, float]], float, float]:
    """Correlate per-bucket drift scores with a fixed scorer's BCE and AUC.

    The reference is ``base`` at a balanced fraction; bucket b, one per
    profile entry, is the reference with ``shift=drift_profile[b]``, so its
    positive-class mean moves drift_profile[b] * scale toward the negative
    class. That drifts the bucket's inputs and degrades the scorer (the
    Bayes-optimal logistic score on axis 0 for the reference) together.
    Returns (rows, pearson(drift, bce), pearson(drift, auc)), rows in
    ``SERIES_COLUMNS`` order; the correlations are NaN with a warning when
    the profile is degenerate (fewer than 2 buckets or all magnitudes
    equal), or when the scorer is constant because the separation is 0.
    """
    profile = [float(v) for v in drift_profile]
    # the reference's Bayes-optimal logistic weight on axis 0, (mu+ - mu-) / scale²
    half = base.separation * base.scale / 2.0
    weight = (half + half) / (base.scale * base.scale)
    rows = []
    buckets = _bucket_drifts(base, [{"shift": shift} for shift in profile], scan, batch_size, "corr", "bucket")
    for b, (_, points, labels, drift) in enumerate(buckets):
        scores = _stable_sigmoid(points[:, 0].astype(np.float64) * weight)
        rows.append((b, drift, bce(scores, labels), auc(scores, labels)))

    if len(profile) < 2 or all(v == profile[0] for v in profile):
        warnings.warn("degenerate drift profile: correlations are undefined", stacklevel=2)
        return rows, float("nan"), float("nan")
    _, drifts, bces, aucs = zip(*rows)
    return rows, pearson(drifts, bces), pearson(drifts, aucs)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def null_calibration(
    trials: int,
    n: int,
    dims: int,
    window: int,
    bootstraps: int,
    seed: int,
    kernel: KernelSpec = KernelSpec(),
    estimator: str = "biased",
) -> np.ndarray:
    """The single-window test's p-values under no drift, one per trial, as float64.

    Each trial draws fresh n-row reference and target sets from one standard
    Gaussian, chooses the bandwidth as a scan would (over their concatenation,
    or per window under ``median-window``), and tests the first ``window``
    rows of each side against the flip null; the share of p-values at
    or below alpha is the test's false-positive rate at alpha. The trials run
    on a thread pool (``pdist``, the partition and the data draws release the
    GIL), ``TRIAL_CHUNK`` submitted at a time; each draws from its own
    streams, so the p-values are the same bits for any number of CPUs.
    """
    for name, value in (("window", window), ("dims", dims), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if n < window:
        raise ValueError(f"n ({n}) must be >= window ({window})")
    check_window_settings(window, bootstraps, estimator)  # a window may be 1 row here, unlike a scan's
    from concurrent.futures import ThreadPoolExecutor

    def trial(i: int) -> float:
        data_rng = derive_rng(seed, "calibration-data", i)
        ref = as_embeddings(data_rng.standard_normal((n, dims)))
        target = as_embeddings(data_rng.standard_normal((n, dims)))
        bandwidth = shared_bandwidth(kernel, ref, target)
        *_, p_value = window_test(kernel, ref[:window], target[:window], bootstraps,
                                  derive_seed(seed, "calibration-boot", i), estimator, bandwidth)
        return p_value

    # trials in flight hold at most BLOCK_DISTANCES distances, as one
    # blockwise pass does; a trial that needs that pass runs alone
    pairs = n * (2 * n - 1)
    workers = min(_usable_cpus(), trials, max(1, kernels.BLOCK_DISTANCES // pairs))
    with ThreadPoolExecutor(workers) as pool:
        # a chunk is submitted once the p-values of the one before it are read
        chunks = (pool.map(trial, range(trials)[first:first + TRIAL_CHUNK]) for first in range(0, trials, TRIAL_CHUNK))
        return np.fromiter(chain.from_iterable(chunks), dtype=np.float64, count=trials)
