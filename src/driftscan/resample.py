"""The window test: MMD^2 between two windows and its bootstrap null.

Under the no-drift hypothesis the two windows are pooled, and bootstrap
draws (sampling rows with replacement) from the pool are split into two
blocks whose MMD^2 forms the null distribution. The observed statistic's
p-value is its add-one-smoothed rank within that distribution.
:func:`window_test` builds the pool's Gram matrix once and takes both the
observed statistic and the null from it.

All k draws of a window come from one stream, as one (k, 2 * block) index
matrix. Each block of a draw is a count vector over the pooled rows, so its
MMD^2 is a quadratic form in the pool's Gram matrix (Gretton et al. 2012,
*A Kernel Two-Sample Test*, JMLR, sections 2-3), and all k statistics come
from one product of the count matrix with the Gram matrix.

Two split policies:

* ``paired_halves`` (default): the two blocks each have as many rows as a
  window, so the null is computed at the same sample size as the statistic
  it calibrates.
* ``literal_quarter``: blocks of half a window each, i.e. the first and
  second half of the leading window-sized part of the draw. Kept
  selectable because the smaller blocks widen the null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import ValidationError
from .kernels import KernelSpec, kernel_matrix, resolve_bandwidth
from .mmd import ESTIMATORS, MmdEstimate, mmd_sq_from_gram
from .rng import RngPolicy

SPLIT_POLICIES = ("paired_halves", "literal_quarter")

#: purpose tag for bootstrap streams; window w draws its whole (k, 2 * block)
#: index matrix from the one stream (base_seed, BOOTSTRAP_TAG, w)
BOOTSTRAP_TAG = "bootstrap"

#: names that draw scheme in the report's config echo. Reports without the
#: entry drew iteration i of window w from (base_seed, BOOTSTRAP_TAG, w, i).
RNG_SCHEME = "window-stream"


@dataclass(frozen=True, eq=False)
class BootstrapResult:
    """Null statistics for one window.

    ``stats`` holds the k bootstrapped MMD^2 values, ``median`` their exact
    order-statistic median (mean of the two middles for even k), and
    ``p_value`` the add-one-smoothed tail probability of the observed
    statistic: (1 + #{stats >= observed}) / (k + 1), never zero.
    """

    stats: np.ndarray = field(repr=False)
    median: float
    p_value: float

    def __post_init__(self) -> None:
        self.stats.flags.writeable = False


def null_stats_from_gram(gram: np.ndarray, idx: np.ndarray, block: int, estimator: str) -> np.ndarray:
    """MMD^2 of each bootstrap draw, from the pool Gram and the draws' row indices.

    Row i of ``idx`` is draw i: its first ``block`` entries pick the first
    block's pooled rows, the next ``block`` the second's. With c1 and c2 the
    blocks' count vectors, the biased statistic is d'Gd / block^2 for
    d = c1 - c2, clamped at 0 (exact for a kernel, and it keeps p = 1 on
    identical inputs). The unbiased one subtracts from each within-block sum
    c'Gc its gathered diagonal c . diag(G). Products use einsum, not BLAS, so
    the bytes do not depend on the thread count.
    """
    k = idx.shape[0]
    n = gram.shape[0]
    # draw i's first block counts into row i, its second into row k + i
    slot = np.arange(k)[:, None] + np.repeat([0, k], block)
    counts = np.bincount((idx + slot * n).ravel(), minlength=2 * k * n).reshape(2, k, n)
    if estimator == "biased":
        d = (counts[0] - counts[1]).astype(np.float64)
        dg = np.einsum("in,nm->im", d, gram, optimize=False)
        return np.maximum(np.einsum("im,im->i", dg, d) / (block * block), 0.0)
    c = counts.astype(np.float64)
    cg = np.einsum("jin,nm->jim", c, gram, optimize=False)
    quad = np.einsum("jim,jim->ji", cg, c)
    trace = np.einsum("jin,n->ji", c, np.diagonal(gram))
    within = (quad - trace) / (block * (block - 1))
    cross = np.einsum("im,im->i", cg[0], c[1]) / (block * block)
    return within[0] + within[1] - 2.0 * cross


def window_test(
    spec: KernelSpec,
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    rng: RngPolicy,
    split_policy: str,
    estimator: str,
    bandwidth: float | None = None,
    window_index: int = 0,
) -> tuple[MmdEstimate, BootstrapResult]:
    """MMD^2 between windows ``x`` and ``y`` and its bootstrap null.

    ``x`` and ``y`` are (rows, dims) arrays, pooled and computed in float64.
    The pool's Gram matrix is built once: the observed statistic comes from
    its contiguous blocks (bit-identical to :func:`~driftscan.mmd.mmd`), the
    k null statistics from :func:`null_stats_from_gram` over one
    (k, 2 * block) index matrix drawn from the stream
    (rng.base_seed, "bootstrap", window_index), so reruns are byte-identical
    however windows are scheduled. ``bandwidth`` is resolved over the pool
    when None.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(f"windows must have the same rows and dims, got {x.shape} and {y.shape}")
    if split_policy not in SPLIT_POLICIES:
        raise ValueError(f"unknown split policy {split_policy!r}, expected one of {SPLIT_POLICIES}")
    if k < 1:
        raise ValidationError(f"bootstrap count must be >= 1, got {k}")
    half = x.shape[0]
    block = half if split_policy == "paired_halves" else half // 2
    if block < 1:
        raise ValidationError(f"split {split_policy!r} with windows of {half} rows leaves empty blocks")
    if estimator == "unbiased" and block < 2:
        raise ValidationError("unbiased estimator needs blocks of >= 2 rows")

    pool = np.concatenate([x, y], dtype=np.float64)
    if bandwidth is None:
        bandwidth = resolve_bandwidth(spec, pool)
    gram = kernel_matrix(spec, bandwidth, pool, pool)
    kxx, kyy, kxy = (np.ascontiguousarray(b) for b in (gram[:half, :half], gram[half:, half:], gram[:half, half:]))
    observed = MmdEstimate.from_squared(mmd_sq_from_gram(kxx, kyy, kxy, estimator), estimator, bandwidth)

    idx = rng.stream(BOOTSTRAP_TAG, window_index).integers(0, 2 * half, size=(k, 2 * block))
    stats = null_stats_from_gram(gram, idx, block, estimator)
    median = float(np.median(stats))
    p_value = (1.0 + float(np.count_nonzero(stats >= observed.squared))) / (k + 1.0)
    return observed, BootstrapResult(stats=stats, median=median, p_value=p_value)
