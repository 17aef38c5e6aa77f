"""Bootstrap null distribution for the two-sample drift statistic.

Under the no-drift hypothesis the two windows are pooled, and bootstrap
draws (sampling rows with replacement) from the pool are split into two
blocks whose MMD^2 forms the null distribution. The observed statistic's
p-value is its add-one-smoothed rank within that distribution.

All k draws of a window come from one stream, as one (k, 2 * block) index
matrix. Each block of a draw is a count vector over the pooled rows, so its
MMD^2 is a quadratic form in the pool's Gram matrix (Gretton et al. 2012,
*A Kernel Two-Sample Test*, JMLR, sections 2-3), and all k statistics come
from one product of the count matrix with the Gram matrix.

Two split policies:

* ``paired_halves`` (default): the two blocks each have ``half_size`` rows,
  the same size as the observed windows, so the null is computed at the same
  sample size as the statistic it calibrates.
* ``literal_quarter``: blocks of ``half_size // 2`` rows each, i.e. the
  first and second half of the leading ``half_size`` rows of the draw.
  Kept selectable because the smaller blocks widen the null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix, ValidationError
from .kernels import KernelSpec, kernel_matrix, resolve_bandwidth
from .mmd import ESTIMATORS
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


def combine_under_null(q1: EmbeddingMatrix, q2: EmbeddingMatrix) -> EmbeddingMatrix:
    """Pool two samples: row-wise concatenation, q1 rows first."""
    if q1.dims != q2.dims:
        raise ValidationError(f"dimension mismatch: {q1.dims} vs {q2.dims}")
    if q1.rows == 0:
        return q2
    if q2.rows == 0:
        return q1
    out = np.vstack([q1.values, q2.values])
    out.flags.writeable = False
    return EmbeddingMatrix(out)


def _block_size(half_size: int, split_policy: str) -> int:
    if split_policy not in SPLIT_POLICIES:
        raise ValueError(f"unknown split policy {split_policy!r}, expected one of {SPLIT_POLICIES}")
    if half_size < 1:
        raise ValidationError(f"half_size must be >= 1, got {half_size}")
    return half_size if split_policy == "paired_halves" else half_size // 2


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


def bootstrap_null(
    spec: KernelSpec,
    t: EmbeddingMatrix,
    half_size: int,
    k: int,
    rng: RngPolicy,
    split_policy: str = "paired_halves",
    observed: float = 0.0,
    estimator: str = "biased",
    bandwidth: float | None = None,
    window_index: int = 0,
    *,
    gram: np.ndarray | None = None,
) -> BootstrapResult:
    """Bootstrap the null distribution of MMD^2 over the pooled rows ``t``.

    The k draws (rows with replacement) are one (k, 2 * block) index matrix
    from the stream (rng.base_seed, "bootstrap", window_index), so reruns are
    byte-identical however windows are scheduled. ``gram`` is the kernel
    Gram matrix of the pool, when the caller already has it; otherwise it is
    built here from ``bandwidth`` (resolved over the pool when None).
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATORS}")
    if k < 1:
        raise ValidationError(f"bootstrap count must be >= 1, got {k}")
    block = _block_size(half_size, split_policy)
    if block < 1:
        raise ValidationError(f"split {split_policy!r} with half_size {half_size} leaves empty blocks")
    if estimator == "unbiased" and block < 2:
        raise ValidationError("unbiased estimator needs blocks of >= 2 rows")
    n = t.rows
    if n < 2 * block:
        raise ValidationError(
            f"pool has {n} rows but split {split_policy!r} with half_size {half_size} needs >= {2 * block}"
        )

    if gram is None:
        pool = t.as_float64()
        if bandwidth is None:
            bandwidth = resolve_bandwidth(spec, pool)
        gram = kernel_matrix(spec, bandwidth, pool, pool)
    elif gram.shape != (n, n):
        raise ValueError(f"gram must be ({n}, {n}) for a pool of {n} rows, got {gram.shape}")

    idx = rng.stream(BOOTSTRAP_TAG, window_index).integers(0, n, size=(k, 2 * block))
    stats = null_stats_from_gram(gram, idx, block, estimator)
    median = float(np.median(stats))
    p_value = (1.0 + float(np.count_nonzero(stats >= observed))) / (k + 1.0)
    return BootstrapResult(stats=stats, median=median, p_value=p_value)
