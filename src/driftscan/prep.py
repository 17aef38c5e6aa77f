"""Preprocessing: shuffle and mini-batch mean reduction.

Large inputs are reduced before scanning by averaging mini-batches: shuffle
the rows (to kill ordering bias), partition into consecutive blocks of
``batch_size``, and keep one mean vector per block. The scan then compares
batch means instead of raw samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .embeddings import as_embeddings
from .rng import check_seed, derive_rng

TAIL_POLICIES = ("drop", "keep_partial")


@dataclass(frozen=True)
class BatchConfig:
    batch_size: int = 64
    shuffle: bool = True
    seed: int = 0
    tail_policy: str = "drop"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.tail_policy not in TAIL_POLICIES:
            raise ValueError(f"unknown tail policy {self.tail_policy!r}")
        check_seed(self.seed)


def shuffle_rows(m, seed: int) -> np.ndarray:
    """Deterministic row permutation (Fisher-Yates over indices) of the embeddings ``m`` (:func:`as_embeddings`)."""
    m = as_embeddings(m)
    out = m[derive_rng(seed, "shuffle").permutation(len(m))]
    out.flags.writeable = False
    return out


def batch_means(m, config: BatchConfig) -> np.ndarray:
    """One mean vector per consecutive block of ``batch_size`` rows.

    With tail_policy "drop" a trailing partial block is discarded, so every
    output row averages exactly batch_size samples; "keep_partial" keeps the
    shorter tail block. batch_size > rows with "drop" yields no rows
    and a warning, not an error.
    """
    src = shuffle_rows(m, config.seed) if config.shuffle else as_embeddings(m)
    x = src.astype(np.float64)
    n = x.shape[0]
    full = n // config.batch_size
    blocks = [x[: full * config.batch_size].reshape(full, config.batch_size, x.shape[1]).mean(axis=1)]
    if config.tail_policy == "keep_partial" and n % config.batch_size:
        blocks.append(x[full * config.batch_size :].mean(axis=0, keepdims=True))
    out = as_embeddings(np.vstack(blocks))
    if n > 0 and len(out) == 0:
        warnings.warn(f"batch_size {config.batch_size} exceeds row count {n}; output is empty", stacklevel=2)
    return out
