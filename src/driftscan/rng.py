"""Deterministic random-stream derivation.

Every random consumer in the library derives its own generator from a base
seed, a short purpose tag, and optional integer indices. Identical
(base_seed, tag, indices) always yields an identical stream, so results do
not depend on the order in which consumers run.
"""

from __future__ import annotations

import zlib

import numpy as np

_MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def derive_rng(base_seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Independent generator for (base_seed, tag, *indices)."""
    entropy = [check_seed(base_seed), zlib.crc32(tag.encode("utf-8")), *map(int, indices)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(base_seed: int, tag: str, *indices: int) -> int:
    """Unsigned 64-bit sub-seed for (base_seed, tag, *indices)."""
    entropy = [check_seed(base_seed), zlib.crc32(tag.encode("utf-8")), *map(int, indices)]
    lo, hi = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return int(hi) << 32 | int(lo)

