"""Deterministic per-purpose random streams.

Every stochastic choice in a run draws from a generator keyed by
(seed, node, round, purpose), so results are independent of scheduling
and worker count: any worker asking for the same key gets the same stream.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1


@functools.cache
def _purpose_code(purpose: str) -> int:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, node: int = 0, round_idx: int = 0, purpose: str = "") -> np.random.Generator:
    """Return a fresh generator for the given (seed, node, round, purpose) key.

    The entropy is SeedSequence((seed, node, round, code)) with each part
    taken modulo 2**64. SeedSequence splits each int of such a tuple into its
    32-bit words, least significant first (one word for 0); it is handed
    those words as one uint32 array, which gives the same generator state
    without its per-int conversion.
    """
    words = []
    for part in (seed & _U64, node & _U64, round_idx & _U64, _purpose_code(purpose)):
        words.append(part & _U32)
        if part > _U32:
            words.append(part >> 32)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
