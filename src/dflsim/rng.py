"""Deterministic per-purpose random streams.

Every stochastic choice in a run draws from a generator keyed by
(seed, node, round, purpose), so results are independent of scheduling
and worker count: any worker asking for the same key gets the same stream.

rng.stream defines a stream. Local SGD takes its minibatch generators from a
RoundStreams holder instead, which seeds the PCG64 generators of many keys at
once (seed_states) and gives each one the state rng.stream's would have.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    parts = (seed & _U64, node & _U64, round_idx & _U64, _purpose_code(purpose))
    entropy = np.array([word for part in parts for word in _words(part)], dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# SeedSequence's hashing constants, from numpy/random/bit_generator.pyx. Its
# output is covered by NumPy's stream-compatibility policy.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: each call xors in the hash constant, steps it
    (times mult, modulo 2**32) and multiplies by the new value."""
    const = init

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _U32
        value = value * const
        return value ^ (value >> _XSHIFT)

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _words(part: int) -> list:
    """SeedSequence's 32-bit words of an int in [0, 2**64), least significant first."""
    return [part & _U32, part >> 32] if part > _U32 else [part]


def _one_word(values, name: str) -> np.ndarray:
    values = [int(v) for v in values]
    for value in values:
        if not 0 <= value <= _U32:
            raise ValueError(f"{name} {value} does not fit in one 32-bit word")
    return np.array(values, dtype=np.uint32)


def seed_states(seed: int, nodes, rounds, purpose: str) -> np.ndarray:
    """(len(nodes), len(rounds), 4) uint64: entry [i, j] is the PCG64 seed
    SeedSequence(key).generate_state(4, np.uint64) of the key rng.stream
    builds for (seed, nodes[i], rounds[j], purpose).

    SeedSequence's mix_entropy and generate_state run over the whole key grid
    at once, in uint32 array arithmetic that wraps as its C code does. Nodes
    and rounds must lie in [0, 2**32), so each is one word of the key.
    """
    nodes, rounds = _one_word(nodes, "node"), _one_word(rounds, "round")
    shape = (len(nodes), len(rounds))
    entropy = [np.full(shape, word, dtype=np.uint32) for word in _words(seed & _U64)]
    entropy += [np.broadcast_to(nodes[:, None], shape), np.broadcast_to(rounds[None, :], shape)]
    entropy += [np.full(shape, word, dtype=np.uint32) for word in _words(_purpose_code(purpose))]

    hashmix = _hasher(_INIT_A, _MULT_A)
    # A key has at least four words, so the pool needs no zero padding.
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=-1)
    # Word pairs, low word first, as generate_state joins them into uint64.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _PresetSeed(ISeedSequence):
    """A seed sequence that holds one precomputed PCG64 seed, the (4,) uint64
    state that PCG64 asks a SeedSequence for, and nothing else."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only a PCG64 seed (4 uint64 words) is held, not {n_words} of {dtype}")
        return self.state


class RoundStreams:
    """The generators of one purpose for a fixed list of nodes, round by round.

    generators(t)[i] has the state of stream(seed, nodes[i], t, purpose).
    The seeds of a block of BLOCK consecutive rounds are computed in one
    seed_states pass when a round outside the current block is asked for, so
    the memory held grows with the node count only.
    """

    BLOCK = 128

    def __init__(self, seed: int, nodes, purpose: str):
        self.seed, self.nodes, self.purpose = seed, list(nodes), purpose
        self._first, self._states = None, None

    def generators(self, t: int) -> list:
        first = t - t % self.BLOCK
        if first != self._first:
            rounds = range(first, first + self.BLOCK)
            self._states = seed_states(self.seed, self.nodes, rounds, self.purpose)
            self._states.setflags(write=False)
            self._first = first
        return [np.random.Generator(np.random.PCG64(_PresetSeed(state)))
                for state in self._states[:, t - first]]
