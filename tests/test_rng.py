import numpy as np
import pytest

from dflsim import rng

U64 = (1 << 64) - 1
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**33) - 7, 2**64 + 3, 2**100 + 2**40]


def tuple_derivation(seed, node, round_idx, purpose):
    key = (seed & U64, node & U64, round_idx & U64, rng._purpose_code(purpose))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


@pytest.mark.parametrize("value", EDGE_KEYS)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_stream_equals_the_tuple_seed_sequence(value, position):
    key = [43, 5, 17]
    key[position] = value
    for purpose in ("minibatch", "attack", ""):
        ours, theirs = rng.stream(*key, purpose), tuple_derivation(*key, purpose)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(0, 2**63, 4).tolist() == theirs.integers(0, 2**63, 4).tolist()


def test_keys_equal_modulo_two_to_the_64_give_one_stream():
    a, b = rng.stream(-1, 2**64 + 3, 7, "x"), rng.stream(U64, 3, 7, "x")
    assert a.bit_generator.state == b.bit_generator.state
