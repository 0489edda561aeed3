import warnings

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


def seed_sequence_state(seed, node, round_idx, purpose):
    key = (seed & U64, node, round_idx, rng._purpose_code(purpose))
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


NODES = [0, 1, 2**32 - 1]
ROUNDS = [0, 1, 127, 128, 129]


@pytest.mark.parametrize("seed", EDGE_KEYS)
@pytest.mark.parametrize("purpose", ["minibatch", "attack", ""])
def test_seed_states_equal_the_seed_sequence_of_each_key(seed, purpose):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = rng.seed_states(seed, NODES, ROUNDS, purpose)
    assert states.shape == (len(NODES), len(ROUNDS), 4) and states.dtype == np.uint64
    for i, node in enumerate(NODES):
        for j, round_idx in enumerate(ROUNDS):
            assert states[i, j].tolist() == seed_sequence_state(seed, node, round_idx, purpose).tolist()
            built = np.random.Generator(np.random.PCG64(rng._PresetSeed(states[i, j])))
            assert built.bit_generator.state == rng.stream(seed, node, round_idx, purpose).bit_generator.state


@pytest.mark.parametrize("nodes, rounds, named", [
    ([0, 2**32], [1], "node 4294967296"),
    ([3], [5, 2**32 + 1], "round 4294967297"),
    ([-1], [1], "node -1"),
    ([0], [2**70], "round 1180591620717411303424"),
])
def test_seed_states_reject_a_node_or_round_wider_than_one_word(nodes, rounds, named):
    with pytest.raises(ValueError, match=named):
        rng.seed_states(43, nodes, rounds, "minibatch")


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_preset_seed_gives_only_a_pcg64_seed(n_words, dtype):
    preset = rng._PresetSeed(rng.seed_states(43, [0], [1], "minibatch")[0, 0])
    assert preset.generate_state(4, np.uint64).shape == (4,)
    with pytest.raises(ValueError, match="only a PCG64 seed"):
        preset.generate_state(n_words, dtype)


def test_round_streams_give_each_rounds_streams_across_blocks():
    nodes = [4, 0, 9]
    streams = rng.RoundStreams(45, nodes, "minibatch")
    for t in (1, 127, 128, 129, 300, 2):
        gens = streams.generators(t)
        assert [g.bit_generator.state for g in gens] == [
            rng.stream(45, k, t, "minibatch").bit_generator.state for k in nodes]
        assert streams._states.shape == (len(nodes), rng.RoundStreams.BLOCK, 4)
