import math

import pytest

from dflsim import rng
from dflsim.analysis import accuracy_variance, mean_accuracy, summarize


class TestMetrics:
    def test_mean_examples(self):
        assert mean_accuracy([1.0, 1.0]) == 1.0
        assert mean_accuracy([0.8, 0.9]) == pytest.approx(0.85)

    def test_mean_matches_plain_sum(self):
        gen = rng.stream(70, purpose="test")
        for _ in range(20):
            values = gen.uniform(0, 1, size=int(gen.integers(1, 40)))
            total = 0.0
            for v in values:
                total += float(v)
            assert mean_accuracy(values) == pytest.approx(total / len(values), abs=1e-12)

    def test_variance_examples(self):
        assert accuracy_variance([90.0, 90.0]) == 0.0
        assert accuracy_variance([80.0, 90.0]) == pytest.approx(25.0)

    def test_variance_shift_invariant(self):
        gen = rng.stream(71, purpose="test")
        values = gen.uniform(0, 100, size=12)
        assert accuracy_variance(values) == pytest.approx(
            accuracy_variance(values + 13.0), abs=1e-9
        )

    def test_variance_nonnegative_and_zero_iff_equal(self):
        gen = rng.stream(72, purpose="test")
        for _ in range(50):
            values = gen.uniform(0, 100, size=6)
            assert accuracy_variance(values) >= 0.0
        assert accuracy_variance([5.0] * 8) <= 1e-12
        assert accuracy_variance([5.0, 5.0001]) > 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_accuracy([])
        with pytest.raises(ValueError):
            accuracy_variance([])


class TestSummarize:
    # (round, seed, client, acc, loss): seed 9 before seed 2, two rounds each.
    ROWS = [
        (0, 9, 0, 0.1, 2.0), (0, 9, 2, 0.3, 2.1),
        (1, 9, 0, 0.7, 1.0), (1, 9, 2, 0.6, 1.2),
        (0, 2, 0, 0.2, 2.2), (0, 2, 2, 0.2, 2.3),
        (1, 2, 0, 0.9, 0.5), (1, 2, 2, 0.8, 0.4),
    ]

    def test_blocks_come_from_each_seeds_last_round_in_order_of_appearance(self):
        per_seed, cross_seed = summarize(self.ROWS)
        assert list(per_seed) == ["9", "2"]
        assert per_seed["9"] == {
            "final_accuracies": {"0": 0.7, "2": 0.6},
            "final_losses": {"0": 1.0, "2": 1.2},
            "mean_acc": mean_accuracy([0.7, 0.6]),
            "var_points": accuracy_variance([70.0, 60.0]),
        }
        assert cross_seed == {
            "mean_acc": mean_accuracy([mean_accuracy([0.7, 0.6]), mean_accuracy([0.9, 0.8])]),
            "var_points": mean_accuracy([accuracy_variance([70.0, 60.0]),
                                         accuracy_variance([90.0, 80.0])]),
        }

    def test_csv_strings_give_the_same_blocks_as_numbers(self):
        as_csv = [[str(t), str(seed), str(k), repr(acc), repr(loss), "0.5", "1.0"]
                  for t, seed, k, acc, loss in self.ROWS]
        assert summarize(as_csv) == summarize(self.ROWS)

    def test_final_round_is_the_largest_not_the_last_listed(self):
        per_seed, _ = summarize(self.ROWS[2:4] + self.ROWS[:2])
        assert per_seed["9"]["final_accuracies"] == {"0": 0.7, "2": 0.6}

    def test_final_block_holds_only_the_clients_of_the_final_round(self):
        per_seed, _ = summarize([(0, 5, 0, 0.1, 2.0), (0, 5, 1, 0.2, 2.0), (3, 5, 1, 0.9, 0.3)])
        assert per_seed["5"]["final_accuracies"] == {"1": 0.9}
        assert per_seed["5"]["var_points"] == 0.0

    def test_cross_seed_variance_averages_the_seeds_not_the_pooled_clients(self):
        # Each seed agrees within itself; pooling both would give a variance of 25 points.
        rows = [(0, 1, 0, 0.8, 1.0), (0, 1, 1, 0.8, 1.0), (0, 2, 0, 0.9, 1.0), (0, 2, 1, 0.9, 1.0)]
        _, cross_seed = summarize(rows)
        assert cross_seed == {"mean_acc": pytest.approx(0.85), "var_points": 0.0}

    def test_no_rows_give_no_cross_seed_block(self):
        assert summarize([]) == ({}, None)


class TestComparisons:
    def test_fairness_table_shaped_fixture(self):
        # reweighting vs plain averaging under 4-class label skew:
        # Var 4.125 (Acc 95.414) vs Var 107.049 (Acc 85.449)
        reweighted = [95.414 - math.sqrt(4.125), 95.414 + math.sqrt(4.125)]
        averaged = [85.449 - math.sqrt(107.049), 85.449 + math.sqrt(107.049)]
        assert accuracy_variance(reweighted) == pytest.approx(4.125)
        assert accuracy_variance(averaged) == pytest.approx(107.049)
