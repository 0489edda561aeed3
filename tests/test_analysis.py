import math

import numpy as np
import pytest

from dflsim import rng
from dflsim.analysis import (
    BoundParams,
    accuracy_variance,
    mean_accuracy,
    quadratic_bound_rows,
    quadratic_testbed,
    summarize,
    theorem2_bound,
)
from oracles import theorem1_bound


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


class TestBounds:
    def test_single_contraction_step(self):
        # 1 - 3*eta*L = 0.5 with G = 0 halves the initial distance
        p = BoundParams(smoothness=1.0, grad_bound=0.0, eta_schedule=(0.5 / 3.0,), d0=4.0)
        assert theorem1_bound(p, 0) == pytest.approx(2.0)

    def test_zero_rate_keeps_d0(self):
        p = BoundParams(1.0, 5.0, (0.0,) * 10, d0=3.5)
        for t in range(10):
            assert theorem1_bound(p, t) == pytest.approx(3.5)

    def test_recursion_matches_closed_form(self):
        eta, L, G, d0 = 0.07, 2.0, 1.3, 5.0
        p = BoundParams(L, G, (eta,) * 101, d0)
        for t in range(101):
            assert theorem1_bound(p, t) == pytest.approx(
                theorem2_bound(p, t), abs=1e-10
            )

    def test_plateau_limit(self):
        p = BoundParams(1.0, 1.0, (0.1,) * 1, d0=9.0)
        value = theorem2_bound(p, 10**6)
        assert value == pytest.approx(0.1 / 3.0, abs=1e-12)

    def test_zero_noise_geometric_decay(self):
        eta, L, d0 = 0.05, 1.0, 4.0
        p = BoundParams(L, 0.0, (eta,), d0)
        for t in (0, 3, 10):
            assert theorem2_bound(p, t) == pytest.approx(
                (1 - 3 * eta * L) ** (t + 1) * d0
            )

    def test_t_zero_cross_check(self):
        p = BoundParams(1.0, 0.0, (0.5 / 3.0,), d0=4.0)
        assert theorem2_bound(p, 0) == pytest.approx(2.0)
        assert theorem1_bound(p, 0) == pytest.approx(2.0)

    def test_monotone_toward_plateau(self):
        eta, L, G = 0.05, 1.0, 2.0
        plateau = eta * G**2 / (3 * L)
        above = BoundParams(L, G, (eta,), d0=10 * plateau)
        below = BoundParams(L, G, (eta,), d0=0.1 * plateau)
        hi = [theorem2_bound(above, t) for t in range(50)]
        lo = [theorem2_bound(below, t) for t in range(50)]
        assert all(a >= b - 1e-12 for a, b in zip(hi, hi[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(lo, lo[1:]))

    def test_non_contractive_rate_warns_but_computes(self):
        p = BoundParams(1.0, 1.0, (0.5,), d0=1.0)
        with pytest.warns(UserWarning, match="non-contractive"):
            value = theorem2_bound(p, 3)
        assert math.isfinite(value)

    def test_dynamic_schedule_required_length(self):
        p = BoundParams(1.0, 1.0, (0.01, 0.02), d0=1.0)
        with pytest.raises(ValueError):
            theorem1_bound(p, 5)

    def test_theorem2_requires_constant_rate(self):
        p = BoundParams(1.0, 1.0, (0.01, 0.02), d0=1.0)
        with pytest.raises(ValueError):
            theorem2_bound(p, 1)


class TestQuadraticTestbed:
    def test_gradient_vanishes_at_optimum(self):
        testbed = quadratic_testbed(3.0, 8, seed=1)
        np.testing.assert_allclose(testbed.gradient(testbed.w_star), 0.0, atol=1e-12)

    def test_one_exact_step_reaches_optimum(self):
        L = 2.5
        testbed = quadratic_testbed(L, 6, seed=2)
        w = rng.stream(3, purpose="test").standard_normal(6)
        w_next = w - (1.0 / L) * testbed.gradient(w)
        np.testing.assert_allclose(w_next, testbed.w_star, atol=1e-12)

    def test_finite_difference_gradient_check(self):
        testbed = quadratic_testbed(1.7, 5, seed=4)
        gen = rng.stream(5, purpose="test")
        w = gen.standard_normal(5)
        step = 1e-6
        numeric = np.zeros(5)
        for i in range(5):
            up, down = w.copy(), w.copy()
            up[i] += step
            down[i] -= step
            numeric[i] = (testbed.objective(up) - testbed.objective(down)) / (2 * step)
        analytic = testbed.gradient(w)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) <= 1e-6

    def test_bound_rows_structure(self):
        rows = quadratic_bound_rows(
            L=1.0, dim=8, eta=0.1, rounds=50, num_clients=3, noise_scale=0.05, seed=6
        )
        assert len(rows) == 50
        for t, empirical, bound, slack in rows:
            assert math.isfinite(empirical) and math.isfinite(bound)
            assert slack == pytest.approx(bound - empirical)
        # trajectory should approach the optimum on this contractive problem
        assert rows[-1][1] < rows[0][1]

    def test_mean_trajectory_follows_the_exact_recursion(self):
        """The empirical column, averaged over 300 seeds, tracks E D_t exactly.

        K clients average independent N(0, sigma^2 I) gradient noise, so after
        round t, E D_t = (1 - eta L)^{2(t+1)} D + (eta^2 sigma^2 d / K)
        sum_{j <= t} (1 - eta L)^{2j}, where D is the squared distance of the
        mean initial model to w*. The bound's 1 - 3 eta L in its place misses.
        """
        L, dim, eta, rounds, num_clients, sigma = 1.0, 16, 0.1, 60, 4, 0.1
        t = np.arange(rounds)

        def expectation(contraction, d):
            noise = eta ** 2 * sigma ** 2 * dim / num_clients
            return contraction ** (2 * (t + 1)) * d + noise * np.cumsum(contraction ** (2 * t))

        empirical, exact, stated = [], [], []
        for seed in range(300):
            rows = quadratic_bound_rows(L, dim, eta, rounds, num_clients, sigma, seed)
            empirical.append([row[1] for row in rows])
            init = rng.stream(seed, purpose="quadratic-init")
            w_bar = np.mean([init.standard_normal(dim) for _ in range(num_clients)], axis=0)
            d = float(np.sum((w_bar - quadratic_testbed(L, dim, seed).w_star) ** 2))
            exact.append(expectation(1.0 - eta * L, d))
            stated.append(expectation(1.0 - 3.0 * eta * L, d))
        empirical = np.mean(empirical, axis=0)

        def worst_gap(expected):
            expected = np.mean(expected, axis=0)
            return float(np.max(np.abs(empirical - expected) / expected))

        assert worst_gap(exact) <= 0.10
        assert worst_gap(stated) > 0.10
