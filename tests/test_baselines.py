import numpy as np
import pytest

from dflsim import rng
from dflsim.baselines import (
    Flame,
    Krum,
    MultiKrum,
    dfedavg,
    krum_scores,
    median_agg,
    trimmed_mean,
)
from oracles import weighted_row

def pv(values):
    """One parameter row: the values plus a padding bias coordinate."""
    return np.concatenate([np.asarray(values, dtype=float), [0.0]])


def cs(vectors):
    """The closed neighborhood as a matrix, one row per vector in the given order."""
    return np.array([pv(v) for v in vectors])


def body(row):
    """Drop the padding bias coordinate added by pv()."""
    return row[:-1]


class TestDFedAvg:
    def test_mean(self):
        np.testing.assert_allclose(body(dfedavg(cs([[1.0], [3.0]]))), [2.0])

    def test_single(self):
        np.testing.assert_allclose(body(dfedavg(cs([[7.0, -1.0]]))), [7.0, -1.0])

    def test_permutation_invariance(self):
        gen = rng.stream(50, purpose="test")
        vectors = [gen.standard_normal(3) for _ in range(5)]
        a = body(dfedavg(cs(vectors)))
        b = body(dfedavg(cs(vectors[::-1])))
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestMedian:
    def test_coordinate_wise(self):
        out = median_agg(cs([[1.0, 5.0], [2.0, 4.0], [3.0, 0.0]]))
        np.testing.assert_allclose(body(out), [2.0, 4.0])

    def test_single(self):
        np.testing.assert_allclose(body(median_agg(cs([[9.0]]))), [9.0])

    def test_matches_sort_oracle_odd_n(self):
        gen = rng.stream(51, purpose="test")
        for _ in range(30):
            n = int(gen.choice([1, 3, 5, 7]))
            mat = gen.standard_normal((n, 4))
            out = body(median_agg(cs(list(mat))))
            expected = np.sort(mat, axis=0)[(n - 1) // 2]
            np.testing.assert_array_equal(out, expected)

    def test_even_n_lower_median(self):
        out = median_agg(cs([[1.0], [2.0], [3.0], [4.0]]))
        np.testing.assert_allclose(body(out), [2.0])


class TestKrum:
    def test_scores_hand_example(self):
        scores = krum_scores(cs([[0.0], [1.0], [2.0], [10.0]]), f=1)
        assert scores[0] == pytest.approx(1.0)
        assert scores[1] == pytest.approx(1.0)
        assert scores[2] == pytest.approx(1.0)
        assert scores[3] == pytest.approx(64.0)

    def test_identical_candidates_score_zero(self):
        scores = krum_scores(cs([[1.0], [1.0], [5.0], [9.0]]), f=1)
        assert scores[0] == 0.0 and scores[1] == 0.0

    def test_selection_tie_break_lowest_id(self):
        out = weighted_row(Krum(f=1), cs([[0.0], [1.0], [2.0], [10.0]]))
        np.testing.assert_allclose(body(out), [0.0])

    def test_all_identical(self):
        out = weighted_row(Krum(f=1), cs([[3.0, 3.0]] * 4))
        np.testing.assert_allclose(body(out), [3.0, 3.0])

    def test_never_selects_far_outlier(self):
        gen = rng.stream(52, purpose="test")
        for _ in range(20):
            inliers = [gen.normal(0, 1, 3) for _ in range(5)]
            outlier = gen.normal(0, 1, 3) + 1000.0
            out = body(weighted_row(Krum(f=1), cs(inliers + [outlier])))
            assert np.linalg.norm(out) < 100.0

    def test_too_few_candidates(self):
        with pytest.raises(ValueError, match="n - f - 2"):
            weighted_row(Krum(f=1), cs([[0.0], [1.0], [2.0]]))

    def test_is_multi_krum_keeping_one(self):
        # Random (g, k, P) groups; some have an all-NaN row, some a duplicated row, so scores tie.
        gen = rng.stream(58, purpose="test")
        nan_groups = tied_groups = 0
        for _ in range(240):
            f = int(gen.integers(0, 4))
            g, k = int(gen.integers(1, 6)), int(gen.integers(f + 3, 16))
            p = int(gen.choice([7, 130, 650]))
            params = 10.0 ** int(gen.integers(-3, 4)) * gen.standard_normal((g, k, p))
            if gen.random() < 0.4:
                params[gen.integers(g), gen.integers(k)] = np.nan
                nan_groups += 1
            if gen.random() < 0.4:
                source, copy = gen.choice(k, 2, replace=False)
                params[:, copy] = params[:, source]
                tied_groups += 1
            own = np.zeros(g, dtype=int)
            krum, keeping_one = Krum(f).weights(params, own), MultiKrum(f, 1).weights(params, own)
            assert krum.tobytes() == keeping_one.tobytes()
        assert nan_groups > 50 and tied_groups > 50


class TestMultiKrum:
    def test_m_one_reduces_to_krum(self):
        # The second group's NaN row scores NaN, sorts last and takes no weight.
        for vectors, chosen in (([[0.0], [1.0], [2.0], [10.0]], [0.0]),
                                ([[0.0], [1.0], [np.nan], [2.0], [10.0]], [1.0])):
            candidates = cs(vectors)
            out = weighted_row(Krum(f=1), candidates)
            np.testing.assert_array_equal(weighted_row(MultiKrum(f=1, m=1), candidates), out)
            np.testing.assert_array_equal(body(out), chosen)

    def test_m_n_reduces_to_mean(self):
        candidates = cs([[0.0], [1.0], [2.0], [10.0]])
        np.testing.assert_allclose(
            weighted_row(MultiKrum(f=1, m=4), candidates), dfedavg(candidates)
        )

    def test_hand_example(self):
        out = weighted_row(MultiKrum(f=1, m=2), cs([[0.0], [1.0], [2.0], [10.0]]))
        np.testing.assert_allclose(body(out), [0.5])

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            weighted_row(MultiKrum(f=1, m=5), cs([[0.0], [1.0], [2.0], [10.0]]))


class TestTrimmedMean:
    def test_hand_example(self):
        out = trimmed_mean(cs([[1.0], [2.0], [3.0], [4.0], [5.0]]), f=1)
        np.testing.assert_allclose(body(out), [3.0])

    def test_f_zero_is_mean(self):
        candidates = cs([[1.0, 2.0], [5.0, -2.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            trimmed_mean(candidates, f=0), dfedavg(candidates)
        )

    def test_matches_sort_oracle(self):
        gen = rng.stream(53, purpose="test")
        for _ in range(30):
            n = int(gen.integers(3, 9))
            f = int(gen.integers(0, (n - 1) // 2 + 1))
            mat = gen.standard_normal((n, 3))
            out = body(trimmed_mean(cs(list(mat)), f=f))
            expected = np.sort(mat, axis=0)[f:n - f].mean(axis=0)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_requires_n_greater_than_2f(self):
        with pytest.raises(ValueError, match="n > 2f"):
            trimmed_mean(cs([[0.0], [1.0]]), f=1)


class TestFlame:
    def test_identical_pair(self):
        out = weighted_row(Flame(beta=1.0), cs([[0.0], [0.0]]))
        np.testing.assert_allclose(body(out), [0.0])

    def test_hand_example_with_self(self):
        out = weighted_row(Flame(beta=1.0), cs([[0.0], [1.0]]))
        np.testing.assert_allclose(body(out), [1.0 / 3.0], rtol=1e-12)

    def test_literal_neighbors_only_form(self):
        out = weighted_row(Flame(beta=1.0, include_self=False), cs([[0.0], [1.0]]))
        np.testing.assert_allclose(body(out), [1.0])

    def test_fixed_point_when_all_equal(self):
        own = pv([2.0, -1.0])
        out = weighted_row(Flame(beta=0.5), np.array([own, own, own]))
        np.testing.assert_allclose(out, own, atol=1e-12)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            weighted_row(Flame(beta=0.0), cs([[0.0], [1.0]]))


class TestSharedProperties:
    def aggregators(self, candidates):
        n = len(candidates)
        out = [("dfedavg", dfedavg(candidates)), ("median", median_agg(candidates))]
        if n >= 4:
            out.append(("krum", weighted_row(Krum(f=1), candidates)))
            out.append(("mkrum", weighted_row(MultiKrum(f=1, m=2), candidates)))
        if n >= 3:
            out.append(("trimmed", trimmed_mean(candidates, f=1)))
        out.append(("flame", weighted_row(Flame(beta=1.0), candidates)))
        return out

    def test_translation_equivariance(self):
        gen = rng.stream(54, purpose="test")
        for _ in range(10):
            vectors = [gen.standard_normal(4) for _ in range(5)]
            shift = gen.standard_normal(4)
            base = cs(vectors)
            shifted = cs([v + shift for v in vectors])
            for (name, a), (_, b) in zip(self.aggregators(base), self.aggregators(shifted)):
                np.testing.assert_allclose(
                    body(b), body(a) + shift, atol=1e-9, err_msg=name
                )

    def test_value_permutation_invariance(self):
        # shuffle values while keeping the id ordering; id-dependent tie-breaks
        # cannot fire because all values are distinct with probability 1
        gen = rng.stream(55, purpose="test")
        for _ in range(10):
            vectors = [gen.standard_normal(3) for _ in range(5)]
            perm = gen.permutation(5)
            base = cs(vectors)
            shuffled = cs([vectors[p] for p in perm])
            for (name, a), (_, b) in zip(
                self.aggregators(base), self.aggregators(shuffled)
            ):
                if name == "flame":
                    continue  # flame is anchored on the own model, not a set
                np.testing.assert_allclose(body(b), body(a), atol=1e-9, err_msg=name)

    def test_breakdown_outliers_stay_in_inlier_hull(self):
        gen = rng.stream(56, purpose="test")
        inliers = [gen.normal(0, 1, 5) for _ in range(10)]
        attackers = [gen.normal(1e6, 1, 5) for _ in range(2)]
        candidates = cs(inliers + attackers)
        lo = np.min(inliers, axis=0)
        hi = np.max(inliers, axis=0)
        for name, agg in [
            ("median", median_agg(candidates)),
            ("krum", weighted_row(Krum(f=2), candidates)),
            ("mkrum", weighted_row(MultiKrum(f=2, m=2), candidates)),
            ("trimmed", trimmed_mean(candidates, f=2)),
        ]:
            out = body(agg)
            assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9), name
