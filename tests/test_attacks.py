import inspect
from statistics import NormalDist

import numpy as np
import pytest

from dflsim import rng
from dflsim.attacks import (
    AdversaryView,
    alie_update,
    auto_alie_z,
    gaussian_update,
    sign_flip_update,
)
from dflsim.core_learning import ParamVector


def pv(values):
    values = np.asarray(values, dtype=float)
    return ParamVector(np.concatenate([values, [0.0]]), 1, len(values))


def view(benign_vectors, num_nodes=12, num_malicious=2):
    models = np.array([pv(v).values for v in benign_vectors])
    return AdversaryView(models, pv(benign_vectors[0]).values, num_nodes, num_malicious)


class TestGaussian:
    def test_sample_statistics(self):
        gen = rng.stream(60, purpose="test")
        out = gaussian_update(100 * 999 + 100, 30.0, gen)
        assert out.shape == (100 * 999 + 100,)
        assert -0.5 < out.mean() < 0.5
        assert 29.5 < out.std() < 30.5

    def test_replay_identical(self):
        a = gaussian_update(2 * 3 + 2, 30.0, rng.stream(7, 1, 5, "attack"))
        b = gaussian_update(2 * 3 + 2, 30.0, rng.stream(7, 1, 5, "attack"))
        np.testing.assert_array_equal(a, b)

    def test_shape_preserved(self):
        out = gaussian_update(4 * 6 + 4, 1.0, rng.stream(8, purpose="test"))
        assert out.shape == (4 * 6 + 4,)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            gaussian_update(2 * 2 + 2, 0.0, rng.stream(9, purpose="test"))


class TestSignFlip:
    def test_zero_vector(self):
        out = sign_flip_update(pv([0.0, 0.0]).values, -10.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_paper_factor(self):
        out = sign_flip_update(pv([1.0, -2.0]).values, -10.0)
        np.testing.assert_allclose(out[:-1], [-10.0, 20.0])

    def test_double_application(self):
        model = pv([3.0, -0.5])
        twice = sign_flip_update(sign_flip_update(model.values, -10.0), -10.0)
        np.testing.assert_allclose(twice, 100.0 * model.values)


class TestAlie:
    def test_identical_benign_models(self):
        common = [1.0, -2.0, 0.5]
        out = alie_update(view([common, common, common]), z=5.0)
        np.testing.assert_allclose(out[:-1], common, atol=1e-12)

    def test_hand_arithmetic(self):
        out = alie_update(view([[0.0], [2.0]]), z=1.0)
        np.testing.assert_allclose(out[:-1], [0.0], atol=1e-12)

    def test_z_zero_is_benign_mean(self):
        out = alie_update(view([[1.0], [5.0], [3.0]]), z=0.0)
        np.testing.assert_allclose(out[:-1], [3.0], atol=1e-12)

    def test_population_std_used(self):
        # sample std of {0, 2} is sqrt(2); population std is 1
        out = alie_update(view([[0.0], [2.0]]), z=2.0)
        np.testing.assert_allclose(out[:-1], [-1.0], atol=1e-12)

    def test_requires_two_benign_models(self):
        with pytest.raises(ValueError):
            alie_update(view([[1.0]]), z=1.0)

    def test_auto_z_matches_quantile_formula(self):
        # n=10, m=4: s = 6 - 4 = 2, ratio = 4/6
        expected = NormalDist().inv_cdf((10 - 4 - 2) / (10 - 4))
        assert auto_alie_z(10, 4) == pytest.approx(expected)
        # n=12, m=2: s = 7 - 2 = 5, ratio = 1/2 -> z = 0
        assert auto_alie_z(12, 2) == 0.0

    def test_auto_z_clamped(self):
        # tiny malicious share pushes the quantile far right
        assert auto_alie_z(1000, 1) <= 3.0

    def test_auto_z_infeasible_warns(self):
        with pytest.warns(UserWarning, match="infeasible"):
            assert auto_alie_z(4, 3) == 0.0

    def test_auto_resolution_in_update(self):
        # z resolves to 0 for n=12, m=2, so the payload is the benign mean
        out = alie_update(view([[1.0], [3.0]], num_nodes=12, num_malicious=2), z=None)
        np.testing.assert_allclose(out[:-1], [2.0], atol=1e-12)


class TestInformationFlow:
    def test_attack_functions_never_see_datasets(self):
        # attacks receive only the AdversaryView (or size+rng); no signature
        # accepts a Dataset, so malicious nodes cannot read benign data
        for fn in (gaussian_update, sign_flip_update, alie_update):
            for param in inspect.signature(fn).parameters.values():
                assert "Dataset" not in str(param.annotation)
