import math

import numpy as np
import pytest

import oracles
from dflsim import rng
from dflsim.core_learning import (
    GATHER,
    Dataset,
    ParamVector,
    ShapeError,
    batch_gradient,
    evaluate_accuracy,
    evaluate_mean_loss,
    pair_logits,
    pairs_accuracy,
    pairs_mean_loss,
    sgd_step,
    stacked_gradient,
    stacked_sgd_step,
)
from dflsim.data import gen_synthetic_blobs
from dflsim.reweight import SENTINEL, TargetMetricKind, compute_tpm
from oracles import batch_loss, predict_probs


def random_problem(gen, num_classes=None, feature_dim=None, n=None):
    C = num_classes or int(gen.integers(2, 6))
    d = feature_dim or int(gen.integers(1, 8))
    n = n or int(gen.integers(2, 30))
    model = ParamVector(gen.standard_normal(C * d + C), C, d)
    data = Dataset(gen.standard_normal((n, d)), gen.integers(0, C, size=n), C)
    return model, data


def finite_difference_gradient(model, data, batch, step=1e-5):
    """Central-difference oracle, independent of the analytic path."""
    base = model.values
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        plus = base.copy()
        plus[i] += step
        minus = base.copy()
        minus[i] -= step
        lp = batch_loss(ParamVector(plus, model.num_classes, model.feature_dim), data, batch)
        lm = batch_loss(ParamVector(minus, model.num_classes, model.feature_dim), data, batch)
        grad[i] = (lp - lm) / (2 * step)
    return grad


class TestPredictProbs:
    def test_zero_model_uniform(self):
        model = ParamVector(np.zeros(4 * 3 + 4), 4, 3)
        probs = predict_probs(model, [1.0, -2.0, 0.5])
        np.testing.assert_allclose(probs, np.full(4, 0.25), atol=1e-12)

    def test_equal_logits(self):
        model = ParamVector([1.0, -1.0, 0.0, 0.0], 2, 1)
        np.testing.assert_allclose(predict_probs(model, [0.0]), [0.5, 0.5], atol=1e-12)

    def test_direct_softmax_value(self):
        model = ParamVector([1.0, 0.0, 0.0, 0.0], 2, 1)
        expected = np.array([math.e / (math.e + 1), 1 / (math.e + 1)])
        np.testing.assert_allclose(predict_probs(model, [1.0]), expected, rtol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        gen = rng.stream(11, purpose="test")
        for _ in range(50):
            model, data = random_problem(gen)
            x = data.features[0]
            probs = predict_probs(model, x)
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= 0)
            shifted = model.replace_values(
                np.concatenate([model.weights.reshape(-1), model.bias + 7.5])
            )
            np.testing.assert_allclose(probs, predict_probs(shifted, x), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            predict_probs(ParamVector(np.zeros(2 * 3 + 2), 2, 3), [1.0, 2.0])


class TestMeanLoss:
    """Each batch spans its whole dataset, so evaluate_mean_loss computes it."""

    def test_zero_model_ln_c(self):
        gen = rng.stream(12, purpose="test")
        data = Dataset(gen.standard_normal((8, 5)), gen.integers(0, 10, size=8), 10)
        model = ParamVector(np.zeros(10 * 5 + 10), 10, 5)
        loss = evaluate_mean_loss(model, data)
        assert loss == pytest.approx(math.log(10), rel=1e-12)

    def test_separating_model_small_loss(self):
        data = Dataset([[1.0], [-1.0]], [0, 1], 2)
        model = ParamVector([20.0, -20.0, 0.0, 0.0], 2, 1)
        assert evaluate_mean_loss(model, data) < 1e-3

    def test_single_example_value(self):
        data = Dataset([[1.0]], [0], 2)
        model = ParamVector([1.0, 0.0, 0.0, 0.0], 2, 1)
        expected = -math.log(math.e / (math.e + 1))
        assert evaluate_mean_loss(model, data) == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(0.31326, abs=1e-5)

    def test_confident_misprediction_is_finite(self):
        data = Dataset([[1.0]], [1], 2)
        model = ParamVector([1e4, -1e4, 0.0, 0.0], 2, 1)
        loss = evaluate_mean_loss(model, data)
        assert math.isfinite(loss)
        assert loss <= -math.log(1e-12) + 1e-9


class TestBatchGradient:
    def test_matches_finite_differences(self):
        gen = rng.stream(13, purpose="test")
        for _ in range(50):
            model, data = random_problem(gen)
            size = int(gen.integers(1, len(data) + 1))
            batch = gen.choice(len(data), size=size, replace=False)
            analytic = batch_gradient(model, data, batch).values
            numeric = finite_difference_gradient(model, data, batch)
            denom = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-4

    def test_zero_features_zero_weight_gradient(self):
        data = Dataset(np.zeros((4, 3)), [0, 1, 0, 1], 2)
        gen = rng.stream(14, purpose="test")
        model = ParamVector(gen.standard_normal(8), 2, 3)
        grad = batch_gradient(model, data, np.arange(4))
        np.testing.assert_allclose(grad.weights, 0.0, atol=1e-15)

    def test_uniform_model_bias_gradient(self):
        C, d = 5, 3
        data = Dataset([[0.3, -0.2, 1.0]], [2], C)
        grad = batch_gradient(ParamVector(np.zeros(C * d + C), C, d), data, [0])
        expected = np.full(C, 1.0 / C)
        expected[2] -= 1.0
        np.testing.assert_allclose(grad.bias, expected, atol=1e-12)


class TestSgdStep:
    def test_zero_gradient_identity(self):
        model = ParamVector([1.0, 2.0, 3.0, 4.0], 1, 3)
        out = sgd_step(model, ParamVector(np.zeros(1 * 3 + 1), 1, 3), 0.1)
        np.testing.assert_array_equal(out.values, model.values)

    def test_arithmetic(self):
        model = ParamVector([1.0, 2.0], 1, 1)
        grad = ParamVector([1.0, -1.0], 1, 1)
        out = sgd_step(model, grad, 0.01)
        np.testing.assert_allclose(out.values, [0.99, 2.01], atol=1e-15)

    def test_input_unchanged(self):
        model = ParamVector([1.0, 2.0], 1, 1)
        sgd_step(model, ParamVector([1.0, 1.0], 1, 1), 0.5)
        np.testing.assert_array_equal(model.values, [1.0, 2.0])

    def test_quadratic_contraction(self):
        # f(w) = (L/2) ||w||^2 with lr < 2/L contracts the norm each step
        L, lr = 4.0, 0.3
        gen = rng.stream(15, purpose="test")
        w = ParamVector(gen.standard_normal(6), 2, 2)
        prev = np.linalg.norm(w.values)
        for _ in range(20):
            grad = w.replace_values(L * w.values)
            w = sgd_step(w, grad, lr)
            now = np.linalg.norm(w.values)
            assert now <= prev + 1e-12
            prev = now

    def test_two_steps_equal_one_combined(self):
        gen = rng.stream(16, purpose="test")
        model = ParamVector(gen.standard_normal(10), 2, 4)
        grad = ParamVector(gen.standard_normal(10), 2, 4)
        a, b = 0.013, 0.021
        two = sgd_step(sgd_step(model, grad, a), grad, b)
        one = sgd_step(model, grad, a + b)
        np.testing.assert_allclose(two.values, one.values, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step(ParamVector(np.zeros(2 * 2 + 2), 2, 2),
                     ParamVector(np.zeros(2 * 3 + 2), 2, 3), 0.1)

    def test_nonpositive_lr(self):
        with pytest.raises(ValueError):
            sgd_step(ParamVector(np.zeros(2 * 2 + 2), 2, 2),
                     ParamVector(np.zeros(2 * 2 + 2), 2, 2), 0.0)


class TestEvaluate:
    def test_constant_predictor(self):
        data = Dataset([[0.0], [1.0], [2.0]], [0, 0, 0], 3)
        model = ParamVector([0.0, 0.0, 0.0, 5.0, 0.0, 0.0], 3, 1)
        assert evaluate_accuracy(model, data) == 1.0

    def test_tie_break_lowest_class(self):
        data = Dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1], 2)
        assert evaluate_accuracy(ParamVector(np.zeros(2 * 1 + 2), 2, 1), data) == 0.5

    def test_matches_per_example_loop(self):
        gen = rng.stream(17, purpose="test")
        for _ in range(20):
            model, data = random_problem(gen)
            count = 0
            for i in range(len(data)):
                probs = predict_probs(model, data.features[i])
                if int(np.argmax(probs)) == int(data.labels[i]):
                    count += 1
            assert evaluate_accuracy(model, data) == pytest.approx(count / len(data))

    def test_mean_loss_equals_full_batch(self):
        gen = rng.stream(18, purpose="test")
        model, data = random_problem(gen)
        full = batch_loss(model, data, np.arange(len(data)))
        assert evaluate_mean_loss(model, data) == full

    def test_mean_loss_zero_model(self):
        gen = rng.stream(19, purpose="test")
        data = Dataset(gen.standard_normal((6, 4)), gen.integers(0, 10, size=6), 10)
        assert evaluate_mean_loss(ParamVector(np.zeros(10 * 4 + 10), 10, 4), data) == pytest.approx(
            math.log(10), rel=1e-12
        )

    def test_mean_of_single_example_losses(self):
        gen = rng.stream(20, purpose="test")
        model, data = random_problem(gen)
        per_example = [
            batch_loss(model, data, [i]) for i in range(len(data))
        ]
        assert evaluate_mean_loss(model, data) == pytest.approx(
            float(np.mean(per_example)), abs=1e-10
        )

    def test_pair_logits_equal_logits_on_broadcast_feature_blocks(self):
        # Two parts of different k in one call, as a plan's scoring blocks hold them.
        gen = rng.stream(22, purpose="test")
        C, d, g, k, n = 4, 7, 3, 5, 11
        params = gen.standard_normal((g, k, C * d + C)).reshape(g * k, -1)
        before = params.copy()
        features = np.stack([gen.standard_normal((n, d)) for _ in range(g)])[:, None]
        ids = np.arange(g * k).reshape(g, k)
        other_features = np.stack([gen.standard_normal((n, d)) for _ in range(2)])[:, None]
        other_ids = np.stack([np.sort(gen.choice(g * k, size=3, replace=False)) for _ in range(2)])
        logits = pair_logits(params, [(features, ids), (other_features, other_ids)], C)
        assert params.tobytes() == before.tobytes()
        assert logits.shape == (g * k + other_ids.size, n, C)
        datasets = [features[i, 0] for i in range(g) for _ in range(k)]
        datasets += [other_features[i, 0] for i, row in enumerate(other_ids) for _ in row]
        members = np.concatenate([ids.reshape(-1), other_ids.reshape(-1)])
        for pair, (member, dataset) in enumerate(zip(members, datasets)):
            expected = oracles.logits(ParamVector(params[member], C, d), dataset)
            assert logits[pair].tobytes() == expected.tobytes()

    def test_pair_logits_split_at_the_gather_budget_equal_logits(self):
        # d=1000, C=4: the k=3 part runs two whole rows per matmul and then one;
        # a k=10 row alone holds more than GATHER, so it runs 8 members, then 2.
        gen = rng.stream(23, purpose="test")
        C, d, n = 4, 1000, 6
        assert GATHER // (3 * C * d) == 2 and GATHER // (C * d) == 8
        params = gen.standard_normal((12, C * d + C))
        shapes = [(5, 3), (2, 10)]
        parts = [(gen.standard_normal((g, 1, n, d)),
                  np.stack([np.sort(gen.choice(12, size=k, replace=False)) for _ in range(g)]))
                 for g, k in shapes]
        logits = pair_logits(params, parts, C)
        members = np.concatenate([ids.reshape(-1) for _, ids in parts])
        datasets = [features[i, 0] for features, ids in parts for i, row in enumerate(ids) for _ in row]
        for pair, (member, dataset) in enumerate(zip(members, datasets)):
            expected = oracles.logits(ParamVector(params[member], C, d), dataset)
            assert logits[pair].tobytes() == expected.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)), [], 2)


class TestLocalDescent:
    def test_full_batch_step_never_increases_loss(self):
        gen = rng.stream(21, purpose="test")
        for _ in range(10):
            model, data = random_problem(gen)
            batch = np.arange(len(data))
            before = batch_loss(model, data, batch)
            stepped = sgd_step(model, batch_gradient(model, data, batch), 1e-3)
            after = batch_loss(stepped, data, batch)
            assert after <= before + 1e-6


class TestBatchGradientChecks:
    """The minibatch checks batch_gradient makes, each with its message."""

    @pytest.mark.parametrize("rows, message", [
        ([], "minibatch must be nonempty"),
        ([0, 1, 2, 0], "minibatch larger than dataset"),
        ([0, 3], "minibatch index out of range"),
        ([-1], "minibatch index out of range"),
    ])
    def test_rejected_rows(self, rows, message):
        data = Dataset([[1.0], [2.0], [3.0]], [0, 1, 0], 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            batch_gradient(ParamVector(np.zeros(2 * 1 + 2), 2, 1), data, rows)

    def test_dimension_mismatch(self):
        data = Dataset([[1.0, 2.0]], [0], 2)
        with pytest.raises(ShapeError, match="^model and dataset dimensions disagree$"):
            batch_gradient(ParamVector(np.zeros(2 * 1 + 2), 2, 1), data, [0])


def _one_pair_logits(model, features):
    return pair_logits(model.values[None], [(features[None, None], np.zeros((1, 1), np.intp))],
                       model.num_classes)


def _pairs_tpm(kind, model, data):
    """kind's pairs kernel on the one pair, non-finite values mapped to the
    sentinel as reweight_round maps them. The loss kernel gets a C-ordered
    copy of the features, as evaluate_mean_loss gathers one."""
    loss = kind is TargetMetricKind.LOSS_ON_AUX
    features = np.ascontiguousarray(data.features) if loss else data.features
    value = kind.kernel("pairs")(_one_pair_logits(model, features), data.labels[None])[0]
    return value if np.isfinite(value) else SENTINEL


_LR = 0.05


def _bytes(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _gathered(data, rows):
    """The (1, B, d) features and (1, B) labels of one minibatch."""
    return data.features[rows][None], data.labels[rows][None]


# Entry point: (its call, the batched kernel on the same pair, its oracle), each
# called as (model, data, minibatch rows).
_ENTRY_POINTS = {
    "evaluate_accuracy": (
        lambda m, d, rows: evaluate_accuracy(m, d),
        lambda m, d, rows: pairs_accuracy(_one_pair_logits(m, d.features), d.labels[None])[0],
        lambda m, d, rows: oracles.evaluate_accuracy(m, d)),
    "evaluate_mean_loss": (
        lambda m, d, rows: evaluate_mean_loss(m, d),
        lambda m, d, rows: pairs_mean_loss(_one_pair_logits(m, np.ascontiguousarray(d.features)),
                                           d.labels[None])[0],
        lambda m, d, rows: oracles.evaluate_mean_loss(m, d)),
    **{f"compute_tpm-{kind.value}": (
        lambda m, d, rows, kind=kind: compute_tpm(kind, m, d),
        lambda m, d, rows, kind=kind: _pairs_tpm(kind, m, d),
        lambda m, d, rows, kind=kind: oracles.compute_tpm(kind, m, d)) for kind in TargetMetricKind},
    "batch_gradient": (
        lambda m, d, rows: batch_gradient(m, d, rows).values,
        lambda m, d, rows: stacked_gradient(m.values[None], *_gathered(d, rows), m.num_classes)[0],
        lambda m, d, rows: oracles.batch_gradient(m, d, rows).values),
    "batch_gradient+sgd_step": (
        lambda m, d, rows: sgd_step(m, batch_gradient(m, d, rows), _LR).values,
        lambda m, d, rows: stacked_sgd_step(m.values[None], *_gathered(d, rows), m.num_classes, _LR)[0],
        lambda m, d, rows: m.values - _LR * oracles.batch_gradient(m, d, rows).values),
}


def _pair_case(case):
    """(model, data, rows) of one case: a random model on C- or Fortran-ordered
    data, a model holding a NaN (the sentinel case) or the zero model (every
    class ties). On OpenBLAS's SkylakeX kernel, this model's mean loss on the
    two memory orders of these features differs in its last bits."""
    gen = rng.stream(24, purpose="test")
    data = gen_synthetic_blobs(10, 64, 4, 3.5, seed=24)
    model = ParamVector(gen.normal(0, 0.05, 10 * 64 + 10), 10, 64)
    rows = gen.choice(len(data), size=17, replace=False)
    if case == "fortran":
        data = Dataset(np.asfortranarray(data.features), data.labels, data.num_classes)
    elif case == "nan-model":
        model = model.replace_values(np.where(np.arange(model.values.size) == 3, np.nan, model.values))
    elif case == "zero-model":
        model = model.replace_values(np.zeros_like(model.values))
    return model, data, rows


@pytest.mark.parametrize("case", ["c-ordered", "fortran", "nan-model", "zero-model"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_per_member_entry_point_and_batched_kernel_equal_the_oracle(entry, case):
    model, data, rows = _pair_case(case)
    call, batched, oracle = _ENTRY_POINTS[entry]
    # The NaN model's softmax computes NaN throughout, in all three forms.
    with np.errstate(invalid="ignore"):
        expected = _bytes(oracle(model, data, rows))
        assert _bytes(call(model, data, rows)) == expected
        assert _bytes(batched(model, data, rows)) == expected
