import math
import re

import numpy as np
import pytest

from dflsim import rng
from dflsim.core_learning import Dataset, ParamVector, ShapeError, pair_logits
from dflsim.data import gen_synthetic_blobs
from dflsim.plan import RowLayout
from dflsim.reweight import (
    SENTINEL,
    AccClip,
    LossClip,
    TargetMetricKind,
    TempSoftmax,
    _group_weights,
    apply_crs,
    compute_tpm,
    dfedreweighting_round_weights,
    reweight_aggregate,
)
import oracles
from oracles import MetricVector, crs_acc_clip, crs_oracle, crs_temp_softmax


def mv(values):
    return np.asarray(values, dtype=float)


def assert_valid(weights: np.ndarray):
    assert np.all(weights >= 0)
    assert abs(float(weights.sum()) - 1.0) <= 1e-9


class TestComputeTpm:
    def test_accuracy_of_perfect_model(self):
        data = Dataset([[1.0], [-1.0]], [0, 1], 2)
        model = ParamVector([10.0, -10.0, 0.0, 0.0], 2, 1)
        assert compute_tpm(TargetMetricKind.ACCURACY_ON_AUX, model, data) == 1.0

    def test_loss_of_zero_model(self):
        data = Dataset(np.ones((3, 2)), [0, 5, 9], 10)
        model = ParamVector(np.zeros(10 * 2 + 10), 10, 2)
        assert compute_tpm(TargetMetricKind.LOSS_ON_AUX, model, data) == pytest.approx(
            math.log(10)
        )

    def test_nan_model_maps_to_sentinel(self):
        data = Dataset([[1.0]], [0], 2)
        model = ParamVector([math.nan, 0.0, 0.0, 0.0], 2, 1)
        value = compute_tpm(TargetMetricKind.LOSS_ON_AUX, model, data)
        assert value == math.inf and not math.isnan(value)


def pairs_tpm(kind, params, aux):
    """pair_logits and kind's pairs kernel on the rows of params, all paired
    with aux in one part, non-finite values mapped to the sentinel as
    reweight_round maps them.

    The loss kernel gets a C-ordered copy of the features, as
    evaluate_mean_loss multiplies one; the accuracy kernel gets the set's own.
    """
    loss = kind is TargetMetricKind.LOSS_ON_AUX
    features = np.ascontiguousarray(aux.features) if loss else aux.features
    logits = pair_logits(params, [(features[None, None], np.arange(len(params))[None])], aux.num_classes)
    values = kind.kernel("pairs")(logits, np.broadcast_to(aux.labels, (len(params), len(aux))))
    return np.where(np.isfinite(values), values, SENTINEL)


class TestPairsTpmOnePart:
    """pair_logits and the pairs kernels on one part must equal the per-vector compute_tpm
    bit for bit, row by row."""

    @staticmethod
    def assert_rows_equal_oracle(params, aux):
        for kind in TargetMetricKind:
            oracle = [oracles.compute_tpm(kind, ParamVector(row, aux.num_classes, aux.feature_dim), aux)
                      for row in params]
            np.testing.assert_array_equal(pairs_tpm(kind, params, aux), oracle)

    def test_random_members_match_compute_tpm(self):
        gen = rng.stream(35, purpose="test")
        aux = gen_synthetic_blobs(10, 64, 4, 3.5, seed=35)
        fortran = Dataset(np.asfortranarray(aux.features), aux.labels, aux.num_classes)
        for k in (1, 2, 9, 37):
            params = gen.normal(0, float(gen.uniform(0.01, 5.0)), (k, 10 * 64 + 10))
            self.assert_rows_equal_oracle(params, aux)
            self.assert_rows_equal_oracle(params, fortran)

    def test_nan_model_maps_to_sentinel(self):
        aux = gen_synthetic_blobs(3, 4, 5, 0.5, seed=36)
        params = rng.stream(36, purpose="test").standard_normal((4, 15))
        params[2, 0] = math.nan
        self.assert_rows_equal_oracle(params, aux)
        losses = pairs_tpm(TargetMetricKind.LOSS_ON_AUX, params, aux)
        assert losses[2] == SENTINEL and np.isfinite(np.delete(losses, 2)).all()

    def test_argmax_ties_match_compute_tpm(self):
        aux = gen_synthetic_blobs(3, 4, 5, 0.5, seed=37)
        tied = np.zeros((3, 15))  # row 0: every class tied
        tied[1, :8] = np.tile([1.0, -1.0, 0.5, 2.0], 2)  # classes 0 and 1 tie
        tied[2, 12:] = [0.0, 1.0, 1.0]  # classes 1 and 2 tie on the bias
        self.assert_rows_equal_oracle(tied, aux)
        accs = pairs_tpm(TargetMetricKind.ACCURACY_ON_AUX, tied, aux)
        assert accs[0] == float(np.mean(aux.labels == 0))

    def test_wrong_width_rejected(self):
        aux = gen_synthetic_blobs(3, 4, 5, 0.5, seed=38)
        with pytest.raises(ShapeError):
            pairs_tpm(TargetMetricKind.LOSS_ON_AUX, np.zeros((2, 14)), aux)


class TestTempSoftmax:
    def test_equal_metrics_uniform(self):
        for temp in (0.01, 0.1, 1.0, 10.0):
            w = apply_crs(TempSoftmax(temp), mv([0.4, 0.4, 0.4]))
            np.testing.assert_allclose(w, 1 / 3, atol=1e-12)

    def test_direct_value(self):
        w = apply_crs(TempSoftmax(1.0), mv([1.0, 0.0]))
        np.testing.assert_allclose(
            w, [math.e / (math.e + 1), 1 / (math.e + 1)], rtol=1e-12
        )

    def test_sharp_temperature_dominance(self):
        w = apply_crs(TempSoftmax(0.01), mv([0.9, 0.8]))
        assert w[0] >= 0.9999

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            apply_crs(TempSoftmax(0.0), mv([1.0, 2.0]))

    def test_sentinel_rejected(self):
        with pytest.raises(ValueError):
            apply_crs(TempSoftmax(1.0), mv([1.0, math.inf]))

    def test_shift_invariance(self):
        gen = rng.stream(31, purpose="test")
        for _ in range(100):
            values = gen.standard_normal(5)
            temp = float(gen.uniform(0.05, 5.0))
            a = apply_crs(TempSoftmax(temp), mv(values))
            b = apply_crs(TempSoftmax(temp), mv(values + 13.7))
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sharpness_monotone_in_temperature(self):
        gen = rng.stream(32, purpose="test")
        for _ in range(100):
            values = gen.standard_normal(6)
            values[int(gen.integers(6))] += 1.0  # unique maximum
            temps = sorted(gen.uniform(0.02, 3.0, size=4))
            maxima = [apply_crs(TempSoftmax(t), mv(values)).max() for t in temps]
            for cooler, warmer in zip(maxima, maxima[1:]):
                assert cooler >= warmer - 1e-12


class TestLossClip:
    def test_hand_example(self):
        w = apply_crs(LossClip(), mv([1.0, 2.0, 9.0]))
        np.testing.assert_allclose(w, [1 / 3, 2 / 3, 0.0], rtol=1e-12)

    def test_boundary_kept(self):
        # The float mean of 21 copies of the second loss rounds below it.
        for values in ([5.0] * 3, [3.647482804919992] * 21):
            w = apply_crs(LossClip(), mv(values))
            np.testing.assert_allclose(w, 1 / len(values), atol=1e-12)

    def test_sentinel_clipped_and_excluded_from_mean(self):
        w = apply_crs(LossClip(), mv([1.0, math.inf]))
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-15)

    def test_all_sentinel_rejected(self):
        with pytest.raises(ValueError):
            apply_crs(LossClip(), mv([math.inf, math.inf]))

    def test_all_zero_survivors_uniform(self):
        w = apply_crs(LossClip(), mv([0.0, 0.0, 7.0]))
        np.testing.assert_allclose(w, [0.5, 0.5, 0.0], atol=1e-15)

    def test_negative_metric_rejected(self):
        with pytest.raises(ValueError):
            apply_crs(LossClip(), mv([-1.0, 2.0]))


class TestAccClip:
    def test_hand_example(self):
        w = apply_crs(AccClip(), mv([0.9, 0.8, 0.1]))
        np.testing.assert_allclose(w, [9 / 17, 8 / 17, 0.0], rtol=1e-12)

    def test_equal_metrics_uniform(self):
        # The float mean of 9 copies of 37/40 rounds above the value.
        for values in ([0.6] * 4, [37 / 40] * 9):
            w = apply_crs(AccClip(), mv(values))
            np.testing.assert_allclose(w, 1 / len(values), atol=1e-12)

    def test_single_survivor(self):
        w = apply_crs(AccClip(), mv([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-15)

    def test_all_zero_uniform_fallback(self):
        w = apply_crs(AccClip(), mv([0.0, 0.0]))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_crs(AccClip(), mv([0.5, 1.2]))
        with pytest.raises(ValueError):
            apply_crs(AccClip(), mv([0.5, math.inf]))


def brute_force_clip(values, keep_low):
    """Independent reimplementation of the clip-and-normalize rules."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    mu = values[finite].mean()
    if keep_low:
        survivors = finite & (values <= mu)
    else:
        survivors = finite & (values >= mu)
    raw = [v if s else 0.0 for v, s in zip(values, survivors)]
    total = sum(raw)
    if total == 0:
        return np.array([1.0 / survivors.sum() if s else 0.0 for s in survivors]), survivors
    return np.array([r / total for r in raw]), survivors


class TestCrsProperties:
    def test_fuzz_all_strategies(self):
        gen = rng.stream(33, purpose="test")
        for _ in range(1000):
            n = int(gen.integers(1, 12))
            losses = gen.uniform(0.0, 10.0, size=n)
            accs = gen.uniform(0.0, 1.0, size=n)
            temp = float(gen.uniform(0.02, 5.0))

            assert_valid(apply_crs(TempSoftmax(temp), mv(accs)))

            lw = apply_crs(LossClip(), mv(losses))
            assert_valid(lw)
            expected, survivors = brute_force_clip(losses, keep_low=True)
            np.testing.assert_allclose(lw, expected, atol=1e-12)
            assert np.array_equal(lw == 0.0, ~survivors)

            aw = apply_crs(AccClip(), mv(accs))
            assert_valid(aw)
            expected, survivors = brute_force_clip(accs, keep_low=False)
            np.testing.assert_allclose(aw, expected, atol=1e-12)
            assert np.array_equal(aw == 0.0, ~survivors)


class TestReweightAggregate:
    def test_single_model_identity(self):
        model = ParamVector([1.0, 2.0, 3.0, 4.0], 1, 3)
        out = reweight_aggregate(np.array([model.values]), np.array([1.0]))
        np.testing.assert_array_equal(out, model.values)

    def test_midpoint(self):
        a = ParamVector([0.0, 0.0], 1, 1)
        b = ParamVector([2.0, 4.0], 1, 1)
        out = reweight_aggregate(
            np.array([a.values, b.values]), np.array([0.5, 0.5])
        )
        np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-15)

    def test_zero_weight_nan_model_skipped(self):
        good = ParamVector([1.0, 1.0], 1, 1)
        bad = ParamVector([math.nan, math.nan], 1, 1)
        out = reweight_aggregate(
            np.array([good.values, bad.values]), np.array([1.0, 0.0])
        )
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, good.values)

    def test_equals_sequential_weighted_sum(self):
        gen = rng.stream(39, purpose="test")
        for k in (2, 9, 37):
            models = [(i, ParamVector(gen.standard_normal(650), 10, 64)) for i in range(k)]
            models[1] = (1, ParamVector(np.full(650, math.nan), 10, 64))
            raw = gen.uniform(0.0, 1.0, size=k) * (gen.uniform(size=k) < 0.7)
            raw[1], raw[0] = 0.0, 1.0
            weights = raw / raw.sum()
            acc = None
            weight_of = dict(enumerate(weights))
            for node_id, model in models:
                w = weight_of[node_id]
                if w != 0.0:
                    acc = w * model.values if acc is None else acc + w * model.values
            params = np.array([model.values for _, model in models])
            np.testing.assert_array_equal(reweight_aggregate(params, weights), acc)

    def test_row_count_mismatch_rejected(self):
        params = np.zeros((2, 2))
        with pytest.raises(ValueError, match="2 parameter rows for 1 weights"):
            reweight_aggregate(params, np.array([1.0]))
        with pytest.raises(ValueError, match="1 parameter rows for 2 weights"):
            reweight_aggregate(params[:1], np.array([0.5, 0.5]))

    def test_permutation_invariance_and_linearity(self):
        gen = rng.stream(34, purpose="test")
        models = np.array([gen.standard_normal(6) for _ in range(4)])
        raw = gen.uniform(0.1, 1.0, size=4)
        weights = raw / raw.sum()
        out = reweight_aggregate(models, weights)
        perm = [2, 0, 3, 1]
        shuffled = weights[perm]
        np.testing.assert_allclose(
            out, reweight_aggregate(models[perm], shuffled), atol=1e-12
        )
        scaled = 3.0 * models
        np.testing.assert_allclose(
            reweight_aggregate(scaled, weights), 3.0 * out, atol=1e-12
        )


class TestRoundWeights:
    def test_identical_models_uniform_for_every_crs(self):
        data = gen_synthetic_blobs(3, 4, 10, 0.5, seed=40)
        model = ParamVector(np.linspace(-1, 1, 15), 3, 4)
        params = np.array([model.values] * 3)
        for tpm, crs in [
            (TargetMetricKind.ACCURACY_ON_AUX, TempSoftmax(0.1)),
            (TargetMetricKind.LOSS_ON_AUX, LossClip()),
            (TargetMetricKind.ACCURACY_ON_AUX, AccClip()),
        ]:
            w = dfedreweighting_round_weights(tpm, crs, params, data)
            np.testing.assert_allclose(w, 1 / 3, atol=1e-12)

    def test_noise_model_zeroed_by_loss_clip(self):
        data = gen_synthetic_blobs(4, 6, 25, 0.5, seed=41)
        trained = ParamVector(np.zeros(4 * 6 + 4), 4, 6)
        from dflsim.core_learning import batch_gradient, sgd_step

        batch = np.arange(len(data))
        for _ in range(100):
            trained = sgd_step(trained, batch_gradient(trained, data, batch), 0.1)
        noise = ParamVector(rng.stream(42, purpose="noise").normal(0, 30, 28), 4, 6)
        w = dfedreweighting_round_weights(
            TargetMetricKind.LOSS_ON_AUX,
            LossClip(),
            np.array([trained.values, trained.values, noise.values]),
            data,
        )
        weight_of = dict(enumerate(w))
        assert weight_of[2] == 0.0
        assert weight_of[0] > 0 and weight_of[1] > 0

    def test_fixture_zeros_exactly_above_mean_losses(self):
        # closed neighborhood of models with controlled loss ordering
        data = gen_synthetic_blobs(3, 4, 20, 0.5, seed=43)
        from dflsim.core_learning import batch_gradient, evaluate_mean_loss, sgd_step

        batch = np.arange(len(data))
        models, model = [], ParamVector(np.zeros(3 * 4 + 3), 3, 4)
        for steps in range(5):
            models.append(model)
            for _ in range(40):
                model = sgd_step(model, batch_gradient(model, data, batch), 0.1)
        pairs = list(enumerate(models))
        w = dfedreweighting_round_weights(
            TargetMetricKind.LOSS_ON_AUX, LossClip(),
            np.array([m.values for m in models]), data
        )
        assert_valid(w)
        losses = {i: evaluate_mean_loss(m, data) for i, m in pairs}
        mu = np.mean(list(losses.values()))
        weight_of = dict(enumerate(w))
        for i, loss in losses.items():
            if loss > mu:
                assert weight_of[i] == 0.0
            else:
                assert weight_of[i] > 0.0

    def test_replaced_scoring_functions_are_called_per_member(self, monkeypatch):
        import dflsim.reweight as reweight

        data = gen_synthetic_blobs(3, 4, 10, 0.5, seed=44)
        gen = np.random.default_rng(9)
        pairs = [(i, ParamVector(gen.standard_normal(15), 3, 4)) for i in range(5)]
        params = np.array([m.values for _, m in pairs])
        batched = dfedreweighting_round_weights(
            TargetMetricKind.LOSS_ON_AUX, LossClip(), params, data)
        scored = []

        def counting_tpm(kind, model, aux):
            scored.append(model)
            return compute_tpm(kind, model, aux)

        monkeypatch.setattr(reweight, "compute_tpm", counting_tpm)
        per_member = dfedreweighting_round_weights(
            TargetMetricKind.LOSS_ON_AUX, LossClip(), params, data)
        assert [m.values.tobytes() for m in scored] == [m.values.tobytes() for _, m in pairs]
        np.testing.assert_array_equal(per_member, batched)

        # A replaced metric changes the scores: all-equal losses give uniform weights.
        monkeypatch.undo()
        monkeypatch.setattr(reweight, "evaluate_mean_loss", lambda model, aux: 2.0)
        w = dfedreweighting_round_weights(
            TargetMetricKind.LOSS_ON_AUX, LossClip(), params, data)
        np.testing.assert_array_equal(w, np.full(5, 0.2))

    def test_apply_crs_dispatch(self):
        metrics = MetricVector((0, 1), [0.2, 0.8])
        np.testing.assert_allclose(
            apply_crs(TempSoftmax(0.5), metrics.values),
            crs_temp_softmax(metrics, 0.5).weights,
        )
        np.testing.assert_allclose(
            apply_crs(AccClip(), metrics.values), crs_acc_clip(metrics).weights
        )


# Per CRS: an all-finite row, a row holding the +inf sentinel and a row a
# check rejects; loss-clip also has groups at k = 9 and k = 16 with more
# sentinel rows. The temp-softmax row overflows m / T to inf and so gives NaN
# weights; the loss-clip row's sum overflows, which divides every weight to 0;
# the acc-clip row lies outside [0, 1]. In each accepted k >= 9 row with a
# sentinel, one finite loss lies on the mean of the finite losses gathered into
# a vector of their own. A mean that sums a zero in each sentinel's place, or
# that passes where=, groups numpy's pairwise sum differently, and in at least
# one row of each of these groups it moves that loss across the clip.
_GROUP_ROWS = [
    (TempSoftmax(0.1), [[0.2, 0.9, 0.5], [0.2, SENTINEL, 0.5], [1e308, 0.5, 0.2]]),
    (LossClip(), [[0.3, 1.2, 0.7], [0.3, SENTINEL, 0.7], [1e308, 1e308, 1e308]]),
    (AccClip(), [[0.2, 0.9, 0.5], [0.2, SENTINEL, 0.5], [1.5, 0.5, 0.2]]),
    (LossClip(), [
        [0.92, 2.13, 0.25, 1.4, 0.68, 0.34, 1.2, 2.6, 0.5],
        [SENTINEL, 1.59, 2.33, 1.47, 2.86, 0.82, 1.0, 1.06, 1.59],
        [SENTINEL] * 9,
        [2.55, 1.78, 1.58, 2.19, SENTINEL, 1.0, 2.69, 0.75, 0.1],
        [SENTINEL, 0.92, 2.13, 0.25, SENTINEL, 0.68, 0.34, 1.2, SENTINEL],
    ]),
    (LossClip(), [
        [2.89, 2.31, 1.72, 0.63, 2.4, 1.23, 2.9, 1.81, 1.96, 1.5, 0.48, 1.44, 1.33, 2.8, 1.75, 0.9],
        [2.89, 2.31, 1.72, 0.63, 2.4, 1.23, 2.9, 1.81, 1.96, 1.5, 0.48, 1.44, 1.33, 2.8, 1.75,
         SENTINEL],
        [SENTINEL, 0.7, 0.71, -0.76, 2.76, 1.88, 2.41, 0.2, SENTINEL, 1.67, 1.74, 1.68, 2.3, 2.85,
         2.96, SENTINEL],
        [SENTINEL, 2.13, 1.14, 1.4300000000000002, 0.57, 2.27, 1.61, 2.19, SENTINEL, 2.2, 0.13,
         0.83, 2.35, 1.01, 0.73, SENTINEL],
    ]),
]


class TestGroupWeights:
    @staticmethod
    def check_rows_against_oracle(crs, metrics):
        before = metrics.copy()
        # The rejected rows overflow on purpose, in both paths.
        with np.errstate(over="ignore", invalid="ignore"):
            layout = RowLayout.of([metrics.shape[1]] * len(metrics))
            weights, failed = _group_weights(crs, metrics.reshape(-1), layout)
            weights = weights.reshape(metrics.shape)
            assert metrics.tobytes() == before.tobytes()
            for i, row in enumerate(metrics):
                try:
                    expected = crs_oracle(crs, MetricVector(range(len(row)), row)).weights
                except ValueError as exc:
                    assert failed[i] == str(exc)
                    continue
                assert i not in failed
                assert weights[i].tobytes() == expected.tobytes()
        return failed

    @pytest.mark.parametrize("crs, rows", _GROUP_ROWS)
    def test_all_finite_rows_equal_the_oracle(self, crs, rows):
        finite = np.array([rows[0], rows[0][::-1], rows[0][1:] + rows[0][:1]])
        assert self.check_rows_against_oracle(crs, finite) == {}

    @pytest.mark.parametrize("crs, rows", _GROUP_ROWS)
    def test_sentinel_and_rejected_rows_equal_the_oracle_or_its_failure(self, crs, rows):
        failed = self.check_rows_against_oracle(crs, np.array(rows))
        assert 2 in failed and 0 not in failed
        assert (1 in failed) == (not isinstance(crs, LossClip))

    def test_loss_clip_rows_of_two_widths_equal_the_oracle_or_its_failure(self):
        """Loss-clip's k = 16 and k = 9 groups as one ragged layout, joined by a
        width-16 row of 7 sentinels and 9 losses. In the layout of each row's
        finite entries, which gives the clip thresholds, that row and the first,
        all-finite k = 9 row form one run of 9."""
        narrow, wide = _GROUP_ROWS[3][1], _GROUP_ROWS[4][1]
        rows = [np.array(row) for row in [*wide, [SENTINEL] * 7 + wide[0][:9], *narrow]]
        layout = RowLayout.of([len(row) for row in rows])
        with np.errstate(over="ignore", invalid="ignore"):
            weights, failed = _group_weights(LossClip(), np.concatenate(rows), layout)
        finite = []
        for i, row in enumerate(rows):
            try:
                expected = crs_oracle(LossClip(), MetricVector(range(len(row)), row)).weights
            except ValueError as exc:
                assert failed[i] == str(exc)
                # Loss-clip zeroes a row it rejects, so all its entries are finite.
                finite.append(len(row))
                continue
            assert i not in failed
            start = layout.starts[i]
            assert weights[start:start + len(row)].tobytes() == expected.tobytes(), i
            finite.append(int(np.isfinite(row).sum()))
        kept = RowLayout.of(finite)
        assert (kept.starts[len(wide)], kept.starts[len(wide)] + 18, 2) in kept.runs
        assert len(failed) == 2


class TestRaggedRoundWeights:
    """The CRS on one round's flat metric vector, rows of many lengths laid out as a plan lays them."""

    @staticmethod
    def round_rows(crs):
        """crs's _GROUP_ROWS blocks (k = 3, 9 and 16 for loss-clip) and random
        rows of 9 to 31 metrics, accepted ones between sentinel and rejected
        rows; consecutive rows of one length form runs of one to five rows."""
        gen = rng.stream(45, purpose="test")
        high = 1.0 if crs.favours == "high" else 3.0
        rows = []
        for k in (24, 9, 16, 31, 24):
            row = gen.uniform(0.0, high, size=k)
            sentinel, rejected = row.copy(), row.copy()
            sentinel[int(gen.integers(k))] = SENTINEL
            rejected[int(gen.integers(k))] = -0.5
            rows.extend([row, sentinel, rejected, gen.uniform(0.0, high, size=k)])
        for kind, block in _GROUP_ROWS:
            if type(kind) is type(crs):
                rows[3:3] = [np.array(row) for row in block]
        return rows

    @pytest.mark.parametrize("crs", [TempSoftmax(0.1), LossClip(), AccClip()],
                             ids=["temp-softmax", "loss-clip", "acc-clip"])
    def test_every_row_equals_the_per_row_oracle_or_its_failure(self, crs):
        rows = self.round_rows(crs)
        lengths = [len(row) for row in rows]
        assert {3, 9, 16, 24, 31} <= set(lengths) and len(RowLayout.of(lengths).runs) < len(rows)
        values = np.concatenate(rows)
        before = values.copy()
        layout = RowLayout.of(lengths)
        # The rejected rows overflow on purpose, in both paths.
        with np.errstate(over="ignore", invalid="ignore"):
            weights, failed = _group_weights(crs, values, layout)
            assert values.tobytes() == before.tobytes() and weights.shape == values.shape
            accepted = 0
            for i, row in enumerate(rows):
                try:
                    expected = crs_oracle(crs, MetricVector(range(len(row)), row)).weights
                except ValueError as exc:
                    assert failed[i] == str(exc)
                    continue
                assert i not in failed
                start = layout.starts[i]
                assert weights[start:start + layout.lengths[i]].tobytes() == expected.tobytes(), i
                accepted += 1
        assert accepted >= 10 and len(failed) >= 5


class TestApplyCrsChecks:
    """The metric checks apply_crs makes before any CRS runs, each with its message."""

    @pytest.mark.parametrize("crs", [TempSoftmax(0.1), LossClip(), AccClip()],
                             ids=["temp-softmax", "loss-clip", "acc-clip"])
    @pytest.mark.parametrize("values, message", [
        ([], "metric vector must be nonempty"),
        ([0.5, math.nan], "metric values must be finite or the +inf sentinel"),
        ([0.5, -math.inf], "metric values must be finite or the +inf sentinel"),
    ], ids=["empty", "nan", "minus-inf"])
    def test_rejected_metrics(self, crs, values, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_crs(crs, values)
