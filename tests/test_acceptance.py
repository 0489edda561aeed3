"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins. The desk-scale scenario runs use synthetic blobs
(10 classes, 64 features) in place of subsampled MNIST.
"""
import json
import time

import numpy as np
import pytest

from dflsim import rng, sim
from dflsim.baselines import (
    dfedavg,
    flame_weighted,
    krum,
    krum_scores,
    median_agg,
    multi_krum,
    trimmed_mean,
)
from dflsim.cli import cli_main
from dflsim.config import parse_config
from dflsim.core_learning import Dataset, ParamVector, batch_gradient
from dflsim.data import gen_synthetic_blobs, partition_dirichlet, partition_iid, partition_label_skew
from dflsim.reweight import AccClip, LossClip, TempSoftmax, apply_crs
from dflsim.sim import run_experiment, run_round, setup_seed
from oracles import batch_loss

DESK_DATASET = {
    "synthetic": {
        "num_classes": 10,
        "feature_dim": 64,
        "n_per_class": 200,
        "spread": 3.5,
        "seed": 7,
        "test_n_per_class": 100,
    }
}


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def desk_config(name, scheme, aggregator, attack, num_malicious):
    return parse_config({
        "name": name,
        "dataset": DESK_DATASET,
        "scheme": scheme,
        "topology": {"num_benign": 10, "num_malicious": num_malicious, "edge_prob": 0.7},
        "rounds": 500,
        "aggregator": aggregator,
        "attack": attack,
        "seeds": [43, 44],
        "eval_every": 500,
    })


def desk_run(tmp_dir, name, scheme, aggregator, attack, num_malicious):
    config = desk_config(name, scheme, aggregator, attack, num_malicious)
    return run_experiment(config, outdir=str(tmp_dir))


SKEW = {"label_skew": {"h": 4}}
AVG = {"baseline": {"kind": "dfedavg"}}
RW_TEMP = {"dfed_reweighting": {"tpm": "accuracy",
                                "crs": {"temp_softmax": {"temperature": 0.1}}}}
RW_LOSSCLIP = {"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}}
RW_ACCCLIP = {"dfed_reweighting": {"tpm": "accuracy", "crs": "acc_clip"}}
SIGN_FLIP = {"kind": "sign_flip", "factor": -10.0}
GAUSSIAN = {"kind": "gaussian", "sigma": 30.0}


def test_criterion_1_fairness_ordering(tmp_path):
    start = time.time()
    avg = desk_run(tmp_path, "c1-dfedavg", SKEW, AVG, None, 0)
    rew = desk_run(tmp_path, "c1-reweight", SKEW, RW_TEMP, None, 0)
    elapsed = time.time() - start
    var_ok = rew.var_points <= 0.5 * avg.var_points
    acc_ok = rew.mean_acc * 100 >= avg.mean_acc * 100 - 1.0
    report(
        1,
        var_ok and acc_ok and elapsed <= 300,
        f"LabelSkew(4) fairness: reweighting Var {rew.var_points:.2f} vs "
        f"averaging Var {avg.var_points:.2f} (need <= 0.5x), mean acc "
        f"{rew.mean_acc * 100:.2f} vs {avg.mean_acc * 100:.2f} points "
        f"(need >= -1.0), {elapsed:.0f}s",
    )


def test_criterion_2_byzantine_robustness(tmp_path):
    start = time.time()
    undefended = desk_run(tmp_path, "c2-avg-sf", "iid", AVG, SIGN_FLIP, 2)
    defended = desk_run(tmp_path, "c2-rw-sf", "iid", RW_LOSSCLIP, SIGN_FLIP, 2)
    unattacked = desk_run(tmp_path, "c2-rw-clean", "iid", RW_LOSSCLIP, None, 2)
    elapsed = time.time() - start
    collapse_ok = undefended.mean_acc * 100 <= 40.0
    recovery = abs(defended.mean_acc - unattacked.mean_acc) * 100
    report(
        2,
        collapse_ok and recovery <= 3.0 and elapsed <= 300,
        f"sign-flip IID: undefended mean {undefended.mean_acc * 100:.2f} points "
        f"(need <= 40), loss-clip defended {defended.mean_acc * 100:.2f} vs "
        f"no-attack {unattacked.mean_acc * 100:.2f} (|diff| {recovery:.2f} <= 3.0), "
        f"{elapsed:.0f}s",
    )


def test_criterion_3_combination_contrast(tmp_path):
    start = time.time()
    loss_skew = desk_run(tmp_path, "c3-loss-skew", SKEW, RW_LOSSCLIP, SIGN_FLIP, 2)
    acc_skew = desk_run(tmp_path, "c3-acc-skew", SKEW, RW_ACCCLIP, SIGN_FLIP, 2)
    loss_iid = desk_run(tmp_path, "c3-loss-iid", "iid", RW_LOSSCLIP, SIGN_FLIP, 2)
    acc_iid = desk_run(tmp_path, "c3-acc-iid", "iid", RW_ACCCLIP, SIGN_FLIP, 2)
    elapsed = time.time() - start
    skew_gap = (loss_skew.mean_acc - acc_skew.mean_acc) * 100
    iid_gap = (loss_iid.mean_acc - acc_iid.mean_acc) * 100
    report(
        3,
        skew_gap >= 3.0 and abs(iid_gap) <= 3.0,
        f"combination contrast: LabelSkew(4) loss/loss-clip beats acc/acc-clip by "
        f"{skew_gap:+.2f} points (need >= 3.0); IID gap {iid_gap:+.2f} "
        f"(need |gap| <= 3.0), {elapsed:.0f}s",
    )


# --- criterion 4: brute-force oracles, deliberately naive ---

def naive_mean(vectors):
    out = [0.0] * len(vectors[0])
    for v in vectors:
        for i, x in enumerate(v):
            out[i] += x / len(vectors)
    return out


def naive_median(vectors):
    n = len(vectors)
    return [sorted(col)[(n - 1) // 2] for col in zip(*vectors)]


def naive_trimmed_mean(vectors, f):
    n = len(vectors)
    out = []
    for col in zip(*vectors):
        kept = sorted(col)[f:n - f]
        out.append(sum(kept) / len(kept))
    return out


def naive_krum_scores(vectors, f):
    n = len(vectors)
    scores = []
    for a in range(n):
        dists = sorted(
            sum((x - y) ** 2 for x, y in zip(vectors[a], vectors[b]))
            for b in range(n)
            if b != a
        )
        scores.append(sum(dists[: n - f - 2]))
    return scores


def naive_multi_krum(vectors, f, m):
    scores = naive_krum_scores(vectors, f)
    chosen = sorted(range(len(vectors)), key=lambda i: (scores[i], i))[:m]
    return naive_mean([vectors[i] for i in chosen])


def naive_flame(own, received, beta):
    models = [own] + received
    weights = [1.0 / (sum((x - y) ** 2 for x, y in zip(own, v)) + beta) for v in models]
    total = sum(weights)
    out = [0.0] * len(own)
    for w, v in zip(weights, models):
        for i, x in enumerate(v):
            out[i] += (w / total) * x
    return out


def test_criterion_4_aggregator_oracle_equivalence():
    start = time.time()
    gen = rng.stream(100, purpose="acceptance-aggregators")
    for trial in range(200):
        n = int(gen.integers(4, 7))
        d = int(gen.integers(1, 5))
        vectors = [list(gen.standard_normal(d)) for _ in range(n)]
        candidates = np.array([np.concatenate([v, [0.0]]) for v in vectors])
        f = 1
        m = int(gen.integers(1, n + 1))

        np.testing.assert_allclose(
            dfedavg(candidates)[:-1], naive_mean(vectors), atol=1e-12)
        np.testing.assert_array_equal(
            median_agg(candidates)[:-1], naive_median(vectors))
        np.testing.assert_allclose(
            trimmed_mean(candidates, f)[:-1],
            naive_trimmed_mean(vectors, f), atol=1e-12)
        expected_scores = naive_krum_scores(vectors, f)
        for score, expected in zip(krum_scores(candidates, f), expected_scores):
            assert abs(score - expected) <= 1e-12
        best = min(range(n), key=lambda i: (expected_scores[i], i))
        np.testing.assert_array_equal(krum(candidates, f)[:-1], vectors[best])
        np.testing.assert_allclose(
            multi_krum(candidates, f, m)[:-1],
            naive_multi_krum(vectors, f, m), atol=1e-12)
        np.testing.assert_allclose(
            flame_weighted(candidates[0], candidates[1:], 1.0)[:-1],
            naive_flame(vectors[0], vectors[1:], 1.0), atol=1e-12)
    elapsed = time.time() - start
    report(4, elapsed <= 10,
           f"median/krum/multi-krum/trimmed-mean/flame match naive oracles on "
           f"200 random instances, {elapsed:.1f}s")


def test_criterion_5_gradient_correctness():
    start = time.time()
    gen = rng.stream(101, purpose="acceptance-gradients")
    worst = 0.0
    for _ in range(50):
        C = int(gen.integers(2, 6))
        d = int(gen.integers(1, 8))
        n = int(gen.integers(2, 20))
        model = ParamVector(gen.standard_normal(C * d + C), C, d)
        data = Dataset(gen.standard_normal((n, d)), gen.integers(0, C, size=n), C)
        batch = gen.choice(n, size=int(gen.integers(1, n + 1)), replace=False)
        analytic = batch_gradient(model, data, batch).values
        step = 1e-5
        numeric = np.zeros_like(analytic)
        for i in range(analytic.shape[0]):
            plus, minus = model.values.copy(), model.values.copy()
            plus[i] += step
            minus[i] -= step
            numeric[i] = (
                batch_loss(ParamVector(plus, C, d), data, batch)
                - batch_loss(ParamVector(minus, C, d), data, batch)
            ) / (2 * step)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        worst = max(worst, rel)
    elapsed = time.time() - start
    report(5, worst <= 1e-4 and elapsed <= 10,
           f"analytic vs central-difference gradients on 50 random problems, "
           f"worst relative error {worst:.2e} (need <= 1e-4), {elapsed:.1f}s")


def test_criterion_6_crs_property_suite():
    gen = rng.stream(102, purpose="acceptance-crs")
    for _ in range(1000):
        n = int(gen.integers(1, 10))
        losses = gen.uniform(0, 10, size=n)
        accs = gen.uniform(0, 1, size=n)
        temp = float(gen.uniform(0.02, 4.0))

        soft = apply_crs(TempSoftmax(temp), accs)
        assert np.all(soft >= 0) and abs(soft.sum() - 1) <= 1e-9
        shifted = apply_crs(TempSoftmax(temp), accs + 3.0)
        np.testing.assert_allclose(soft, shifted, atol=1e-12)
        sharper = apply_crs(TempSoftmax(temp / 2), accs)
        assert sharper.max() >= soft.max() - 1e-12

        clip_cases = (
            (losses, apply_crs(LossClip(), losses), True),
            (accs, apply_crs(AccClip(), accs), False),
        )
        for values, out, keep_low in clip_cases:
            assert np.all(out >= 0) and abs(out.sum() - 1) <= 1e-9
            mu = values.mean()
            survivors = values <= mu if keep_low else values >= mu
            raw = np.where(survivors, values, 0.0)
            expected = raw / raw.sum() if raw.sum() > 0 else survivors / survivors.sum()
            np.testing.assert_allclose(out, expected, atol=1e-12)
            assert np.array_equal(out == 0.0, ~survivors)

    hand_loss = apply_crs(LossClip(), np.array([1.0, 2.0, 9.0]))
    np.testing.assert_allclose(hand_loss, [1 / 3, 2 / 3, 0.0], rtol=1e-15)
    hand_acc = apply_crs(AccClip(), np.array([0.9, 0.8, 0.1]))
    np.testing.assert_allclose(hand_acc, [9 / 17, 8 / 17, 0.0], rtol=1e-15)
    report(6, True,
           "1000 random metric vectors per strategy: nonneg, sum-1, shift-invariant, "
           "sharpness-monotone, clips match brute force; hand examples exact")


def test_criterion_7_partitioner_properties():
    start = time.time()
    data = gen_synthetic_blobs(10, 8, 60, 1.0, seed=3)
    plan = partition_label_skew(data, 10, 4, seed=1)
    skew_ok = all(
        len(set(data.labels[list(idx)])) == 4 for idx in plan.client_indices
    )

    diri = partition_dirichlet(data, 8, alpha=1e6, seed=2)
    uniform_ok = all(
        np.allclose(
            np.bincount(data.labels[list(idx)], minlength=10) / len(idx), 0.1, atol=0.02
        )
        for idx in diri.client_indices
    )

    gen = rng.stream(103, purpose="acceptance-partitions")
    fuzz_ok = True
    small = gen_synthetic_blobs(5, 4, 30, 1.0, seed=4)
    for trial in range(1000):
        kind = trial % 3
        num_clients = int(gen.integers(2, 6))
        seed = int(gen.integers(0, 2**32))
        if kind == 0:
            p = partition_iid(small, num_clients, seed)
        elif kind == 1:
            h_min = -(-small.num_classes // num_clients)  # need num_clients*h >= C
            h = int(gen.integers(h_min, small.num_classes + 1))
            p = partition_label_skew(small, num_clients, h, seed)
        else:
            p = partition_dirichlet(small, num_clients, float(gen.uniform(0.05, 5.0)), seed)
        seen = set()
        for idx in p.client_indices:
            if not len(idx) or seen & set(idx) or not all(0 <= i < len(small) for i in idx):
                fuzz_ok = False
            seen.update(idx)
    elapsed = time.time() - start
    report(7, skew_ok and uniform_ok and fuzz_ok and elapsed <= 30,
           f"LabelSkew(4) gives exactly 4 labels/client; Dirichlet(1e6) uniform "
           f"within 0.02; 1000-instance fuzz disjoint+valid, {elapsed:.1f}s")


def spread(models):
    """Consensus distance: mean over rows of ||x_k - x_bar||^2."""
    return float(((models - models.mean(axis=0)) ** 2).sum(axis=1).mean())


def test_criterion_8_mixing_contracts_benign_disagreement(monkeypatch):
    """Linear convergence on the engine's own rounds (Koloskova et al., ICML 2020).

    Mixing contracts the benign clients' disagreement only while W puts no
    weight on malicious rows. Each round reads W's largest malicious mass over
    the benign rows, and the ratio of the benign consensus distance after
    mixing to that of the local half-steps it mixed.
    """
    local_half_steps, halves = sim._local_half_steps, {}

    def capture(state, t):
        # Only the current round's rows are kept: 3,000 rounds of them would hold 156 MB.
        halves["rows"] = local_half_steps(state, t)
        return halves["rows"]

    monkeypatch.setattr(sim, "_local_half_steps", capture)

    def worst_round(aggregator, attack, seed):
        """(largest malicious mass, largest contraction ratio) over 500 rounds."""
        config = desk_config("c8", "iid", aggregator, attack, 2)
        state = setup_seed(config, seed)
        b = len(state.benign_ids())
        mass, ratio = 0.0, 0.0
        for t in range(1, config.rounds + 1):
            run_round(state, t)
            mass = max(mass, float(state.last_weights.matrix[:, b:].sum(axis=1).max()))
            ratio = max(ratio, spread(state.models[:b]) / spread(halves["rows"]))
        return mass, ratio

    start = time.time()
    matched = {(name, seed): worst_round(RW_LOSSCLIP, attack, seed)
               for name, attack in (("sign-flip", SIGN_FLIP), ("gaussian", GAUSSIAN))
               for seed in (43, 44)}
    mismatched = {seed: worst_round(RW_TEMP, GAUSSIAN, seed) for seed in (43, 44)}
    elapsed = time.time() - start

    def contracts(mass, ratio):
        return mass == 0.0 and ratio < 1.0

    report(
        8,
        all(contracts(*worst) for worst in matched.values())
        and not any(contracts(*worst) for worst in mismatched.values()),
        "IID, 2 malicious, 500 rounds, seeds 43/44: loss + loss-clip keeps malicious mass 0 "
        "and the contraction ratio < 1 in every round (worst "
        + ", ".join(f"{name} s{seed} {ratio:.4f}" for (name, seed), (_, ratio) in matched.items())
        + "); acc + temp-softmax T=0.1 under Gaussian fails it (max mass, worst ratio "
        + ", ".join(f"s{seed} {mass:.3f}, {ratio:.0f}" for seed, (mass, ratio) in mismatched.items())
        + f"), {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    config = {
        "name": "det",
        "dataset": DESK_DATASET,
        "scheme": {"label_skew": {"h": 4}},
        "topology": {"num_benign": 10, "num_malicious": 2, "edge_prob": 0.7},
        "rounds": 20,
        "aggregator": {"dfed_reweighting": {"tpm": "loss", "crs": "loss_clip"}},
        "attack": {"kind": "sign_flip"},
        "seeds": [43],
        "eval_every": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    payloads = []
    for sub, workers in (("one", "1"), ("two", "1"), ("four", "4")):
        code = cli_main(["run", str(path), "--outdir", str(tmp_path / sub),
                         "--parallel", workers, "--quiet"])
        assert code == 0
        payloads.append((tmp_path / sub / "det" / "metrics.csv").read_bytes())
    identical = payloads[0] == payloads[1] == payloads[2]
    report(9, identical,
           "repeated runs and --parallel 1 vs 4 produce byte-identical metrics.csv")
