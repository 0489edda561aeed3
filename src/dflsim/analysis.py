"""Evaluation metrics and the summary blocks of a run."""
from __future__ import annotations

import numpy as np


def mean_accuracy(per_client) -> float:
    """Arithmetic mean; in Byzantine runs the inputs are benign clients only."""
    values = np.asarray(per_client, dtype=np.float64)
    if values.size == 0:
        raise ValueError("per-client accuracy list must be nonempty")
    return float(values.mean())


def accuracy_variance(per_client) -> float:
    """Population variance (divide by N). Callers pass percentage points."""
    values = np.asarray(per_client, dtype=np.float64)
    if values.size == 0:
        raise ValueError("per-client accuracy list must be nonempty")
    return float(values.var())


def summarize(rows) -> tuple:
    """(per_seed, cross_seed) summary blocks of metrics.csv rows.

    Each row starts (round, seed, client, acc, loss), as numbers or as the
    strings metrics.csv holds. A seed's block holds its last round's
    accuracies and losses by client, their mean and their variance in
    percentage points; seeds keep their order of first appearance, and
    cross_seed averages their means and variances (None if there are no
    rows).
    """
    finals = {}
    for t, seed, client, acc, loss, *_ in rows:
        rounds = finals.setdefault(str(int(seed)), {})
        rounds.setdefault(int(t), []).append((str(int(client)), float(acc), float(loss)))
    per_seed = {}
    for seed, rounds in finals.items():
        final = rounds[max(rounds)]
        accs = [acc for _, acc, _ in final]
        per_seed[seed] = {
            "final_accuracies": {client: acc for client, acc, _ in final},
            "final_losses": {client: loss for client, _, loss in final},
            "mean_acc": mean_accuracy(accs),
            "var_points": accuracy_variance([a * 100.0 for a in accs]),
        }
    if not per_seed:
        return per_seed, None
    return per_seed, {
        "mean_acc": mean_accuracy([block["mean_acc"] for block in per_seed.values()]),
        "var_points": mean_accuracy([block["var_points"] for block in per_seed.values()]),
    }
