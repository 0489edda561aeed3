"""Evaluation metrics, the summary blocks of a run, and convergence-bound
evaluators with an L-smooth quadratic testbed.

Bound evaluation is diagnostic only: the evaluators report (empirical, bound,
slack) rows and never assert that the bound dominates a trajectory.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import rng


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


@dataclass(frozen=True)
class BoundParams:
    """Constants for the squared-distance bounds.

    smoothness L and gradient bound G come from the assumptions; eta_schedule
    holds the per-round learning rates; d0 is the initial weighted squared
    distance to the reference optimum.
    """

    smoothness: float
    grad_bound: float
    eta_schedule: tuple
    d0: float

    def __post_init__(self):
        if self.smoothness <= 0:
            raise ValueError("smoothness constant must be positive")
        if self.grad_bound < 0:
            raise ValueError("gradient bound must be nonnegative")
        etas = tuple(float(e) for e in self.eta_schedule)
        if not etas or any(e < 0 for e in etas):
            raise ValueError("learning rates must be nonnegative")
        if self.d0 < 0:
            raise ValueError("initial squared distance must be nonnegative")
        object.__setattr__(self, "eta_schedule", etas)


def _warn_non_contractive(etas, L: float) -> None:
    bad = [e for e in etas if e >= 1.0 / (3.0 * L)]
    if bad:
        warnings.warn(
            f"learning rate {max(bad)} >= 1/(3L) = {1.0 / (3.0 * L)}; "
            "bound is non-contractive but still computed",
            stacklevel=3,
        )


def theorem2_bound(p: BoundParams, t: int) -> float:
    """Fixed-rate closed form: (1-3*eta*L)^(t+1) * D0 + eta*G^2/(3L) * (1 - (1-3*eta*L)^(t+1)).

    The recursion B <- (1 - 3*eta*L) * B + (eta * G)^2 from B = D0, run over
    rounds 0..t, solved for a constant eta: it bounds the squared distance of
    the uniform-weight consensus to w* for an L-smooth objective with
    stochastic gradients of norm at most G, and contracts only for
    eta < 1/(3L). The constant 1 - 3*eta*L is taken as stated; PAPER.md
    holds only the abstract of arXiv 2512.12022, so it cannot be checked
    against the paper's proof here.
    """
    if t < 0:
        raise ValueError("round index must be nonnegative")
    etas = set(p.eta_schedule)
    if len(etas) != 1:
        raise ValueError("theorem2_bound requires a constant learning rate")
    eta = p.eta_schedule[0]
    _warn_non_contractive([eta], p.smoothness)
    contraction = (1.0 - 3.0 * eta * p.smoothness) ** (t + 1)
    plateau = eta * p.grad_bound ** 2 / (3.0 * p.smoothness)
    return contraction * p.d0 + plateau * (1.0 - contraction)


class QuadraticTestbed(NamedTuple):
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    w_star: np.ndarray


def quadratic_testbed(L: float, dim: int, seed: int) -> QuadraticTestbed:
    """f(w) = (L/2) * ||w - w*||^2 with a seeded random optimum.

    The gradient is L * (w - w*), so the smoothness constant is exactly L.
    """
    if L <= 0:
        raise ValueError("smoothness constant must be positive")
    if dim < 1:
        raise ValueError("dimension must be positive")
    w_star = rng.stream(seed, purpose="quadratic-testbed").standard_normal(dim)
    w_star.setflags(write=False)

    def objective(w: np.ndarray) -> float:
        diff = np.asarray(w, dtype=np.float64) - w_star
        return float(0.5 * L * diff @ diff)

    def gradient(w: np.ndarray) -> np.ndarray:
        return L * (np.asarray(w, dtype=np.float64) - w_star)

    return QuadraticTestbed(objective, gradient, w_star)


def quadratic_bound_rows(
    L: float,
    dim: int,
    eta: float,
    rounds: int,
    num_clients: int,
    noise_scale: float,
    seed: int,
) -> list:
    """Run noisy gradient descent on the quadratic testbed and evaluate the bound.

    Clients share the objective, aggregate with uniform weights each round,
    and use exact gradients plus seeded Gaussian noise. G is the largest
    stochastic-gradient norm observed along the trajectory. Returns rows
    (t, empirical_sq_dist, theorem_bound, slack) where the empirical column is
    the post-aggregation squared distance of the uniform-weight consensus to
    w* after round t, and the bound is theorem2_bound with constant eta,
    smoothness L, D0 the clients' mean initial squared distance and G the
    largest observed stochastic-gradient norm.

    The bound contracts by 1 - 3*eta*L per round (eta < 1/(3L)), a constant
    that cannot be checked here (see theorem2_bound). One noiseless step on
    this testbed contracts the squared distance by exactly (1 - eta*L)^2,
    which is larger than 1 - 3*eta*L: the empirical distance falls more
    slowly than the bound's first term, so the slack can go negative in
    early rounds, before the plateau term eta*G^2/(3L) takes over (t = 5 to
    8 on configs/bounds.json).
    """
    if rounds < 1 or num_clients < 1:
        raise ValueError("rounds and num_clients must be positive")
    testbed = quadratic_testbed(L, dim, seed)
    init_gen = rng.stream(seed, purpose="quadratic-init")
    models = [init_gen.standard_normal(dim) for _ in range(num_clients)]
    d0 = float(np.mean([np.sum((w - testbed.w_star) ** 2) for w in models]))

    grad_max = 0.0
    empirical = []
    for t in range(rounds):
        halves = []
        for k, w in enumerate(models):
            noise = noise_scale * rng.stream(seed, k, t, "quadratic-noise").standard_normal(dim)
            g = testbed.gradient(w) + noise
            grad_max = max(grad_max, float(np.linalg.norm(g)))
            halves.append(w - eta * g)
        consensus = np.mean(halves, axis=0)
        models = [consensus.copy() for _ in range(num_clients)]
        empirical.append(float(np.sum((consensus - testbed.w_star) ** 2)))

    params = BoundParams(L, grad_max, (eta,) * rounds, d0)
    rows = []
    for t in range(rounds):
        bound = theorem2_bound(params, t)
        rows.append((t, empirical[t], bound, bound - empirical[t]))
    return rows
