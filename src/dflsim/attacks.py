"""Byzantine update fabrication: Gaussian noise, sign flipping, and ALIE.

Attack functions are pure: they see only an AdversaryView (never any benign
client's raw data) and the malicious node's dedicated random stream.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Literal, Union, get_args

import numpy as np


#: What a malicious node sees: every benign model, or its benign neighbors' only.
Knowledge = Literal["omniscient", "neighborhood"]


@dataclass(frozen=True)
class _AttackBase:
    """The field every attack kind takes, beside its own: its threat model's knowledge."""

    knowledge: Knowledge = field(default="omniscient", kw_only=True)

    def __post_init__(self):
        if self.knowledge not in get_args(Knowledge):
            raise ValueError(f"knowledge: expected 'omniscient' or 'neighborhood', "
                             f"got {self.knowledge!r}")


@dataclass(frozen=True)
class Gaussian(_AttackBase):
    sigma: float = 30.0

    def __post_init__(self):
        super().__post_init__()
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class SignFlip(_AttackBase):
    factor: float = -10.0


@dataclass(frozen=True)
class ALIE(_AttackBase):
    #: None selects the standard quantile-based z for the network size.
    z: float | None = None
    # As an infeasible baseline does, ALIE declares the fewest benign models
    # a malicious node must see and its rule as its error message states it.
    fewest = 2
    rule = "the mean and std of its visible benign models"


AttackKind = Union[Gaussian, SignFlip, ALIE]


@dataclass(frozen=True)
class AdversaryView:
    """What one malicious node sees in a round.

    benign_models is the (k, C*d+C) matrix of the post-local-step models
    visible under the configured knowledge model (all benign nodes, or benign
    neighbors only), in ascending node id order. own_model is the malicious
    node's stored model row and carries the target length.
    """

    benign_models: np.ndarray
    own_model: np.ndarray
    num_nodes: int
    num_malicious: int


def gaussian_update(size: int, sigma: float, gen: np.random.Generator) -> np.ndarray:
    """A model row of size i.i.d. draws from Normal(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return sigma * gen.standard_normal(size)


def sign_flip_update(model: np.ndarray, factor: float) -> np.ndarray:
    """Element-wise factor * model."""
    return factor * model


def auto_alie_z(num_nodes: int, num_malicious: int) -> float:
    """Quantile z for the given network: Phi^-1((n-m-s)/(n-m)), s = floor(n/2+1)-m.

    Clamped to [0, 3]; an infeasible supporter count (s <= 0) degrades to z=0
    with a warning.
    """
    n, m = num_nodes, num_malicious
    s = n // 2 + 1 - m
    if s <= 0 or n - m <= 0:
        warnings.warn(
            f"ALIE auto-z infeasible for n={n}, m={m}; falling back to z=0",
            stacklevel=2,
        )
        return 0.0
    z = NormalDist().inv_cdf((n - m - s) / (n - m))
    return float(min(max(z, 0.0), 3.0))


def alie_update(view: AdversaryView, z: float | None = None) -> np.ndarray:
    """Coordinate-wise mean - z * std of the visible benign models.

    Statistics use the population standard deviation. z=None resolves via
    auto_alie_z from the view's network size.
    """
    if len(view.benign_models) < 2:
        raise ValueError("ALIE needs at least 2 visible benign models")
    if z is None:
        z = auto_alie_z(view.num_nodes, view.num_malicious)
    mu = view.benign_models.mean(axis=0)
    sigma = view.benign_models.std(axis=0)
    return mu - z * sigma
