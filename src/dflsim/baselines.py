"""Reference aggregators: averaging, coordinate median, Krum, Multi-Krum,
trimmed mean, and the distance-weighted FLAME variant.

Each reads a closed neighborhood (the aggregating client's own
post-local-step model included) as a (k, C*d+C) matrix whose rows are in
ascending node id order; score and sort ties go to the first row, i.e. the
lowest node id. Averaging, median and trimmed mean return one row, and
reduce a (..., k, C*d+C) stack over axis -2, bit-identical to one call per
neighborhood. Krum, Multi-Krum and FLAME weigh members instead: weights(params,
own) maps a (g, k, C*d+C) stack and the (g,) columns of the clients' own rows
to (g, k) nonnegative weights, which a round mixes as it mixes DFedReweighting's.

This FLAME is the distance-weighted average anchored on the client's own
model, not the clustering, clipping and noising FLAME of Nguyen et al.
(USENIX Security 2022).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class DFedAvg:
    pass


@dataclass(frozen=True)
class Median:
    pass


# An aggregator that cannot reduce every closed neighborhood of n models
# declares the fewest it needs and its rule as its error message states it.


@dataclass(frozen=True)
class Krum:
    f: int = 2
    rule = "n - f - 2 >= 1"
    fewest = property(lambda self: self.f + 3)

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("f must be nonnegative")

    def weights(self, params: np.ndarray, own: np.ndarray) -> np.ndarray:
        """Multi-Krum with m = 1: ties go to the first member, and NaN scores sort last."""
        return MultiKrum(self.f, 1).weights(params, own)


@dataclass(frozen=True)
class MultiKrum:
    f: int = 2
    m: int = 2
    rule = "n - f - 2 >= 1 and m <= n"
    fewest = property(lambda self: max(self.f + 3, self.m))

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("f must be nonnegative")
        if self.m < 1:
            raise ValueError("m must be positive")

    def weights(self, params: np.ndarray, own: np.ndarray) -> np.ndarray:
        """1 on each neighborhood's m lowest Krum scores by a stable sort; NaN sorts last."""
        if not 1 <= self.m <= params.shape[1]:
            raise ValueError(f"m={self.m} must lie in [1, {params.shape[1]}]")
        scores = np.array([krum_scores(p, self.f) for p in params])
        return np.eye(params.shape[1])[np.argsort(scores, axis=1, kind="stable")[:, :self.m]].sum(axis=1)


@dataclass(frozen=True)
class TrimmedMean:
    f: int = 2
    rule = "n > 2f"
    fewest = property(lambda self: 2 * self.f + 1)

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("f must be nonnegative")


@dataclass(frozen=True)
class Flame:
    beta: float = 1.0
    include_self: bool = True

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def weights(self, params: np.ndarray, own: np.ndarray) -> np.ndarray:
        """1/(||x_j - x_own||^2 + beta) per member j; the own entry is 0 unless include_self."""
        clients = np.arange(len(own))
        diffs = params - params[clients, own][:, None]
        u = 1.0 / (np.einsum("gkp,gkp->gk", diffs, diffs) + self.beta)
        if not self.include_self:
            u[clients, own] = 0.0
        return u


BaselineKind = Union[DFedAvg, Median, Krum, MultiKrum, TrimmedMean, Flame]

def dfedavg(params: np.ndarray) -> np.ndarray:
    """Unweighted arithmetic mean of all rows."""
    return params.mean(axis=-2)


def median_agg(params: np.ndarray) -> np.ndarray:
    """Coordinate-wise lower median: sorted element floor((n-1)/2)."""
    return np.sort(params, axis=-2)[..., (params.shape[-2] - 1) // 2, :]


def krum_scores(params: np.ndarray, f: int) -> np.ndarray:
    """Krum score per row: sum of its n-f-2 smallest squared distances."""
    n = len(params)
    keep = n - f - 2
    if keep < 1:
        raise ValueError(
            f"krum needs n - f - 2 >= 1, got n={n} candidates with f={f}"
        )
    diffs = params[:, None, :] - params[None, :, :]
    dists = np.einsum("ijk,ijk->ij", diffs, diffs)
    np.fill_diagonal(dists, np.inf)
    return np.sort(dists, axis=1)[:, :keep].sum(axis=1)


def trimmed_mean(params: np.ndarray, f: int) -> np.ndarray:
    """Per coordinate: drop the f smallest and f largest values, average the rest."""
    n = params.shape[-2]
    if n <= 2 * f:
        raise ValueError(f"trimmed mean needs n > 2f, got n={n} with f={f}")
    return np.sort(params, axis=-2)[..., f:n - f, :].mean(axis=-2)
