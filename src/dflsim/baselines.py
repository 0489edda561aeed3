"""Reference aggregators: averaging, coordinate median, Krum, Multi-Krum,
trimmed mean, and the distance-weighted FLAME variant.

Each aggregator takes the closed neighborhood (the aggregating client's own
post-local-step model included) as a (k, C*d+C) matrix whose rows are in
ascending node id order, and returns one row. Score and sort ties go to the
first row, i.e. the lowest node id. Averaging, median and trimmed mean also
take a (..., k, C*d+C) stack of neighborhoods of k members each and reduce
every one over axis -2, bit-identical to one call per neighborhood.
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


@dataclass(frozen=True)
class Krum:
    f: int = 2

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("f must be nonnegative")


@dataclass(frozen=True)
class MultiKrum:
    f: int = 2
    m: int = 2

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("f must be nonnegative")
        if self.m < 1:
            raise ValueError("m must be positive")


@dataclass(frozen=True)
class TrimmedMean:
    f: int = 2

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


BaselineKind = Union[DFedAvg, Median, Krum, MultiKrum, TrimmedMean, Flame]

# The aggregators that cannot reduce every closed neighborhood: the fewest
# models each needs, and the rule as its error message states it.
NEIGHBORHOOD_RULES = {
    Krum: (lambda agg: agg.f + 3, "n - f - 2 >= 1"),
    MultiKrum: (lambda agg: max(agg.f + 3, agg.m), "n - f - 2 >= 1 and m <= n"),
    TrimmedMean: (lambda agg: 2 * agg.f + 1, "n > 2f"),
}


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


def krum(params: np.ndarray, f: int) -> np.ndarray:
    """Row with the minimal Krum score; ties go to the first row."""
    return params[np.argmin(krum_scores(params, f))]


def multi_krum(params: np.ndarray, f: int, m: int) -> np.ndarray:
    """Mean of the m lowest-Krum-score rows, summed in row order."""
    if not 1 <= m <= len(params):
        raise ValueError(f"m={m} must lie in [1, {len(params)}]")
    chosen = np.sort(np.argsort(krum_scores(params, f), kind="stable")[:m])
    return params[chosen].mean(axis=0)


def trimmed_mean(params: np.ndarray, f: int) -> np.ndarray:
    """Per coordinate: drop the f smallest and f largest values, average the rest."""
    n = params.shape[-2]
    if n <= 2 * f:
        raise ValueError(f"trimmed mean needs n > 2f, got n={n} with f={f}")
    return np.sort(params, axis=-2)[..., f:n - f, :].mean(axis=-2)


def flame_weighted(
    own_row: np.ndarray, received_rows: np.ndarray, beta: float, include_self: bool = True
) -> np.ndarray:
    """Distance-weighted average with weights 1/(||own - w_j||^2 + beta).

    include_self adds the client's own row at distance zero (closed
    neighborhood reading); include_self=False is the literal neighbors-only
    form.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not len(received_rows):
        raise ValueError("flame requires at least one received model")
    models = np.vstack([own_row, received_rows]) if include_self else received_rows
    diffs = models - own_row
    u = 1.0 / (np.einsum("ij,ij->i", diffs, diffs) + beta)
    return (u / u.sum()) @ models
