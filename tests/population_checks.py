"""Two checks no command reports yet, the checks of acceptance criteria 6
and 7: the screening visibility condition on a known support, and the
ordering of the submodularity ratio against the sparse minimum eigenvalue.
ROADMAP item 5 brings either back into the package with the command that
reports it on population designs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from r2audit.errors import AuditError
from r2audit.gamma import MODE_EXACTLY_K, submodularity_ratio
from r2audit.regress import StandardizedDesign, _as_indices
from r2audit.spectral import sparse_min_eigenvalue

# gamma_vs_spectral's ordering holds when the ratio reaches the eigenvalue
# less this
ORDERING_TOL = 1e-9


class ZeroBeta(AuditError):
    """A coefficient claimed to be in the true support is zero."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"true coefficient at index {index} is zero")


class ScreeningAssumption(NamedTuple):
    """Margins for the screening visibility condition on a known support.

    ``min_beta_margin`` is min |beta_i| - c2 / n^kappa over the support and
    ``min_visibility`` is the smallest |beta_i^-1 r_Yi|; the condition holds
    when the former is nonnegative and the latter reaches c3.
    """

    min_beta_margin: float
    min_visibility: float
    holds: bool
    visibilities: tuple[tuple[int, float], ...]


def sis_assumption_check(
    design: StandardizedDesign,
    true_support: Iterable[int],
    true_beta: Sequence[float],
    kappa: float,
    c2: float,
    c3: float,
) -> ScreeningAssumption:
    """Check whether every true feature is marginally visible enough to screen."""
    if not 0.0 <= kappa < 0.5:
        raise ValueError("kappa must lie in [0, 1/2)")
    support = _as_indices(true_support, design.m)
    if not support:
        raise ValueError("true support is empty")
    beta = np.asarray(true_beta, dtype=float)
    if beta.shape != (design.m,):
        raise ValueError("true_beta must have one entry per feature")
    corr = design.marginal_correlations()
    visibilities = []
    for i in support:
        if beta[i] == 0.0:
            raise ZeroBeta(i)
        visibilities.append((i, float(abs(corr[i] / beta[i]))))
    min_beta = min(float(abs(beta[i])) for i in support)
    margin = min_beta - c2 / design.n**kappa
    min_vis = min(v for _, v in visibilities)
    return ScreeningAssumption(
        min_beta_margin=margin,
        min_visibility=min_vis,
        holds=bool(margin >= 0.0 and min_vis >= c3),
        visibilities=tuple(visibilities),
    )


class GammaSpectralComparison(NamedTuple):
    gamma_sr: float
    lambda_min: float
    holds: bool


def gamma_vs_spectral(design: StandardizedDesign, subset: Iterable[int], k: int) -> GammaSpectralComparison:
    """Check the ordering: submodularity ratio at (S, k) dominates the sparse
    minimum eigenvalue at size |S| + k, both under the default enumeration
    cap."""
    base = tuple(subset)
    ratio = submodularity_ratio(design, k, base=base, mode=MODE_EXACTLY_K)
    size = min(len(set(base)) + k, design.m)
    lam = sparse_min_eigenvalue(design.correlation_matrix(), size)
    return GammaSpectralComparison(
        gamma_sr=ratio.gamma_sr,
        lambda_min=lam.value,
        holds=ratio.gamma_sr >= lam.value - ORDERING_TOL,
    )
