"""Submodularity ratio: exhaustive general form plus two-feature closed forms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import regress
from .bitsets import combination_blocks
from .errors import EmptyCandidateSet, InfeasibleCorrelations
from .regress import DEFAULT_MAX_FEATURES, FitCache, StandardizedDesign, _as_indices, _check_cap
from .setfun import SKIP_DENOM_TOL, _fits

MODE_AT_MOST_K = "at_most_k"
MODE_EXACTLY_K = "exactly_k"
FEASIBILITY_TOL = 1e-12


@dataclass(frozen=True)
class RatioQuery:
    """One submodularity-ratio request: base set, candidate cardinality, mode.

    ``at_most_k`` ranges candidate sets over sizes 1..k (singletons pin the
    minimum at 1 whenever they are admissible); ``exactly_k`` fixes the size.
    """

    base: tuple[int, ...]
    k: int
    mode: str = MODE_AT_MOST_K

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.mode not in (MODE_AT_MOST_K, MODE_EXACTLY_K):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "base", tuple(sorted(set(self.base))))


@dataclass(frozen=True)
class RatioResult:
    gamma_sr: float
    argmin: tuple[int, ...]
    skipped: int


def submodularity_ratio(
    design: StandardizedDesign,
    query: RatioQuery,
    cache: FitCache | None = None,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> RatioResult:
    """Worst-case ratio of summed single-feature gains to the joint gain.

    For each admissible candidate set T disjoint from the base S, compares
    sum_i gain_S(t_i), summed in index order, against gain_S(T). Each gain is
    a difference of two fits, read from the cache's table once it is filled
    and otherwise fitted, a block of candidate sets per fit_block call. The
    argmin is the first strict minimum in combinations order. Candidates
    whose joint gain is negligible are skipped and counted; if everything is
    skipped there is no ratio to report and EmptyCandidateSet is raised.
    """
    m = design.m
    _check_cap(m, max_features)
    base = np.array(_as_indices(query.base, m), dtype=np.intp)
    if base.size + query.k > m:
        raise ValueError("base set plus k exceeds the number of features")

    candidates = np.delete(np.arange(m), base)
    fs = _fits(design, cache, [base])[0]

    def gains(teams):
        # gain_S(T) of each row T of a block of candidate sets; np.nonzero
        # lists each row's members of S + T in ascending order
        member = np.zeros((len(teams), m), dtype=bool)
        member[:, base] = True
        member[np.arange(len(teams))[:, None], teams] = True
        return _fits(design, cache, np.nonzero(member)[1].reshape(len(teams), -1)) - fs

    singles = gains(candidates[:, None])

    sizes = [query.k] if query.mode == MODE_EXACTLY_K else list(range(1, query.k + 1))
    best = math.inf
    argmin: tuple[int, ...] = ()
    skipped = 0
    for size in sizes:
        for block in combination_blocks(candidates.size, size, regress.FIT_CHUNK):
            joint = gains(candidates[block])
            total = np.zeros(len(block))
            for column in block.T:
                total += singles[column]
            negligible = joint < SKIP_DENOM_TOL
            skipped += int(negligible.sum())
            ratio = np.where(negligible, math.inf, np.maximum(total, 0.0) / np.where(negligible, 1.0, joint))
            at = int(ratio.argmin())
            if ratio[at] < best:
                best = float(ratio[at])
                argmin = tuple(candidates[block[at]].tolist())
    if not math.isfinite(best):
        raise EmptyCandidateSet("every candidate set had negligible joint gain")
    return RatioResult(gamma_sr=best, argmin=argmin, skipped=skipped)


@dataclass(frozen=True)
class PairDiagnostics:
    """Closed-form two-feature diagnostics from (r_y1, r_y2, r12).

    gamma1 and gamma2 are the single-step gain ratios for each feature,
    gamma_s2 their minimum, gamma_sr the two-feature submodularity ratio, and
    sum_bound the ratio obtained by summing both single-step inequalities
    (always at least gamma_s2 on feasible inputs). Ratios whose denominator
    vanishes are reported as +inf sentinels.
    """

    r_y1: float
    r_y2: float
    r12: float
    gamma1: float
    gamma2: float
    gamma_s2: float
    gamma_sr: float
    sum_bound: float


def _conditional_gain(r_own, r_other, r12):
    """Fit gain of one feature once the other is already in the model."""
    residual = r_own - r12 * r_other
    return residual * residual / (1.0 - r12 * r12)


def gamma_pair_columns(
    r_y1: np.ndarray, r_y2: np.ndarray, r12: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form pair diagnostics for arrays of correlation triples.

    Returns (gamma1, gamma2, gamma_s2, gamma_sr, sum_bound), one float64 array
    each, with the meanings of PairDiagnostics. Raises InfeasibleCorrelations
    if any triple is infeasible.
    """
    if not ((np.abs(r_y1) < 1.0) & (np.abs(r_y2) < 1.0) & (np.abs(r12) < 1.0)).all():
        raise InfeasibleCorrelations("correlations must lie strictly inside (-1, 1)")
    det = 1.0 - r12 * r12
    joint = (r_y1 * r_y1 - 2.0 * r12 * r_y1 * r_y2 + r_y2 * r_y2) / det
    over = joint > 1.0 + FEASIBILITY_TOL
    if over.any():
        raise InfeasibleCorrelations(f"implied joint fit {joint[over][0]:.6f} exceeds 1")

    delta1 = r_y1 * r_y1
    delta2 = r_y2 * r_y2
    gain1 = _conditional_gain(r_y1, r_y2, r12)
    gain2 = _conditional_gain(r_y2, r_y1, r12)
    # gain1 + gain2 equals 2 * joint - delta1 - delta2 but without the
    # cancellation, so the symmetric-case identity sum_bound = gamma_s2 is
    # exact in floating point as well.
    spread = gain1 + gain2
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma1 = np.where(gain1 > 0.0, delta1 / gain1, math.inf)
        gamma2 = np.where(gain2 > 0.0, delta2 / gain2, math.inf)
        gamma_sr = np.where(joint > 0.0, (delta1 + delta2) / joint, math.inf)
        sum_bound = np.where(spread > 0.0, (delta1 + delta2) / spread, math.inf)
    gamma_s2 = np.where(gamma2 < gamma1, gamma2, gamma1)
    return gamma1, gamma2, gamma_s2, gamma_sr, sum_bound


def gamma_pair(r_y1: float, r_y2: float, r12: float) -> PairDiagnostics:
    """Evaluate the closed-form pair diagnostics for one correlation triple."""
    columns = gamma_pair_columns(*(np.array([r], dtype=float) for r in (r_y1, r_y2, r12)))
    gamma1, gamma2, gamma_s2, gamma_sr, sum_bound = (float(col[0]) for col in columns)
    return PairDiagnostics(
        r_y1=r_y1,
        r_y2=r_y2,
        r12=r12,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma_s2=gamma_s2,
        gamma_sr=gamma_sr,
        sum_bound=sum_bound,
    )
