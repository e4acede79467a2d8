"""Scalar reference implementations of greedy stepwise and the submodularity
ratio: one subset and one matrix entry at a time.

Stepwise sweeps a list-of-lists Gram matrix on each pick and applies the
package's trust test and gains entry by entry, so that every value is the
same floating-point expression as in the package; candidates the test does
not trust gain the difference of two fit_entry calls (one fit_block row
each), and every t statistic comes from ls_fit. The ratio takes
every gain as the difference of two fits, from fit_entry or, when given, a
``fit`` of masks such as a FitTable's r2. The differential tests require the
package to agree with them with ``==``: every step's feature, gain, fit, t
statistic and stopping reason, and the ratio, its argmin and its skip count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from r2audit.bitsets import indices_of
from r2audit.errors import EmptyCandidateSet, InsufficientDof, RankDeficient
from r2audit.gamma import MODE_EXACTLY_K, RatioResult
from r2audit.regress import TABLE_PIVOT_RTOL, ZERO_RSS_TOL, _as_indices, fit_block, ls_fit
from r2audit.selection import SelectionStep, SelectionTrace
from r2audit.setfun import SKIP_DENOM_TOL
from setfun_oracle import mask_of


@dataclass(frozen=True)
class FitEntry:
    r_squared: float
    rank: int


def fit_entry(design, subset):
    """(r_squared, rank) of one subset, fitted by fit_block."""
    idx = _as_indices(subset, design.m)
    if not idx:
        return FitEntry(0.0, 0)
    r2, rank = fit_block(design, np.array([idx]))
    return FitEntry(float(r2[0]), int(rank[0]))


def _sweep(C, k):
    """C swept on feature k (Goodnight 1979), entry by entry as regress._sweep
    computes it."""
    size = len(C)
    d = C[k][k]
    col = [C[a][k] for a in range(size)]
    out = [[C[a][b] - col[a] * (col[b] / d) for b in range(size)] for a in range(size)]
    for b in range(size):
        out[k][b] = out[b][k] = col[b] / d
    out[k][k] = -1.0 / d
    return out


def _trusted(C, model, j, floor):
    """Whether S + j passes fit_table's trust test, C being G swept on S."""
    pivot = C[j][j]
    if not pivot >= floor[j]:
        return False
    return all((C[a][j] * C[a][j] / pivot - C[a][a]) * floor[a] <= 1.0 for a in model)


def _step_t(design, subset, j, r2):
    if 1.0 - r2 <= ZERO_RSS_TOL:
        return math.inf
    try:
        fit = ls_fit(design, subset)
    except (RankDeficient, InsufficientDof):
        return None
    return float(fit.t_statistics[subset.index(j)])


def forward_stepwise(design, k, t_stop=None):
    m = design.m
    C = design.gram().tolist()
    floor = [TABLE_PIVOT_RTOL * C[a][a] for a in range(m)]
    model = []
    swept = True
    fit = 0.0
    steps = []
    reason = "max_steps"
    while len(model) < k:
        candidates = [j for j in range(m) if j not in model]
        trusted = {j: swept and _trusted(C, model, j, floor) for j in candidates}
        gains = {
            j: C[j][m] * C[j][m] / C[j][j] if trusted[j] else fit_entry(design, model + [j]).r_squared - fit
            for j in candidates
        }
        if t_stop is not None and model:
            ts = [_step_t(design, sorted(model + [j]), j, fit + gains[j]) for j in candidates]
            if not any(t is not None and abs(t) >= t_stop for t in ts):
                reason = "t_threshold"
                break
        best_j = -1
        best_gain = -math.inf
        for j in candidates:
            if gains[j] > best_gain:
                best_gain = gains[j]
                best_j = j
        subset = sorted(model + [best_j])
        swept = trusted[best_j]
        fit = fit_entry(design, subset).r_squared
        steps.append(SelectionStep(best_j, best_gain, fit, _step_t(design, subset, best_j, fit)))
        if swept:
            C = _sweep(C, best_j)
        model.append(best_j)
    return SelectionTrace("forward_stepwise", tuple(steps), reason)


def submodularity_ratio(design, query, fit=None):
    if fit is None:
        fit = lambda mask: fit_entry(design, indices_of(mask)).r_squared  # noqa: E731
    s_mask = mask_of(_as_indices(query.base, design.m))
    fs = fit(s_mask)
    candidates = [i for i in range(design.m) if not (s_mask >> i) & 1]
    singles = {i: fit(s_mask | (1 << i)) - fs for i in candidates}
    sizes = [query.k] if query.mode == MODE_EXACTLY_K else list(range(1, query.k + 1))
    best = math.inf
    argmin = ()
    skipped = 0
    for size in sizes:
        for team in combinations(candidates, size):
            joint = fit(s_mask | mask_of(team)) - fs
            if joint < SKIP_DENOM_TOL:
                skipped += 1
                continue
            ratio = max(sum(singles[i] for i in team), 0.0) / joint
            if ratio < best:
                best = ratio
                argmin = team
    if not math.isfinite(best):
        raise EmptyCandidateSet("every candidate set had negligible joint gain")
    return RatioResult(gamma_sr=best, argmin=argmin, skipped=skipped)
