"""Scalar reference implementations of greedy stepwise and the submodularity
ratio: one subset at a time, as the package computed them before it read
every fit through one table read or one batched fit_block call.

With a filled cache they read the kernel's fit and gain tables, one mask at
a time; otherwise each subset is one fit_entry call (one fit_block row) and
each gain the difference of two. The differential tests require the package
to agree with them with ``==``: every step's feature, gain, fit, t statistic
and stopping reason, and the ratio, its argmin and its skip count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from r2audit.bitsets import indices_of, mask_of
from r2audit.errors import EmptyCandidateSet, InsufficientDof, RankDeficient
from r2audit.gamma import MODE_EXACTLY_K, RatioResult
from r2audit.regress import ZERO_RSS_TOL, _as_indices, fit_block, ls_fit
from r2audit.selection import SelectionStep, SelectionTrace
from r2audit.setfun import SKIP_DENOM_TOL, _gains_at


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


def _filled(cache):
    return cache is not None and cache.table is not None


def _r2(design, mask, cache):
    if _filled(cache):
        return float(cache.table[mask])
    return fit_entry(design, indices_of(mask)).r_squared


def _gain(design, mask, i, cache):
    if _filled(cache):
        return float(_gains_at(cache, i, mask))
    return _r2(design, mask | (1 << i), cache) - _r2(design, mask, cache)


def _step_t(design, model, j, cache):
    subset = tuple(sorted(model + (j,)))
    rss = 1.0 - _r2(design, mask_of(subset), cache)
    if rss <= ZERO_RSS_TOL:
        return math.inf
    if len(subset) > design.n - 2:
        return None
    try:
        fit = ls_fit(design, subset)
    except (RankDeficient, InsufficientDof):
        return None
    return float(fit.t_statistics[subset.index(j)])


def forward_stepwise(design, k, t_stop=None, cache=None):
    model = ()
    steps = []
    reason = "max_steps"
    while len(model) < k:
        candidates = [j for j in range(design.m) if j not in model]
        if t_stop is not None and model:
            ts = {j: _step_t(design, model, j, cache) for j in candidates}
            if not any(t is not None and abs(t) >= t_stop for t in ts.values()):
                reason = "t_threshold"
                break
        best_j = -1
        best_gain = -math.inf
        for j in candidates:
            gain = _gain(design, mask_of(model), j, cache)
            if gain > best_gain:
                best_gain = gain
                best_j = j
        t_val = _step_t(design, model, best_j, cache)
        model = tuple(sorted(model + (best_j,)))
        steps.append(SelectionStep(best_j, best_gain, _r2(design, mask_of(model), cache), t_val))
    return SelectionTrace("forward_stepwise", tuple(steps), reason)


def submodularity_ratio(design, query, cache=None):
    s_mask = mask_of(query.base)
    fs = _r2(design, s_mask, cache)
    candidates = [i for i in range(design.m) if not (s_mask >> i) & 1]
    singles = {i: _r2(design, s_mask | (1 << i), cache) - fs for i in candidates}
    sizes = [query.k] if query.mode == MODE_EXACTLY_K else list(range(1, query.k + 1))
    best = math.inf
    argmin = ()
    skipped = 0
    for size in sizes:
        for team in combinations(candidates, size):
            joint = _r2(design, s_mask | mask_of(team), cache) - fs
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
