"""Selection algorithms the diagnostics explain: greedy stepwise, exhaustive
best subset, the greedy guarantee verdict, and (iterated) marginal-correlation
screening.

Ties always break toward the lowest feature index, then the smallest mask,
so traces are reproducible across platforms.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import regress
from .bitsets import block_masks, indices_of, mask_of, mask_sizes
from .errors import DegenerateResidual, InsufficientDof, RankDeficient, ZeroBeta
from .jsonsafe import json_line
from .regress import (
    DEFAULT_MAX_FEATURES,
    ZERO_RSS_TOL,
    FitCache,
    StandardizedDesign,
    _as_indices,
    _check_cap,
    _fits,
    _gains_at,
    fit_block,
    ls_fit,
    partial_correlation,
    sweep_walk,
)

NWF_THRESHOLD = 1.0 - 1.0 / math.e

# best_subset re-fits every trusted subset whose screened fit lies
# within this distance of its size's screened maximum. A screened value is
# within 3 eps |S| / regress.SWEEP_PIVOT_RTOL of fit_block's, 1.6e-8 at 24
# features, so the band is more than twice that: it holds the subset
# fit_block ranks first, and every subset tied with it. On an n = 2000,
# m = 24 Gaussian design only each size's screened maximum lies within it.
SCREEN_BAND = 1e-7


class SelectionStep(NamedTuple):
    feature: int
    delta_r2: float
    cumulative_r2: float
    marginal_t: float | None


class SelectionTrace(NamedTuple):
    """Ordered record of a selection run: one entry per accepted feature."""

    algorithm: str
    steps: tuple[SelectionStep, ...]
    stopping_reason: str

    def selected(self) -> tuple[int, ...]:
        return tuple(step.feature for step in self.steps)

    def final_r_squared(self) -> float:
        return self.steps[-1].cumulative_r2 if self.steps else 0.0

    def to_json_lines(self, names: Sequence[str]) -> str:
        return "".join(
            json_line(
                {
                    "step": rank,
                    "feature": names[step.feature],
                    "delta_r2": step.delta_r2,
                    "cumulative_r2": step.cumulative_r2,
                    "marginal_t": step.marginal_t,
                }
            )
            + "\n"
            for rank, step in enumerate(self.steps, start=1)
        )


def _step_t(design: StandardizedDesign, subset: tuple[int, ...], j: int, r2: float) -> float | None:
    """t statistic of feature j in the fit on subset, whose R^2 is r2.

    Interpolating fits report the +inf sentinel; fits without residual
    degrees of freedom or with j degenerate report None.
    """
    if 1.0 - r2 <= ZERO_RSS_TOL:
        return math.inf
    try:
        fit = ls_fit(design, subset)
    except (RankDeficient, InsufficientDof):
        return None
    return float(fit.t_statistics[subset.index(j)])


def forward_stepwise(
    design: StandardizedDesign,
    k: int,
    t_stop: float | None = None,
    cache: FitCache | None = None,
) -> SelectionTrace:
    """Greedy selection: each step adds the feature with the largest fit gain.

    Each step fits every candidate model in one read of the cache's table
    when a kernel has filled it, else in one fit_block call. A candidate's
    gain is then read from the gain table, or is its fit minus the current
    model's. Ties go to the lowest feature index. Runs for k steps
    regardless of how small the gains get, unless ``t_stop`` is set, in
    which case the run ends early once no remaining feature's per-step t
    statistic reaches the threshold in absolute value. The threshold
    governs continuation, so the first step is always taken.
    """
    if not 1 <= k <= design.m:
        raise ValueError(f"k must lie in 1..{design.m}")
    filled = cache is not None and cache.table is not None
    model: tuple[int, ...] = ()
    fit = 0.0
    steps: list[SelectionStep] = []
    reason = "max_steps"
    while len(model) < k:
        candidates = [j for j in range(design.m) if j not in model]
        subsets = [tuple(sorted(model + (j,))) for j in candidates]
        fits = _fits(design, cache, subsets)
        if t_stop is not None and model:
            ts = (_step_t(design, *step) for step in zip(subsets, candidates, fits))
            if not any(t is not None and abs(t) >= t_stop for t in ts):
                reason = "t_threshold"
                break
        gains = _gains_at(cache, np.array(candidates), mask_of(model)) if filled else fits - fit
        best = int(np.argmax(gains))
        model, fit = subsets[best], float(fits[best])
        steps.append(
            SelectionStep(
                feature=candidates[best],
                delta_r2=float(gains[best]),
                cumulative_r2=fit,
                marginal_t=_step_t(design, model, candidates[best], fit),
            )
        )
    return SelectionTrace("forward_stepwise", tuple(steps), reason)


def _best_per_size(design: StandardizedDesign, depth: int) -> list[tuple[int, float]]:
    """(mask, fit) of the best subset of each size 0..depth; ties go to the
    smallest mask.

    sweep_walk screens every subset. For each size, fit_block then re-fits
    the trusted subsets within SCREEN_BAND of the size's screened maximum
    and every untrusted subset, and the judgement reads re-fitted values
    only. So the answer is the one a fit_block call on every subset gives.
    """
    best = [(0, 0.0)] + [(-1, -1.0)] * depth
    top = np.full(depth + 1, -np.inf)
    pending = [(np.zeros((0, size), np.intp), np.zeros(0)) for size in range(depth + 1)]

    def judge(idx: np.ndarray) -> None:
        values = fit_block(design, idx)[0]
        value = float(values.max())
        mask = int(block_masks(idx)[values == value].min())
        best_mask, best_value = best[idx.shape[1]]
        if value > best_value or (value == best_value and mask < best_mask):
            best[idx.shape[1]] = (mask, value)

    # Re-fitting a subset that later falls out of the band cannot change the
    # answer, so pending finalists are judged whenever FIT_CHUNK of them
    # gather; memory stays bounded even when many subsets tie.
    for idx, r2, trusted in sweep_walk(design, depth):
        size = idx.shape[1]
        top[size] = max(top[size], np.max(r2, where=trusted, initial=-np.inf))
        held, screened = pending[size]
        idx = np.concatenate([held, idx])
        screened = np.concatenate([screened, np.where(trusted, r2, np.inf)])
        keep = screened >= top[size] - SCREEN_BAND
        idx, screened = idx[keep], screened[keep]
        if len(idx) >= regress.FIT_CHUNK:
            judge(idx)
            idx, screened = idx[:0], screened[:0]
        pending[size] = (idx, screened)
    for idx, _ in pending[1:]:
        if len(idx):
            judge(idx)
    return best


class BestSubsetResult(NamedTuple):
    subset: tuple[int, ...]
    r_squared: float


def best_subset(
    design: StandardizedDesign,
    k: int,
    *,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> BestSubsetResult:
    """Exhaustive maximizer of the fit over all subsets of size at most k.

    Subsets are ranked by a sweep screen and the finalists fitted by
    fit_block (see ``_best_per_size``), so the value and subset are those of
    fitting every subset; ties go to the smallest mask. Memory stays bounded
    by a few blocks of FIT_CHUNK subsets.
    """
    _check_cap(design.m, max_features)
    if not 0 <= k <= design.m:
        raise ValueError(f"k must lie in 0..{design.m}")
    best_mask = 0
    best_r2 = 0.0
    for mask, value in _best_per_size(design, k)[1:]:
        if value > best_r2 or (value == best_r2 and mask < best_mask):
            best_r2 = value
            best_mask = mask
    return BestSubsetResult(indices_of(best_mask), best_r2)


def table_best_subset(table: np.ndarray, k: int) -> BestSubsetResult:
    """Best subset of size at most k in a filled fit table (r2 by mask): the
    table's largest value over those masks, ties to the smallest mask.

    Read from the same table as a stepwise run on its cache, the optimum is
    at least the greedy fit by construction.
    """
    m = table.size.bit_length() - 1
    if not 0 <= k <= m:
        raise ValueError(f"k must lie in 0..{m}")
    values = np.where(mask_sizes(np.arange(table.size), m) <= k, table, -np.inf)
    mask = int(values.argmax())
    return BestSubsetResult(indices_of(mask), float(table[mask]))


class NwfResult(NamedTuple):
    """Greedy-vs-optimal comparison with the (1 - 1/e) factor.

    The guarantee is conditional on submodularity, so the exhaustive
    second-order status is reported alongside: a violated bound on a
    non-submodular instance is attributable, not anomalous.
    """

    greedy_r2: float
    optimal_r2: float
    ratio: float
    guarantee_holds: bool
    is_submodular: bool
    threshold: float = NWF_THRESHOLD


def nwf_verdict(
    greedy_r2: float, optimal_r2: float, is_submodular: bool, tolerance: float = 1e-9
) -> NwfResult:
    """The greedy guarantee check from its inputs: greedy over optimal fit (1
    when the optimum is not positive) against the (1 - 1/e) threshold."""
    ratio = 1.0 if optimal_r2 <= 0.0 else greedy_r2 / optimal_r2
    return NwfResult(
        greedy_r2=greedy_r2,
        optimal_r2=optimal_r2,
        ratio=ratio,
        guarantee_holds=ratio >= NWF_THRESHOLD - tolerance,
        is_submodular=is_submodular,
    )


def sis_screen(design: StandardizedDesign, d: int) -> tuple[int, ...]:
    """Top d features by absolute marginal correlation (ties by index)."""
    if not 1 <= d <= design.m:
        raise ValueError(f"d must lie in 1..{design.m}")
    corr = design.marginal_correlations()
    order = sorted(range(design.m), key=lambda i: (-abs(corr[i]), i))
    return tuple(order[:d])


class IsisRound(NamedTuple):
    scores: tuple[tuple[int, float], ...]
    picked: tuple[int, ...]


class IsisResult(NamedTuple):
    selected: tuple[int, ...]
    rounds: tuple[IsisRound, ...]
    skipped: int


def isis(design: StandardizedDesign, d_per_round: int, rounds: int) -> IsisResult:
    """Iterated screening on residualized correlations.

    Each round ranks the remaining features by the absolute correlation
    between the response and the feature adjusted for everything selected so
    far, then keeps the top d. Features that became degenerate are skipped
    and counted. Stops early when nothing scorable remains.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    if not 1 <= d_per_round <= design.m:
        raise ValueError(f"d_per_round must lie in 1..{design.m}")
    if d_per_round * rounds > design.m:
        raise ValueError("total selection exceeds the number of features")
    selected: tuple[int, ...] = ()
    skipped = 0
    round_logs: list[IsisRound] = []
    for _ in range(rounds):
        scores: list[tuple[int, float]] = []
        for j in range(design.m):
            if j in selected:
                continue
            try:
                scores.append((j, abs(partial_correlation(design, j, selected))))
            except DegenerateResidual:
                skipped += 1
        if not scores:
            break
        scores.sort(key=lambda item: (-item[1], item[0]))
        picked = tuple(j for j, _ in scores[:d_per_round])
        round_logs.append(IsisRound(scores=tuple(scores), picked=picked))
        selected = tuple(sorted(selected + picked))
    return IsisResult(selected=selected, rounds=tuple(round_logs), skipped=skipped)


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
