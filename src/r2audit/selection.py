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
from .bitsets import block_masks, indices_of
from .errors import DegenerateResidual, InsufficientDof, RankDeficient, ZeroBeta
from .jsonsafe import json_line
from .regress import (
    DEFAULT_MAX_FEATURES,
    TABLE_PIVOT_RTOL,
    ZERO_RSS_TOL,
    StandardizedDesign,
    _as_indices,
    _check_cap,
    _pivots,
    _sweep,
    fit_block,
    ls_fit,
    partial_correlation,
    r_squared,
    sweep_walk,
)

NWF_THRESHOLD = 1.0 - 1.0 / math.e

# best_subset re-fits every trusted subset whose screened fit lies
# within this distance of the largest screened fit. A screened value is
# within 3 eps |S| / regress.TABLE_PIVOT_RTOL of fit_block's, 1e-10 at 24
# features, so the band is a thousand times that: it holds the subset
# fit_block ranks first, and every subset tied with it. On an n = 2000,
# m = 24, k = 4 Gaussian design only the screened maximum lies within it.
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


def _step_t(design: StandardizedDesign, subset: list[int], j: int, r2: float) -> float | None:
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


def forward_stepwise(design: StandardizedDesign, k: int, t_stop: float | None = None) -> SelectionTrace:
    """Greedy selection: each step adds the feature with the largest fit gain.

    The run sweeps the Gram matrix G = R^T R on each pick (Goodnight 1979).
    A candidate j whose model S + j passes fit_table's trust test
    (regress._pivots at TABLE_PIVOT_RTOL) gains C_S[j, y]^2 / C_S[j, j];
    any other gains fit_block(S + j) - fit_block(S), and once one is picked
    no later model is trusted. Each step's cumulative R^2 is its model's own
    fit_block value and its t statistic comes from ls_fit. Ties go to the
    lowest feature index. Runs for k steps unless ``t_stop`` is set: then
    the run ends once no remaining feature's t statistic, with fit(S + j)
    taken as fit(S) plus j's gain, reaches the threshold in absolute value.
    The first step is always taken.
    """
    m = design.m
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in 1..{m}")
    C = design.gram()
    floor = TABLE_PIVOT_RTOL * np.diagonal(C)[:m]
    model: list[int] = []
    swept = True  # C is G swept on the model; False once an untrusted pick is made
    fit = 0.0
    steps: list[SelectionStep] = []
    reason = "max_steps"
    while len(model) < k:
        candidates = np.delete(np.arange(m), model)
        members = np.array([model], dtype=np.intp)
        pivot, trusted = _pivots(C[None], members, np.zeros(candidates.size, np.intp), candidates, floor)
        trusted &= swept
        gains = np.square(C[candidates, m]) / pivot
        fitted = np.flatnonzero(~trusted)
        if fitted.size:
            idx = np.sort(np.hstack([members.repeat(fitted.size, axis=0), candidates[fitted, None]]), axis=1)
            gains[fitted] = fit_block(design, idx)[0] - fit
        if t_stop is not None and model:
            ts = (_step_t(design, sorted(model + [j]), j, fit + g) for j, g in zip(candidates.tolist(), gains))
            if not any(t is not None and abs(t) >= t_stop for t in ts):
                reason = "t_threshold"
                break
        best = int(np.argmax(gains))
        j = int(candidates[best])
        subset = sorted(model + [j])
        swept = bool(trusted[best])
        fit = r_squared(design, subset)
        t = _step_t(design, subset, j, fit)
        steps.append(SelectionStep(feature=j, delta_r2=float(gains[best]), cumulative_r2=fit, marginal_t=t))
        if swept:
            _sweep(C[None], np.array([j]), pivot[best : best + 1])
        model.append(j)
    return SelectionTrace("forward_stepwise", tuple(steps), reason)


class BestSubsetResult(NamedTuple):
    subset: tuple[int, ...]
    r_squared: float


def best_subset(
    design: StandardizedDesign,
    k: int,
    *,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> BestSubsetResult:
    """Exhaustive maximizer of the fit over all subsets of size at most k;
    ties go to the smallest mask.

    sweep_walk screens every subset. fit_block then re-fits the trusted
    subsets within SCREEN_BAND of the largest screened value and every
    untrusted subset, and the judgement reads re-fitted values only. So the
    answer is the one a fit_block call on every subset gives. Memory stays
    bounded by a few blocks of FIT_CHUNK subsets per size.
    """
    _check_cap(design.m, max_features)
    if not 0 <= k <= design.m:
        raise ValueError(f"k must lie in 0..{design.m}")
    best = (0.0, 0)  # (fit, -mask) of the empty subset
    top = -np.inf
    pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def judge(idx: np.ndarray) -> None:
        nonlocal best
        values = fit_block(design, idx)[0]
        value = float(values.max())
        best = max(best, (value, -int(block_masks(idx)[values == value].min())))

    # Re-fitting a subset that later falls out of the band cannot change the
    # answer, so finalists are judged whenever FIT_CHUNK of one size gather
    # (fit_block stacks subsets of one size); memory stays bounded even when
    # many subsets tie.
    for idx, r2, trusted in sweep_walk(design, k):
        top = max(top, np.max(r2, where=trusted, initial=-np.inf))
        held, screened = pending.get(idx.shape[1], (idx[:0], r2[:0]))
        idx = np.concatenate([held, idx])
        screened = np.concatenate([screened, np.where(trusted, r2, np.inf)])
        keep = screened >= top - SCREEN_BAND
        idx, screened = idx[keep], screened[keep]
        if len(idx) >= regress.FIT_CHUNK:
            judge(idx)
            idx, screened = idx[:0], screened[:0]
        pending[idx.shape[1]] = (idx, screened)
    for idx, screened in pending.values():
        idx = idx[screened >= top - SCREEN_BAND]
        if len(idx):
            judge(idx)
    return BestSubsetResult(indices_of(-best[1]), best[0])


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
