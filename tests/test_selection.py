import math
import tracemalloc

import numpy as np
import pytest

from r2audit import (
    best_subset,
    forward_stepwise,
    gram_factory,
    isis,
    l0_path,
    nwf_check,
    r_squared,
    sis_assumption_check,
    sis_screen,
    standardize,
    suppressor_population,
)
from r2audit import regress
from r2audit.bitsets import block_masks, indices_of, mask_of
from r2audit.regress import sweep_walk
from r2audit.errors import TooManyFeatures, ZeroBeta
from r2audit.selection import BestSubsetResult, table_best_subset
from conftest import make_noisy_design, make_orthogonal_design
import selection_oracle


# ---------------------------------------------------------------------------
# forward_stepwise
# ---------------------------------------------------------------------------


def test_stepwise_miller_first_pick(miller_design):
    trace = forward_stepwise(miller_design, 3)
    assert trace.steps[0].feature == 2
    assert abs(trace.steps[0].delta_r2 - 0.2) < 1e-3


def test_stepwise_miller_t_stop(miller_design):
    trace = forward_stepwise(miller_design, 3, t_stop=2.0)
    assert trace.selected() == (2,)
    assert trace.stopping_reason == "t_threshold"


def test_stepwise_orthogonal_orders_by_marginal():
    d = make_orthogonal_design([0.2, 0.6, 0.4], n=8)
    trace = forward_stepwise(d, 3)
    assert trace.selected() == (1, 2, 0)


def test_stepwise_first_step_is_best_marginal():
    d = make_noisy_design(91, n=30, m=6)
    r = d.marginal_correlations()
    trace = forward_stepwise(d, 1)
    assert trace.steps[0].feature == int(np.argmax(r**2))
    assert abs(trace.steps[0].delta_r2 - max(r**2)) < 1e-12


def test_stepwise_trace_invariants():
    d = make_noisy_design(92, n=30, m=6)
    trace = forward_stepwise(d, 4)
    cumulative = [s.cumulative_r2 for s in trace.steps]
    assert cumulative == sorted(cumulative)
    for i in range(1, len(trace.steps) + 1):
        prefix = trace.selected()[:i]
        assert abs(cumulative[i - 1] - r_squared(d, prefix)) < 1e-10


def test_stepwise_interpolating_fit_reports_sentinel(miller_design):
    trace = forward_stepwise(miller_design, 3)
    assert trace.steps[-1].marginal_t == math.inf


def test_stepwise_json_lines(miller_design):
    trace = forward_stepwise(miller_design, 3)
    lines = trace.to_json_lines(miller_design.names).splitlines()
    assert len(lines) == 3
    import json

    first = json.loads(lines[0])
    assert first["feature"] == "X3"
    last = json.loads(lines[-1])
    assert last["marginal_t"] == "inf"


def test_stepwise_json_lines_encode_non_finite_like_reports():
    # The trace goes through the report encoder: NaN is "nan" (it used to come
    # out as "-inf"), infinities keep their sign, None stays null.
    import json

    from r2audit.selection import SelectionStep, SelectionTrace

    values = [math.nan, math.inf, -math.inf, None, 2.5]
    steps = tuple(SelectionStep(k, 0.1, 0.1 * (k + 1), t) for k, t in enumerate(values))
    trace = SelectionTrace("forward_stepwise", steps, "budget")
    names = tuple(f"x{k}" for k in range(len(values)))
    decoded = [json.loads(line)["marginal_t"] for line in trace.to_json_lines(names).splitlines()]
    assert decoded == ["nan", "inf", "-inf", None, 2.5]


# ---------------------------------------------------------------------------
# best_subset
# ---------------------------------------------------------------------------


def test_best_subset_miller(miller_design):
    res = best_subset(miller_design, 2)
    assert res.subset == (0, 1)
    assert abs(res.r_squared - 1.0) < 1e-9


def test_best_subset_full_budget():
    d = make_noisy_design(70, n=25, m=5)
    res = best_subset(d, 5)
    assert abs(res.r_squared - r_squared(d, tuple(range(5)))) < 1e-10


def test_best_subset_matches_uncached_enumeration():
    from itertools import combinations

    d = make_noisy_design(71, n=30, m=8)
    res = best_subset(d, 3)
    best = (0.0, ())
    for size in range(1, 4):
        for combo in combinations(range(8), size):
            value = r_squared(d, combo)  # fresh, cache-free evaluations
            if value > best[0]:
                best = (value, combo)
    assert res.subset == best[1]
    assert abs(res.r_squared - best[0]) < 1e-12


def _duplicated_columns_design(seed):
    # Copies of three base columns: subsets that swap a column for its copy
    # often fit bit-equally, and such ties land in different chunks.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((20, 3))
    y = base[:, 0] + 0.7 * base[:, 1] + 0.5 * rng.standard_normal(20)
    return standardize(base[:, [0, 1, 2, 0, 1, 0, 2, 1]], y)


def _scalar_best_per_size(d):
    """(r_squared, mask) of the best subset of each size, by one fit per subset."""
    from itertools import combinations

    per_size = [(0.0, 0)]
    for size in range(1, d.m + 1):
        best = (-1.0, -1)
        for combo in combinations(range(d.m), size):
            value, mask = r_squared(d, combo), mask_of(combo)
            if value > best[0] or (value == best[0] and mask < best[1]):
                best = (value, mask)
        per_size.append(best)
    return per_size


TIE_SEEDS = (4, 6, 7)
LAMBDAS = [0.0, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0]


@pytest.mark.parametrize("chunk", [2, 3, 256])
@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_best_subset_ties_across_chunks(seed, chunk, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", chunk)
    d = _duplicated_columns_design(seed)
    per_size = _scalar_best_per_size(d)
    for k in range(d.m + 1):
        value, mask = max(per_size[: k + 1], key=lambda vm: (vm[0], -vm[1]))
        assert best_subset(d, k) == BestSubsetResult(indices_of(mask), value)
    for lam, point in zip(LAMBDAS, l0_path(d, LAMBDAS)):
        objective, mask = min(((1.0 - v) + lam * size, mk) for size, (v, mk) in enumerate(per_size))
        assert (point.subset, point.objective) == (indices_of(mask), objective)


def test_tie_designs_have_ties_out_of_mask_order():
    # In combinations order, some size's first maximum is not its smallest
    # mask, so keeping the first maximum found would fail the test above.
    from itertools import combinations

    inverted = 0
    for seed in TIE_SEEDS:
        d = _duplicated_columns_design(seed)
        for size in range(2, d.m + 1):
            fits = [(r_squared(d, c), mask_of(c)) for c in combinations(range(d.m), size)]
            best = max(v for v, _ in fits)
            tied = [mk for v, mk in fits if v == best]
            inverted += tied[0] != min(tied)
    assert inverted > 0


def _assert_matches_oracle(d, ks):
    for k in ks:
        assert best_subset(d, k) == BestSubsetResult(*selection_oracle.best_subset(d, k))
    got = [(p.lam, p.subset, p.objective) for p in l0_path(d, LAMBDAS)]
    assert got == selection_oracle.l0_path(d, LAMBDAS)


def test_screened_search_matches_the_oracle_on_a_random_design():
    _assert_matches_oracle(make_noisy_design(73, n=40, m=14), range(5))


@pytest.mark.parametrize("chunk", [2, 3, 256])
@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_screened_search_matches_the_oracle_on_ties(seed, chunk, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", chunk)
    _assert_matches_oracle(_duplicated_columns_design(seed), range(5))


def test_band_brings_the_best_subset_the_screen_ranks_lower():
    # On this design nine pairs tie up to rounding. fit_block ranks one first
    # by a few ulps while the screen ranks another first, so the band, not
    # the screen's order, must bring the winner to the judge.
    d = _duplicated_columns_design(0)
    screened = {}
    for idx, r2, _ in sweep_walk(d, 2):
        screened.update(zip(block_masks(idx).tolist(), r2.tolist()))
    mask, _ = selection_oracle.best_of_size(d, 2)
    assert screened[mask] < max(v for mk, v in screened.items() if mk.bit_count() == 2 and v == v)
    _assert_matches_oracle(d, range(d.m + 1))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_best_subset_memory_does_not_grow_with_the_search():
    # 2,324, 12,950 and 55,454 subsets: the walk holds a few blocks per level.
    d = make_noisy_design(74, n=60, m=24)
    peaks = {k: _traced_peak(lambda: best_subset(d, k)) for k in (3, 4, 5)}
    assert peaks[4] <= 2 * 2**20
    assert peaks[5] <= 3 * peaks[3]


def test_best_subset_cap():
    d = make_noisy_design(72, n=30, m=6)
    with pytest.raises(TooManyFeatures):
        best_subset(d, 2, max_features=4)


# ---------------------------------------------------------------------------
# l0_path
# ---------------------------------------------------------------------------


def test_l0_zero_penalty_maximizes_fit(miller_design):
    point = l0_path(miller_design, [0.0])[0]
    assert abs((1.0 - point.objective) - r_squared(miller_design, point.subset)) < 1e-12
    assert abs(r_squared(miller_design, point.subset) - 1.0) < 1e-9


def test_l0_large_penalty_empties_model():
    d = make_orthogonal_design([0.5, 0.3, 0.2], n=8)
    max_marginal_gain = max(d.marginal_correlations() ** 2)
    point = l0_path(d, [max_marginal_gain + 1e-9])[0]
    assert point.subset == ()
    # and a penalty of 1 empties any model
    dd = make_noisy_design(80, n=25, m=5)
    assert l0_path(dd, [1.0])[0].subset == ()


def test_l0_path_rejects_nan_penalty():
    d = make_noisy_design(82, n=20, m=4)
    with pytest.raises(ValueError):
        l0_path(d, [0.1, math.nan])
    with pytest.raises(ValueError):
        l0_path(d, [-0.1])


def test_l0_path_infinite_penalty_selects_the_empty_model():
    d = make_noisy_design(83, n=20, m=4)
    point = l0_path(d, [math.inf])[0]
    assert (point.subset, point.objective) == ((), 1.0)


def test_l0_miller_middle_penalty(miller_design):
    # Enumeration oracle at lambda = 0.1: objectives over all subsets.
    from itertools import combinations

    lam = 0.1
    best = (math.inf, None)
    for size in range(4):
        for combo in combinations(range(3), size):
            obj = (1.0 - r_squared(miller_design, combo)) + lam * size
            if obj < best[0]:
                best = (obj, combo)
    point = l0_path(miller_design, [lam])[0]
    assert point.subset == best[1] == (0, 1)


def test_l0_path_monotone_in_lambda():
    d = make_noisy_design(81, n=30, m=6)
    lams = [0.0, 0.01, 0.02, 0.05, 0.1, 0.3, 1.0]
    path = l0_path(d, lams)
    sizes = [len(p.subset) for p in path]
    assert sizes == sorted(sizes, reverse=True)
    # at lambda = 0 the per-size objectives are nonincreasing in size
    per_size = [min(1.0 - r_squared(d, c) for c in _combos(6, s)) for s in range(1, 7)]
    assert per_size == sorted(per_size, reverse=True)


def _combos(m, size):
    from itertools import combinations

    return list(combinations(range(m), size))


# ---------------------------------------------------------------------------
# nwf_check
# ---------------------------------------------------------------------------


def test_nwf_orthogonal_ratio_one():
    d = make_orthogonal_design([0.6, 0.4, 0.2], n=8)
    res = nwf_check(d, 2)
    assert abs(res.ratio - 1.0) < 1e-10
    assert res.guarantee_holds
    assert res.is_submodular


def test_nwf_miller_violation(miller_design):
    res = nwf_check(miller_design, 2)
    assert abs(res.ratio - 0.2) < 1e-3
    assert not res.guarantee_holds
    assert not res.is_submodular
    assert abs(res.threshold - (1 - 1 / math.e)) < 1e-12


def test_greedy_dominated_by_best_subset():
    for seed in range(6):
        d = make_noisy_design(seed + 300, n=30, m=7)
        for k in (1, 2, 3):
            greedy = forward_stepwise(d, k).final_r_squared()
            optimal = best_subset(d, k).r_squared
            assert optimal >= greedy - 1e-10


@pytest.mark.parametrize("name", ["miller", "suppressor6", *(f"ties{seed}" for seed in TIE_SEEDS)])
def test_optimal_is_at_least_greedy_by_construction(name, miller_design):
    # Greedy and optimal fits are read from one table, so the optimum is at
    # least the greedy fit bit for bit; no tolerance is allowed.
    from r2audit.cli import build_audit_report

    if name == "miller":
        d = miller_design
    elif name == "suppressor6":
        d = gram_factory(suppressor_population(6, 1.0, 3.0), 10)
    else:
        d = _duplicated_columns_design(int(name[4:]))
    for k in range(1, d.m + 1):
        res = nwf_check(d, k)
        assert res.optimal_r2 >= res.greedy_r2
        assert res.ratio <= 1.0
        report, _ = build_audit_report(d, "in.csv", "Y", k, 20)
        nwf = report["selection"]["nwf"]
        assert nwf["optimal_r2"] >= nwf["greedy_r2"]
        assert report["selection"]["best_subset"]["r_squared"] == nwf["optimal_r2"]


def test_table_best_subset_breaks_ties_to_the_smallest_mask():
    table = np.array([0.0, 0.5, 0.5, 0.5, 0.25, 0.5, 0.5, 0.5])
    assert table_best_subset(table, 0) == BestSubsetResult((), 0.0)
    assert table_best_subset(table, 1) == BestSubsetResult((0,), 0.5)
    assert table_best_subset(table[[0, 4, 2, 6, 1, 5, 3, 7]], 3) == BestSubsetResult((1,), 0.5)
    with pytest.raises(ValueError):
        table_best_subset(table, 4)


# ---------------------------------------------------------------------------
# sis / isis
# ---------------------------------------------------------------------------


def test_sis_miller(miller_design):
    assert sis_screen(miller_design, 1) == (2,)


def test_sis_orthogonal_matches_best_subset():
    d = make_orthogonal_design([0.5, 0.2, 0.6, 0.3], n=9)
    for k in (1, 2, 3):
        assert set(sis_screen(d, k)) == set(best_subset(d, k).subset)


def test_sis_suppressor_misses_joint_structure():
    d = gram_factory(suppressor_population(3, 1.0, 3.0), 8)
    picked = sis_screen(d, 2)
    assert set(picked) == {0, 1}
    assert r_squared(d, picked) < 0.1  # the pair explains almost nothing


def test_isis_single_round_equals_sis():
    d = make_noisy_design(110, n=30, m=6)
    assert isis(d, 3, 1).selected == tuple(sorted(sis_screen(d, 3)))


def test_isis_miller_recovers_everything(miller_design):
    res = isis(miller_design, 1, 3)
    assert [r.picked for r in res.rounds] == [(2,), (1,), (0,)]
    assert abs(r_squared(miller_design, res.selected) - 1.0) < 1e-9


def test_isis_orthogonal_partitions_ranking():
    d = make_orthogonal_design([0.5, 0.2, 0.6, 0.3], n=9)
    res = isis(d, 2, 2)
    ranking = sis_screen(d, 4)
    assert res.rounds[0].picked == ranking[:2]
    assert res.rounds[1].picked == tuple(sorted(ranking[2:], key=lambda i: (-abs(d.marginal_correlations()[i]), i)))


# ---------------------------------------------------------------------------
# sis_assumption_check
# ---------------------------------------------------------------------------


def test_assumption_orthogonal_visibility_one():
    d = make_orthogonal_design([0.5, 0.3, 0.2], n=8)
    beta = d.marginal_correlations()
    res = sis_assumption_check(d, (0, 1, 2), beta, kappa=0.25, c2=0.01, c3=0.5)
    for _, v in res.visibilities:
        assert abs(v - 1.0) < 1e-10
    assert res.holds


def test_assumption_miller_fails(miller_design):
    res = sis_assumption_check(
        miller_design, (0, 1), np.array([1.0, -1.0, 0.0]), kappa=0.25, c2=0.01, c3=0.001
    )
    vis = dict(res.visibilities)
    assert abs(vis[1] - 0.0016) < 5e-4
    assert vis[0] < 1e-12           # the first feature is marginally invisible
    assert res.min_visibility < 1e-12
    assert not res.holds


def test_assumption_zero_beta():
    d = make_noisy_design(120, n=20, m=4)
    with pytest.raises(ZeroBeta):
        sis_assumption_check(d, (0, 1), np.array([1.0, 0.0, 0.5, 0.2]), 0.25, 0.01, 0.1)


def test_assumption_visibility_shrinks_with_noise():
    values = []
    for sigma_eps in (1.0, 3.0, 10.0):
        d = gram_factory(suppressor_population(3, 1.0, sigma_eps), 8)
        res = sis_assumption_check(d, (0, 1, 2), np.ones(3), kappa=0.25, c2=0.01, c3=0.01)
        values.append(res.min_visibility)
    assert values[0] > values[1] > values[2]
