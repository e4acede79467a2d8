import math
import tracemalloc

import numpy as np
import pytest

from r2audit import (
    best_subset,
    forward_stepwise,
    gram_factory,
    isis,
    nwf_verdict,
    r_squared,
    sis_screen,
    standardize,
    suppressor_population,
)
from r2audit import cli, regress
from r2audit.bitsets import block_masks, indices_of
from r2audit.regress import sweep_walk
from r2audit.errors import TooManyFeatures
from r2audit.selection import BestSubsetResult
from conftest import make_noisy_design, make_orthogonal_design
import selection_oracle
from population_checks import ZeroBeta, sis_assumption_check
from setfun_oracle import mask_of
from walk_lists import whole_lists


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


def _select_stepwise(tmp_path, *gen_args, k):
    """The lines select --algo stepwise writes on a CSV gen writes."""
    csv, out = tmp_path / "in.csv", tmp_path / "steps.jsonl"
    assert cli.main(["gen", *gen_args, "--out", str(csv)]) == 0
    assert cli.main(["select", str(csv), "--response", "Y", "--algo", "stepwise", "--k", str(k), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8").splitlines()


def test_stepwise_json_lines(tmp_path):
    lines = _select_stepwise(tmp_path, "miller", k=3)
    assert len(lines) == 3
    import json

    first = json.loads(lines[0])
    assert first["feature"] == "X3"
    last = json.loads(lines[-1])
    assert last["marginal_t"] == "inf"


def test_stepwise_json_lines_encode_non_finite_like_reports(tmp_path, monkeypatch):
    # select writes the trace through the report encoder: NaN is "nan" (it
    # used to come out as "-inf"), infinities keep their sign, None stays null.
    import json

    from r2audit.selection import SelectionStep, SelectionTrace

    values = [math.nan, math.inf, -math.inf, None, 2.5]
    steps = tuple(SelectionStep(k, 0.1, 0.1 * (k + 1), t) for k, t in enumerate(values))
    monkeypatch.setattr(cli, "forward_stepwise", lambda design, k: SelectionTrace("forward_stepwise", steps, "budget"))
    lines = _select_stepwise(tmp_path, "gaussian", "--n", "20", "--m", str(len(values)), k=len(values))
    decoded = [json.loads(line)["marginal_t"] for line in lines]
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


@pytest.mark.parametrize("chunk", [2, 3, 256])
@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_best_subset_ties_across_chunks(seed, chunk, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", chunk)
    d = _duplicated_columns_design(seed)
    per_size = _scalar_best_per_size(d)
    for k in range(d.m + 1):
        value, mask = max(per_size[: k + 1], key=lambda vm: (vm[0], -vm[1]))
        assert best_subset(d, k) == BestSubsetResult(indices_of(mask), value)


def _first_tie_design(has_property):
    """The first duplicated-columns design of seeds 0-39 with the property:
    which designs have it depends on the triangle's last bits."""
    for seed in range(40):
        d = _duplicated_columns_design(seed)
        if has_property(d):
            return d
    raise AssertionError("no duplicated-columns design of seeds 0-39 has the property")


def _ties_out_of_mask_order(d):
    # In combinations order, some size's first maximum is not its smallest mask
    from itertools import combinations

    for size in range(2, d.m + 1):
        fits = [(r_squared(d, c), mask_of(c)) for c in combinations(range(d.m), size)]
        best = max(v for v, _ in fits)
        tied = [mk for v, mk in fits if v == best]
        if tied[0] != min(tied):
            return True
    return False


def test_tie_designs_have_ties_out_of_mask_order(monkeypatch):
    # so keeping the first maximum found would return another subset
    d = _first_tie_design(_ties_out_of_mask_order)
    per_size = _scalar_best_per_size(d)
    for chunk in (2, 3, 256):
        monkeypatch.setattr(regress, "FIT_CHUNK", chunk)
        for k in range(d.m + 1):
            value, mask = max(per_size[: k + 1], key=lambda vm: (vm[0], -vm[1]))
            assert best_subset(d, k) == BestSubsetResult(indices_of(mask), value)


def _assert_matches_oracle(d, ks):
    for k in ks:
        assert best_subset(d, k) == BestSubsetResult(*selection_oracle.best_subset(d, k))


def test_screened_search_matches_the_oracle_on_a_random_design():
    _assert_matches_oracle(make_noisy_design(73, n=40, m=14), range(5))


@pytest.mark.parametrize("chunk", [2, 3, 256])
@pytest.mark.parametrize("seed", TIE_SEEDS)
def test_screened_search_matches_the_oracle_on_ties(seed, chunk, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", chunk)
    _assert_matches_oracle(_duplicated_columns_design(seed), range(5))


def _screen_ranks_the_best_pair_lower(d):
    screened = {}
    for idx, r2, _ in sweep_walk(d, 2):
        screened.update(zip(block_masks(idx).tolist(), r2.tolist()))
    mask, _ = selection_oracle.best_of_size(d, 2)
    return screened[mask] < max(v for mk, v in screened.items() if mk.bit_count() == 2 and v == v)


def test_band_brings_the_best_subset_the_screen_ranks_lower():
    # Pairs of these designs tie up to rounding. On this one fit_block ranks
    # one first by a few ulps while the screen ranks another first, so the
    # band, not the screen's order, must bring the winner to the judge.
    d = _first_tie_design(_screen_ranks_the_best_pair_lower)
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
# the greedy guarantee verdict
# ---------------------------------------------------------------------------


def test_nwf_orthogonal_ratio_one():
    d = make_orthogonal_design([0.6, 0.4, 0.2], n=8)
    res = nwf_verdict(forward_stepwise(d, 2).final_r_squared(), best_subset(d, 2).r_squared, not whole_lists(d)[0])
    assert abs(res.ratio - 1.0) < 1e-10
    assert res.guarantee_holds
    assert res.is_submodular


def test_nwf_miller_violation(miller_design):
    greedy = forward_stepwise(miller_design, 2).final_r_squared()
    res = nwf_verdict(greedy, best_subset(miller_design, 2).r_squared, not whole_lists(miller_design)[0])
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
    # Greedy's fit is its model's fit_block value, and best subset's is the
    # largest fit_block value of a subset of at most k features, so the
    # optimum is at least the greedy fit bit for bit; no tolerance is allowed.
    from r2audit.cli import build_audit_report

    if name == "miller":
        d = miller_design
    elif name == "suppressor6":
        d = gram_factory(suppressor_population(6, 1.0, 3.0), 10)
    else:
        d = _duplicated_columns_design(int(name[4:]))
    for k in range(1, d.m + 1):
        report, _ = build_audit_report(d, "in.csv", "Y", k, 20)
        nwf = report["selection"]["nwf"]
        assert nwf["optimal_r2"] >= nwf["greedy_r2"]
        assert nwf["ratio"] <= 1.0
        assert report["selection"]["best_subset"]["r_squared"] == nwf["optimal_r2"]


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
