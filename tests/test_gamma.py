import math

import numpy as np
import pytest

from r2audit import (
    empirical_gamma_s2,
    fit_table,
    submodularity_ratio,
)
from r2audit.errors import EmptyCandidateSet, InfeasibleCorrelations
from conftest import make_noisy_design, make_orthogonal_design, make_pair_design
from grid_oracle import pair_columns


# ---------------------------------------------------------------------------
# submodularity_ratio
# ---------------------------------------------------------------------------


def test_ratio_orthogonal_is_one(orthogonal_design):
    for mode in ("at_most_k", "exactly_k"):
        res = submodularity_ratio(orthogonal_design, 2, mode=mode)
        assert abs(res.gamma_sr - 1.0) < 1e-10
    res = submodularity_ratio(orthogonal_design, 2, base=(0,), mode="exactly_k")
    assert abs(res.gamma_sr - 1.0) < 1e-10


def test_ratio_pair_exactly_k():
    d = make_pair_design(0.5, 0.5, 0.5, n=8)
    res = submodularity_ratio(d, 2, mode="exactly_k")
    assert abs(res.gamma_sr - 1.5) < 1e-9
    assert res.argmin == (0, 1)


def test_ratio_pair_at_most_k_includes_singletons():
    d = make_pair_design(0.5, 0.5, 0.5, n=8)
    res = submodularity_ratio(d, 2, mode="at_most_k")
    assert abs(res.gamma_sr - 1.0) < 1e-10
    assert len(res.argmin) == 1


def test_ratio_matches_direct_enumeration():
    d = make_noisy_design(55, n=25, m=5)
    from itertools import combinations

    from r2audit import r_squared

    base = (1,)
    best = math.inf
    for team in combinations((0, 2, 3, 4), 2):
        den = r_squared(d, tuple(sorted(team + base))) - r_squared(d, base)
        if den < 1e-12:
            continue
        num = sum(r_squared(d, tuple(sorted((t, *base)))) - r_squared(d, base) for t in team)
        best = min(best, num / den)
    res = submodularity_ratio(d, 2, base=base, mode="exactly_k")
    assert abs(res.gamma_sr - best) < 1e-12


def test_ratio_empty_candidate_set():
    # Response correlates with nothing: every joint gain is negligible.
    d = make_orthogonal_design([0.0, 0.0], n=6)
    with pytest.raises(EmptyCandidateSet):
        submodularity_ratio(d, 2, mode="exactly_k")


def test_ratio_validates_budget():
    d = make_noisy_design(60, n=20, m=4)
    with pytest.raises(ValueError):
        submodularity_ratio(d, 2, base=(0, 1, 2), mode="exactly_k")


def test_ratio_refuses_a_bad_k_or_mode():
    d = make_noisy_design(60, n=20, m=4)
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            submodularity_ratio(d, k)
    with pytest.raises(ValueError, match="^unknown mode 'some'$"):
        submodularity_ratio(d, 1, mode="some")


def test_ratio_base_is_a_set():
    # the base is read as a set: its order and repeats change nothing
    d = make_noisy_design(55, n=25, m=5)
    for mode in ("at_most_k", "exactly_k"):
        expected = submodularity_ratio(d, 2, base=(1, 3), mode=mode)
        assert submodularity_ratio(d, 2, base=[3, 1, 3], mode=mode) == expected
        assert submodularity_ratio(d, 2, base=iter((3, 1)), mode=mode) == expected
    assert submodularity_ratio(d, 2) == submodularity_ratio(d, 2, base=(), mode="at_most_k")


# ---------------------------------------------------------------------------
# the two-feature closed forms, on one-element columns
# ---------------------------------------------------------------------------


def test_pair_orthogonal_features_are_modular():
    for r1, r2 in [(0.3, 0.6), (0.1, 0.1), (0.7, 0.2)]:
        diag = pair_columns(r1, r2, 0.0)
        assert diag.gamma1 == 1.0
        assert diag.gamma2 == 1.0
        assert abs(diag.gamma_sr - 1.0) < 1e-12


def test_pair_symmetric_instance():
    diag = pair_columns(0.5, 0.5, 0.5)
    assert abs(diag.gamma1 - 3.0) < 1e-12
    assert abs(diag.gamma2 - 3.0) < 1e-12
    assert diag.gamma_s2 == min(diag.gamma1, diag.gamma2)
    assert abs(diag.gamma_sr - 1.5) < 1e-12


def test_pair_sign_rule():
    # Positive response correlations with negatively correlated features
    # cannot be submodular.
    rng = np.random.default_rng(12)
    for _ in range(50):
        r1, r2 = rng.uniform(0.05, 0.6, 2)
        r12 = -rng.uniform(0.05, 0.8)
        try:
            diag = pair_columns(r1, r2, r12)
        except InfeasibleCorrelations:
            continue
        assert diag.gamma_s2 < 1.0


def test_pair_exchange_symmetry_is_exact():
    rng = np.random.default_rng(23)
    for _ in range(25):
        r1, r2 = rng.uniform(-0.6, 0.6, 2)
        r12 = rng.uniform(-0.7, 0.7)
        try:
            a = pair_columns(r1, r2, r12)
            b = pair_columns(r2, r1, r12)
        except InfeasibleCorrelations:
            continue
        assert a.gamma1 == b.gamma2
        assert a.gamma2 == b.gamma1


def test_pair_gamma_sr_formula_reproducible():
    rng = np.random.default_rng(31)
    for _ in range(25):
        r1, r2 = rng.uniform(-0.5, 0.5, 2)
        r12 = rng.uniform(-0.6, 0.6)
        try:
            diag = pair_columns(r1, r2, r12)
        except InfeasibleCorrelations:
            continue
        expected = (r1**2 + r2**2) * (1 - r12**2) / (r1**2 - 2 * r1 * r2 * r12 + r2**2)
        assert abs(diag.gamma_sr - expected) < 1e-12


def test_pair_infeasible_rejected():
    with pytest.raises(InfeasibleCorrelations):
        pair_columns(0.9, 0.9, -0.5)
    with pytest.raises(InfeasibleCorrelations):
        pair_columns(1.0, 0.2, 0.1)


def test_pair_degenerate_denominator_sentinel():
    # r_y1 exactly equal to r12 * r_y2 makes the conditional gain vanish.
    diag = pair_columns(0.25, 0.5, 0.5)
    assert math.isinf(diag.gamma1)
    assert math.isfinite(diag.gamma2)


# ---------------------------------------------------------------------------
# closed form vs empirical
# ---------------------------------------------------------------------------


def _feasible_triples(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r1, r2 = rng.uniform(-0.7, 0.7, 2)
        r12 = rng.uniform(-0.8, 0.8)
        det = 1 - r12**2
        joint = (r1**2 - 2 * r12 * r1 * r2 + r2**2) / det
        if joint > 0.95:
            continue
        # keep both conditional gains bounded away from zero so the ratio is
        # well conditioned on both routes
        if (r1 - r12 * r2) ** 2 / det < 1e-3 or (r2 - r12 * r1) ** 2 / det < 1e-3:
            continue
        out.append((r1, r2, r12))
    return out


def test_pair_matches_empirical_on_realizations():
    for r1, r2, r12 in _feasible_triples(40, seed=7):
        diag = pair_columns(r1, r2, r12)
        d = make_pair_design(r1, r2, r12, n=8)
        est = empirical_gamma_s2(fit_table(d))
        assert abs(diag.gamma_s2 - est.gamma_s2) < 1e-8


def test_gamma_sr_dominates_gamma_s2_when_small():
    # Wherever the single-step constant is at most 1, the ratio form is at
    # least as large.
    for r1, r2, r12 in _feasible_triples(60, seed=19):
        diag = pair_columns(r1, r2, r12)
        if diag.gamma_s2 <= 1.0:
            assert diag.gamma_sr >= diag.gamma_s2 - 1e-10


def test_sum_bound_dominates_gamma_s2():
    for r1, r2, r12 in _feasible_triples(60, seed=43):
        diag = pair_columns(r1, r2, r12)
        if math.isfinite(diag.sum_bound) and math.isfinite(diag.gamma_s2):
            assert diag.sum_bound >= diag.gamma_s2 - 1e-10
