from itertools import combinations

import numpy as np
import pytest

from r2audit import (
    FitCache,
    chain_lower_bound,
    check_submodular,
    delta,
    empirical_gamma_s,
    empirical_gamma_s2,
    find_suppressors,
    r_squared,
    random_gaussian,
    standardize,
)
from r2audit import setfun
from r2audit.errors import OutOfDomain, TooManyFeatures
from conftest import make_noisy_design, make_orthogonal_design, make_pair_design
from setfun_oracle import replay_certificate
from test_fit_kernel import DESIGNS as FIT_KERNEL_DESIGNS


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def test_delta_single_feature_is_squared_marginal(miller_design):
    r = miller_design.marginal_correlations()
    for i in range(3):
        assert abs(delta(miller_design, (i,), ()) - r[i] ** 2) < 1e-12


def test_delta_miller_pair_on_x3(miller_design):
    got = delta(miller_design, (0, 1), (2,))
    assert abs(got - (1.0 - 0.4472**2)) < 1e-3


def test_delta_matches_two_evaluations():
    d = make_noisy_design(31, n=30, m=5)
    cache = FitCache()
    for added, base in [((0, 2), (1,)), ((3,), (0, 4)), ((1, 2, 3), ())]:
        expected = r_squared(d, tuple(set(added) | set(base))) - r_squared(d, base)
        assert abs(delta(d, added, base, cache) - expected) < 1e-10


def test_delta_overlap_contributes_nothing():
    d = make_noisy_design(32, n=25, m=4)
    assert abs(delta(d, (0, 1), (1, 2)) - delta(d, (0,), (1, 2))) < 1e-12


# ---------------------------------------------------------------------------
# check_submodular
# ---------------------------------------------------------------------------


def test_orthogonal_design_clean_in_all_modes(orthogonal_design):
    for mode in ("definition", "first_order", "second_order"):
        assert check_submodular(orthogonal_design, mode) == []


def test_miller_second_order_certificate(miller_design):
    certs = check_submodular(miller_design, "second_order")
    assert certs
    witnessed = {(c.set_dict()["A"], c.set_dict()["i"][0], c.set_dict()["j"][0]) for c in certs}
    assert ((), 0, 1) in witnessed or ((), 1, 0) in witnessed
    # sorted by deficit, largest first
    deficits = [c.deficit for c in certs]
    assert deficits == sorted(deficits, reverse=True)


def test_miller_violates_all_modes(miller_design):
    for mode in ("definition", "first_order", "second_order"):
        assert check_submodular(miller_design, mode)


def test_suppressor_population_is_supermodular():
    from r2audit import gram_factory, suppressor_population

    d = gram_factory(suppressor_population(3, 1.0, 3.0), 8)
    assert check_submodular(d, "second_order")


def test_certificates_replay(miller_design):
    for mode in ("definition", "first_order", "second_order"):
        for cert in check_submodular(miller_design, mode):
            lhs, rhs = replay_certificate(miller_design, cert)
            assert abs(lhs - cert.lhs) < 1e-10
            assert abs(rhs - cert.rhs) < 1e-10
            assert abs((rhs - lhs) - cert.deficit) < 1e-10


@pytest.mark.parametrize("design", ["noisy", "suppressor"])
def test_second_order_mirror_images_are_adjacent(design):
    # (A, i, j) and (A, j, i) have mathematically equal deficits. Computed per
    # orientation they differ in the last bits, which used to decide their
    # order; both now carry the (A, min, max) deficit and sit side by side.
    from r2audit import gram_factory, suppressor_population

    if design == "noisy":
        d = make_noisy_design(2, n=30, m=6)
    else:
        d = gram_factory(suppressor_population(6, 1.0, 3.0), 10)
    certs = check_submodular(d, "second_order")
    pos = {}
    for k, c in enumerate(certs):
        sets = c.set_dict()
        pos[sets["A"], sets["i"][0], sets["j"][0]] = k
    rounding_differs = 0
    for (a, i, j), k in pos.items():
        if i < j and (a, j, i) in pos:
            first, second = certs[k], certs[pos[a, j, i]]
            assert pos[a, j, i] == k + 1
            assert first.deficit == second.deficit == first.rhs - first.lhs
            rounding_differs += second.rhs - second.lhs != first.deficit
    assert rounding_differs > 0


def test_mirror_rows_are_kept_or_dropped_together_at_the_tolerance_edge():
    # A tolerance between the two orientations' own differences of a mirror
    # pair must keep both rows or neither, by their shared deficit. The edges
    # are the midpoint of one pair on this design, and the smaller own
    # difference of each pair whose two differences differ.
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 6))
    d = standardize(X, X[:, 0] + rng.standard_normal(40))
    own = {}
    for c in check_submodular(d, tolerance=0.0):
        sets = c.set_dict()
        own[sets["A"], sets["i"][0], sets["j"][0]] = c.rhs - c.lhs
    edges = [6.18786654161e-05]
    edges += [min(gap, own[a, j, i]) for (a, i, j), gap in own.items() if i < j and gap != own[a, j, i]][:5]
    assert len(edges) > 1
    for tolerance in edges:
        certs = check_submodular(d, tolerance=tolerance)
        rows = _triples(certs)
        assert len(certs) % 2 == 0, tolerance
        assert all(c.deficit > tolerance for c in certs), tolerance
        assert all((a, j, i) in rows for a, i, j in rows), tolerance
        assert _triples(find_suppressors(d, tolerance=tolerance)) == rows


def test_pair_gains_visit_each_unordered_pair_once():
    # One yield per pair lo < hi, in order, with A every mask holding neither,
    # ascending, and the four gains of both orientations from the gain table.
    for m in range(1, 8):
        d = make_noisy_design(40 + m, n=12, m=m)
        cache = FitCache()
        setfun._table(d, cache, 20)
        masks = np.arange(1 << m)
        pairs = []
        for a, lo, hi, *gains in setfun._pair_gains(cache, m):
            pairs.append((lo, hi))
            assert np.array_equal(a, masks[(masks & ((1 << lo) | (1 << hi))) == 0])
            row_lo, row_hi = cache.gains[lo], cache.gains[hi]
            expected = [row_lo[a], row_lo[a | (1 << hi)], row_hi[a], row_hi[a | (1 << lo)]]
            assert all(np.array_equal(got, want) for got, want in zip(gains, expected))
        assert pairs == list(combinations(range(m), 2))


def test_equivalence_chain_on_small_instances():
    # second-order clean implies first-order clean implies definition clean,
    # and violations appear together on dirty instances.
    designs = [make_noisy_design(seed, n=20, m=4) for seed in range(6)]
    designs.append(make_orthogonal_design([0.5, 0.3, 0.2], n=7))
    designs.append(make_pair_design(0.5, 0.5, 0.5, n=8))
    for d in designs:
        clean = {mode: not check_submodular(d, mode) for mode in ("definition", "first_order", "second_order")}
        if clean["second_order"]:
            assert clean["first_order"]
        if clean["first_order"]:
            assert clean["definition"]
        assert clean["definition"] == clean["second_order"]


def test_sub_stat_sum_inequality_when_submodular():
    # With no definition-mode violations, the summed single-feature gains
    # dominate the joint gain of a union over the intersection.
    from itertools import combinations

    import numpy as np

    from r2audit import gram_factory

    equi = np.full((5, 5), 0.4)
    np.fill_diagonal(equi, 1.0)
    equi[0, 1:] = equi[1:, 0] = 0.35
    designs = [
        make_orthogonal_design([0.6, 0.4, 0.3, 0.2], n=8),
        gram_factory(equi, 8),
    ]
    for d in designs:
        assert not check_submodular(d, "definition")
        cache = FitCache()
        features = range(d.m)
        subsets = [tuple(c) for size in range(d.m + 1) for c in combinations(features, size)]
        for A in subsets:
            for B in subsets:
                inter = tuple(sorted(set(A) & set(B)))
                union = tuple(sorted(set(A) | set(B)))
                lhs = sum(delta(d, (a,), inter, cache) for a in A) + sum(
                    delta(d, (b,), inter, cache) for b in B
                )
                assert lhs >= delta(d, union, inter, cache) - 1e-9


def test_enumeration_cap():
    d = make_noisy_design(40, n=30, m=6)
    with pytest.raises(TooManyFeatures):
        check_submodular(d, "second_order", max_features=5)


def test_concurrent_enumeration_shares_cache():
    # Several enumerations racing on one cache must agree with a solo run.
    from concurrent.futures import ThreadPoolExecutor

    d = make_noisy_design(41, n=25, m=6)
    shared = FitCache()

    def run(mode):
        return check_submodular(d, mode, cache=shared)

    modes = ["second_order", "first_order", "definition"] * 2
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(run, modes))
    for mode, got in zip(modes, results):
        assert got == check_submodular(d, mode)


# ---------------------------------------------------------------------------
# find_suppressors
# ---------------------------------------------------------------------------


def test_orthogonal_design_has_no_suppressors(orthogonal_design):
    assert find_suppressors(orthogonal_design) == []


def test_miller_suppressor_pair(miller_design):
    certs = find_suppressors(miller_design)
    assert certs
    top = certs[0]
    sets = top.set_dict()
    assert sets["S"] == ()
    assert {sets["i"][0], sets["j"][0]} == {0, 1}
    assert top.lhs < 1e-6        # marginally invisible
    assert top.rhs > 0.99        # nearly perfect once adjusted
    for cert in certs:
        lhs, rhs = replay_certificate(miller_design, cert)
        assert abs(lhs - cert.lhs) < 1e-10
        assert abs(rhs - cert.rhs) < 1e-10


def test_suppression_iff_second_order_violation():
    designs = [make_noisy_design(seed, n=18, m=4) for seed in range(8)]
    designs.append(make_orthogonal_design([0.5, 0.3, 0.2], n=7))
    for d in designs:
        has_suppressor = bool(find_suppressors(d))
        violates = bool(check_submodular(d, "second_order"))
        assert has_suppressor == violates


def _triples(certs):
    return set(zip(*(values.tolist() for values in certs.columns)))


@pytest.mark.parametrize("name", [*FIT_KERNEL_DESIGNS, "random_m10"])
def test_suppression_rows_are_the_second_order_rows(name):
    # One comparison selects both lists, so they hold the same (A, i, j) at
    # any tolerance, the tolerance edge included, whether or not they share
    # a cache.
    if name == "random_m10":
        d = standardize(*random_gaussian(60, 10, seed=10))
    else:
        d = FIT_KERNEL_DESIGNS[name]()
    cache = FitCache()
    second = check_submodular(d, cache=cache)
    triples = _triples(second)
    assert len(triples) == len(second)
    assert _triples(find_suppressors(d, cache=cache)) == triples
    assert _triples(find_suppressors(d)) == triples
    if second:
        gaps = np.sort(second.rhs - second.lhs)
        edge = float(gaps[gaps.size // 2])
        at_edge = _triples(check_submodular(d, tolerance=edge))
        assert at_edge == _triples(find_suppressors(d, tolerance=edge))
        assert len(at_edge) < len(triples)


# ---------------------------------------------------------------------------
# empirical gamma estimates
# ---------------------------------------------------------------------------


def test_gamma_s2_closed_form_pair():
    d = make_pair_design(0.5, 0.5, 0.5, n=8)
    est = empirical_gamma_s2(d)
    assert abs(est.gamma_s2 - 3.0) < 1e-9


def test_gamma_s2_orthogonal_is_one(orthogonal_design):
    est = empirical_gamma_s2(orthogonal_design)
    assert abs(est.gamma_s2 - 1.0) < 1e-9
    assert est.skipped_s2 == 0


def test_gamma_s2_miller_near_zero(miller_design):
    est = empirical_gamma_s2(miller_design)
    assert est.gamma_s2 < 1e-3


def test_gamma_s_orthogonal_is_one(orthogonal_design):
    est = empirical_gamma_s(orthogonal_design)
    assert abs(est.gamma_s - 1.0) < 1e-9


def test_gamma_s_below_gamma_s2():
    for seed in range(6):
        d = make_noisy_design(seed + 100, n=22, m=5)
        s2 = empirical_gamma_s2(d).gamma_s2
        s1 = empirical_gamma_s(d).gamma_s
        assert s1 <= s2 + 1e-10


def test_positivity_linkage():
    designs = [make_noisy_design(seed + 50, n=20, m=4) for seed in range(6)]
    designs.append(make_pair_design(0.4, 0.5, 0.3, n=8))
    for d in designs:
        s2 = empirical_gamma_s2(d).gamma_s2
        s1 = empirical_gamma_s(d).gamma_s
        assert (s2 > 0) == (s1 > 0)


def test_gamma_witnesses_reproduce_minimum():
    d = make_noisy_design(77, n=25, m=5)
    cache = FitCache()
    est = empirical_gamma_s2(d, cache=cache)
    A, i, j = est.witness_s2
    num = delta(d, (i,), A, cache)
    den = delta(d, (i,), tuple(A) + (j,), cache)
    assert abs(num / den - est.gamma_s2) < 1e-10
    est_s = empirical_gamma_s(d, cache=cache)
    A, B, i = est_s.witness_s
    num = delta(d, (i,), A, cache)
    den = delta(d, (i,), B, cache)
    assert abs(num / den - est_s.gamma_s) < 1e-10


def _mp_r_squared(mp, design, subset):
    """R^2 of a subset at the working mpmath precision, from the design's
    float columns taken exactly."""
    if not subset:
        return mp.mpf(0)
    X = mp.matrix(design.features[:, list(subset)].tolist())
    y = mp.matrix(design.response.tolist())
    b = X.T * y
    return (b.T * mp.lu_solve(X.T * X, b))[0]


def test_gamma_s2_at_m18_is_resolved_against_50_digits():
    # Table differences returned gamma_s2 = 0 here: the witness's gains are
    # far below the rounding of R^2 near 0.5. Direct gains resolve them.
    mpmath = pytest.importorskip("mpmath")
    d = standardize(*random_gaussian(n=200, m=18, seed=7))
    est = empirical_gamma_s2(d)
    A, i, j = est.witness_s2
    assert est.gamma_s2 > 0.0
    with mpmath.workdps(50):
        gains = [
            _mp_r_squared(mpmath, d, sorted(base + (i,))) - _mp_r_squared(mpmath, d, base)
            for base in (tuple(A), tuple(sorted(A + (j,))))
        ]
        exact = gains[0] / gains[1]
        assert abs(est.gamma_s2 - exact) <= 1e-6 * exact


def test_certificate_columns_are_small():
    d = make_noisy_design(2, n=30, m=9)
    for certs in (check_submodular(d), find_suppressors(d)):
        assert certs
        sets, i, j = certs.columns
        assert (sets.dtype, i.dtype, j.dtype) == (np.uint16, np.int8, np.int8)
    sets, i = check_submodular(make_noisy_design(2, n=30, m=6), "first_order").columns[1:]
    assert (sets.dtype, i.dtype) == (np.uint8, np.int8)


def test_gamma_s_dominates_chain_bound():
    for seed in range(8):
        d = make_noisy_design(seed + 200, n=20, m=5)
        s2 = empirical_gamma_s2(d).gamma_s2
        if not 0.0 < s2 < 1.0:
            continue
        s1 = empirical_gamma_s(d).gamma_s
        assert s1 >= chain_lower_bound(s2, d.m) - 1e-9


# ---------------------------------------------------------------------------
# chain_lower_bound
# ---------------------------------------------------------------------------


def test_chain_bound_exact_submodularity_propagates():
    assert chain_lower_bound(1.0, 10) == 1.0


def test_chain_bound_single_step_returns_gamma():
    for g in (0.1, 0.25, 0.7, 0.999):
        assert abs(chain_lower_bound(g, 1) - g) < 1e-12


def test_chain_bound_matches_telescoped_simulation():
    # Worst-case chain: every second-order step shrinks the gain by the same
    # factor, so k steps multiply to gamma ** k.
    gamma, k = 0.5, 3
    gain = 1.0
    for _ in range(k):
        gain *= gamma
    assert abs(chain_lower_bound(gamma, k) - gain) < 1e-12


def test_chain_bound_nonincreasing_in_k():
    values = [chain_lower_bound(0.8, k) for k in range(1, 12)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_chain_bound_domain():
    with pytest.raises(OutOfDomain):
        chain_lower_bound(0.0, 2)
    with pytest.raises(OutOfDomain):
        chain_lower_bound(1.5, 2)
    with pytest.raises(OutOfDomain):
        chain_lower_bound(-0.1, 2)
    with pytest.raises(OutOfDomain):
        chain_lower_bound(0.5, 0)
