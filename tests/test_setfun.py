from itertools import combinations

import numpy as np
import pytest

from r2audit import (
    StandardizedDesign,
    empirical_gamma_s,
    empirical_gamma_s2,
    fit_table,
    r_squared,
    random_gaussian,
    standardize,
)
from r2audit import setfun
from row_oracle import standardized_rows
from r2audit.errors import TooManyFeatures
from r2audit.regress import FitTable
from conftest import make_noisy_design, make_orthogonal_design, make_pair_design
import setfun_oracle as oracle
from setfun_oracle import mask_of, replay_certificate
from test_fit_kernel import DESIGNS as FIT_KERNEL_DESIGNS
from walk_lists import whole_lists


# ---------------------------------------------------------------------------
# gains as differences of two fits
# ---------------------------------------------------------------------------


def test_delta_single_feature_is_squared_marginal(miller_design):
    r = miller_design.marginal_correlations()
    for i in range(3):
        assert abs(r_squared(miller_design, (i,)) - r[i] ** 2) < 1e-12


def test_delta_miller_pair_on_x3(miller_design):
    got = r_squared(miller_design, (0, 1, 2)) - r_squared(miller_design, (2,))
    assert abs(got - (1.0 - 0.4472**2)) < 1e-3


def test_delta_matches_two_evaluations():
    # gains read from a filled fit table against two direct fits
    d = make_noisy_design(31, n=30, m=5)
    table = fit_table(d, 20).r2
    for added, base in [((0, 2), (1,)), ((3,), (0, 4)), ((1, 2, 3), ())]:
        expected = r_squared(d, tuple(set(added) | set(base))) - r_squared(d, base)
        assert abs(table[mask_of(added) | mask_of(base)] - table[mask_of(base)] - expected) < 1e-10


# ---------------------------------------------------------------------------
# the second-order list
# ---------------------------------------------------------------------------


def test_orthogonal_design_clean_in_all_modes(orthogonal_design):
    assert whole_lists(orthogonal_design)[0] == []
    for mode in ("definition", "first_order"):
        assert oracle.check_submodular(orthogonal_design, mode) == []


def test_miller_second_order_certificate(miller_design):
    certs = whole_lists(miller_design)[0]
    assert certs
    witnessed = {(c.set_dict()["A"], c.set_dict()["i"][0], c.set_dict()["j"][0]) for c in certs}
    assert ((), 0, 1) in witnessed or ((), 1, 0) in witnessed
    # sorted by deficit, largest first
    deficits = [c.deficit for c in certs]
    assert deficits == sorted(deficits, reverse=True)


def test_miller_violates_all_modes(miller_design):
    assert whole_lists(miller_design)[0]
    for mode in ("definition", "first_order"):
        assert oracle.check_submodular(miller_design, mode)


def test_suppressor_population_is_supermodular():
    from r2audit import gram_factory, suppressor_population

    d = gram_factory(suppressor_population(3, 1.0, 3.0), 8)
    assert whole_lists(d)[0]


def test_certificates_replay(miller_design):
    # the definition and first-order lists are the oracle's; replayed without
    # a cache, every side is recomputed from direct fits
    lists = [oracle.check_submodular(miller_design, mode) for mode in ("definition", "first_order")]
    for certs in [*lists, whole_lists(miller_design)[0]]:
        assert certs
        for cert in certs:
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
    certs = whole_lists(d)[0]
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
    for c in whole_lists(d, tolerance=0.0)[0]:
        sets = c.set_dict()
        own[sets["A"], sets["i"][0], sets["j"][0]] = c.rhs - c.lhs
    edges = [6.18786654161e-05]
    edges += [min(gap, own[a, j, i]) for (a, i, j), gap in own.items() if i < j and gap != own[a, j, i]][:5]
    assert len(edges) > 1
    for tolerance in edges:
        certs, suppression = whole_lists(d, tolerance=tolerance)
        rows = _triples(certs)
        assert len(certs) % 2 == 0, tolerance
        assert all(c.deficit > tolerance for c in certs), tolerance
        assert all((a, j, i) in rows for a, i, j in rows), tolerance
        assert _triples(suppression) == rows


def test_pair_gains_visit_each_unordered_pair_once():
    # One yield per pair lo < hi, in order, with A every mask holding neither,
    # ascending, and the four gains of both orientations: from the gain table,
    # or without one the table differences, bit for bit.
    for m in range(1, 8):
        d = make_noisy_design(40 + m, n=12, m=m)
        kept = fit_table(d, 20)
        masks = np.arange(1 << m)
        for table in (kept, FitTable(kept.r2, None)):
            pairs = []
            for a, lo, hi, *gains in setfun._pair_gains(table):
                pairs.append((lo, hi))
                assert np.array_equal(a, masks[(masks & ((1 << lo) | (1 << hi))) == 0])
                at = [(lo, a), (lo, a | (1 << hi)), (hi, a), (hi, a | (1 << lo))]
                if table.gains is None:
                    expected = [table.r2[b | (1 << i)] - table.r2[b] for i, b in at]
                else:
                    expected = [table.gains[i, b] for i, b in at]
                assert all(np.array_equal(got, want) for got, want in zip(gains, expected))
            assert pairs == list(combinations(range(m), 2))


def test_equivalence_chain_on_small_instances():
    # second-order clean implies first-order clean implies definition clean,
    # and violations appear together on dirty instances. The definition and
    # first-order verdicts are the oracle's, the second-order one the package's.
    designs = [make_noisy_design(seed, n=20, m=4) for seed in range(6)]
    designs.append(make_orthogonal_design([0.5, 0.3, 0.2], n=7))
    designs.append(make_pair_design(0.5, 0.5, 0.5, n=8))
    for d in designs:
        clean = {mode: not oracle.check_submodular(d, mode) for mode in ("definition", "first_order")}
        clean["second_order"] = not whole_lists(d)[0]
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
        assert not oracle.check_submodular(d, "definition")
        features = range(d.m)
        fit = {c: r_squared(d, c) for size in range(d.m + 1) for c in combinations(features, size)}
        for A in fit:
            for B in fit:
                inter = tuple(sorted(set(A) & set(B)))
                union = tuple(sorted(set(A) | set(B)))
                lhs = sum(fit[tuple(sorted({*inter, f}))] - fit[inter] for f in (*A, *B))
                assert lhs >= fit[union] - fit[inter] - 1e-9


def test_enumeration_cap():
    d = make_noisy_design(40, n=30, m=6)
    with pytest.raises(TooManyFeatures):
        whole_lists(d, max_features=5)[0]


def test_concurrent_enumeration_shares_cache():
    # Several enumerations racing on one table must agree with a solo run.
    from concurrent.futures import ThreadPoolExecutor

    d = make_noisy_design(41, n=25, m=6)
    shared = fit_table(d)

    checks = [whole_lists, empirical_gamma_s2] * 3
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda check: check(d, table=shared), checks))
    for check, got in zip(checks, results):
        assert got == check(d)


# ---------------------------------------------------------------------------
# the suppression list
# ---------------------------------------------------------------------------


def test_orthogonal_design_has_no_suppressors(orthogonal_design):
    assert whole_lists(orthogonal_design)[1] == []


def test_miller_suppressor_pair(miller_design):
    certs = whole_lists(miller_design)[1]
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
        second, suppression = whole_lists(d)
        assert bool(suppression) == bool(second)


def _triples(certs):
    return set(zip(*(values.tolist() for values in certs.columns)))


@pytest.mark.parametrize("name", [*FIT_KERNEL_DESIGNS, "random_m10"])
def test_suppression_rows_are_the_second_order_rows(name):
    # One comparison selects both lists, so they hold the same (A, i, j) at
    # any tolerance, the tolerance edge included, whether or not they share
    # a table.
    if name == "random_m10":
        d = standardize(*random_gaussian(60, 10, seed=10))
    else:
        d = FIT_KERNEL_DESIGNS[name]()
    table = fit_table(d)
    second, suppression = whole_lists(d, table=table)
    triples = _triples(second)
    assert len(triples) == len(second)
    assert _triples(suppression) == triples
    assert _triples(whole_lists(d)[1]) == triples
    if second:
        gaps = np.sort(second.rhs - second.lhs)
        edge = float(gaps[gaps.size // 2])
        at_edge = [_triples(certs) for certs in whole_lists(d, tolerance=edge)]
        assert at_edge[0] == at_edge[1]
        assert len(at_edge[0]) < len(triples)


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
    fits = fit_table(d)
    est = empirical_gamma_s2(d, table=fits)
    A, i, j = est.witness_s2
    table = fits.r2
    a, ja = mask_of(A), mask_of(A) | 1 << j
    num = table[a | 1 << i] - table[a]
    den = table[ja | 1 << i] - table[ja]
    assert abs(num / den - est.gamma_s2) < 1e-10
    est_s = empirical_gamma_s(d, table=fits)
    A, B, i = est_s.witness_s
    a, b = mask_of(A), mask_of(B)
    num = table[a | 1 << i] - table[a]
    den = table[b | 1 << i] - table[b]
    assert abs(num / den - est_s.gamma_s) < 1e-10


def _mp_r_squared(mp, rows, subset):
    """R^2 of a subset at the working mpmath precision, from the design's
    standardized float columns taken exactly."""
    if not subset:
        return mp.mpf(0)
    X = mp.matrix(rows[0][:, list(subset)].tolist())
    y = mp.matrix(rows[1].tolist())
    b = X.T * y
    return (b.T * mp.lu_solve(X.T * X, b))[0]


def test_gamma_s2_at_m18_is_resolved_against_50_digits():
    # Table differences returned gamma_s2 = 0 here: the witness's gains are
    # far below the rounding of R^2 near 0.5. Direct gains resolve them.
    mpmath = pytest.importorskip("mpmath")
    rows = standardized_rows(*random_gaussian(n=200, m=18, seed=7))
    est = empirical_gamma_s2(StandardizedDesign(*rows))
    A, i, j = est.witness_s2
    assert est.gamma_s2 > 0.0
    with mpmath.workdps(50):
        gains = [
            _mp_r_squared(mpmath, rows, sorted(base + (i,))) - _mp_r_squared(mpmath, rows, base)
            for base in (tuple(A), tuple(sorted(A + (j,))))
        ]
        exact = gains[0] / gains[1]
        assert abs(est.gamma_s2 - exact) <= 1e-6 * exact


def test_certificate_columns_are_small():
    d = make_noisy_design(2, n=30, m=9)
    for certs in whole_lists(d):
        assert certs
        sets, i, j = certs.columns
        assert (sets.dtype, i.dtype, j.dtype) == (np.uint16, np.int8, np.int8)
    sets, i, j = whole_lists(make_noisy_design(2, n=30, m=6))[0].columns
    assert (sets.dtype, i.dtype, j.dtype) == (np.uint8, np.int8, np.int8)


def test_gamma_s_dominates_chain_bound():
    for seed in range(8):
        d = make_noisy_design(seed + 200, n=20, m=5)
        s2 = empirical_gamma_s2(d).gamma_s2
        if not 0.0 < s2 < 1.0:
            continue
        s1 = empirical_gamma_s(d).gamma_s
        # k worst-case second-order steps multiply a gain by gamma_s2 ** k
        assert s1 >= s2**d.m - 1e-9

