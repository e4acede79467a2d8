"""Differential tests: the triangle-based fit kernel against direct n x |S| fits.

``evaluate_subset`` is the former per-mask fit: an SVD of the n x |S| slice of
the standardized features, the same relative rank cutoff and the same clip at
1. The package now fits every subset on the design's (m+1) x (m+1) triangle;
the two must agree on R^2 to 1e-12 and on the rank exactly, for every mask.
The sweep walk's screened values are checked against the kernel on the same
designs, and so is the table fill, which takes every value it trusts from the
walk, and its gain table.
"""

import math

import numpy as np
import pytest

from conftest import make_noisy_design
from reader_oracle import FitEntry, fit_entry
from r2audit import FitCache, gram_factory, miller_table, standardize, suppressor_population
from r2audit import regress, setfun
from r2audit.bitsets import block_masks, combination_blocks, indices_of
from r2audit.regress import RANK_RTOL, SWEEP_PIVOT_RTOL, TABLE_PIVOT_RTOL, fit_block, sweep_walk
from r2audit.selection import SCREEN_BAND


def evaluate_subset(design, mask):
    if mask == 0:
        return FitEntry(0.0, 0)
    idx = indices_of(mask)
    if len(idx) == 1:
        r = float(design.features[:, idx[0]] @ design.response)
        return FitEntry(min(r * r, 1.0), 1)
    X = design.features[:, idx]
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    proj = U[:, :rank].T @ design.response
    return FitEntry(min(float(proj @ proj), 1.0), rank)


def _duplicated_column():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 4))
    X = np.column_stack([X, X[:, 1]])
    return standardize(X, X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(20))


def _near_collinear_pair():
    # The first two features correlate at 1 - 1e-9; the last two are independent.
    r = 1.0 - 1e-9
    gram = np.eye(5)
    gram[1, 2] = gram[2, 1] = r
    gram[0, 1:] = gram[1:, 0] = [0.5, 0.5, 0.3, -0.2]
    return gram_factory(gram, 9)


DESIGNS = {
    "duplicated_column": _duplicated_column,
    "near_collinear_pair": _near_collinear_pair,
    "n_is_m_plus_2": lambda: make_noisy_design(9, n=7, m=5),
    "n_below_m_plus_1": lambda: make_noisy_design(12, n=4, m=6),
    "miller": lambda: standardize(*miller_table()),
    "interpolating": lambda: gram_factory(suppressor_population(4, 1.0, 10.0), 8),
    "tall": lambda: make_noisy_design(14, n=600, m=6),
}


@pytest.fixture(params=list(DESIGNS))
def design(request):
    return DESIGNS[request.param]()


def test_kernel_matches_direct_fit_on_every_mask(design):
    for mask in range(1 << design.m):
        got = fit_entry(design, indices_of(mask))
        want = evaluate_subset(design, mask)
        assert abs(got.r_squared - want.r_squared) <= 1e-12, indices_of(mask)
        assert got.rank == want.rank, indices_of(mask)


def test_table_fill_matches_direct_fit_on_every_mask(design):
    cache = FitCache()
    table = setfun._table(design, cache, regress.DEFAULT_MAX_FEATURES)
    for mask in range(1 << design.m):
        want = evaluate_subset(design, mask)
        assert abs(table[mask] - want.r_squared) <= 1e-12, indices_of(mask)
        assert cache.ranks[mask] == want.rank, indices_of(mask)


def test_designs_reach_their_edge_cases():
    for name in ("duplicated_column", "near_collinear_pair", "n_below_m_plus_1"):
        assert not all(trusted for _, trusted in _walk(DESIGNS[name]()).values()), name
    assert fit_entry(DESIGNS["duplicated_column"](), (1, 4)).rank == 1
    assert fit_entry(DESIGNS["n_below_m_plus_1"](), range(6)).rank == 3
    assert fit_entry(DESIGNS["interpolating"](), range(4)).r_squared == pytest.approx(1.0, abs=1e-12)
    pair = DESIGNS["near_collinear_pair"]()
    assert 1.0 - pair.features[:, 0] @ pair.features[:, 1] == pytest.approx(1e-9, rel=1e-5)
    assert fit_entry(pair, (0, 1)).rank == 2


def test_triangle_reproduces_the_gram():
    d = DESIGNS["tall"]()
    A = np.column_stack([d.features, d.response])
    R = d.triangle
    assert np.allclose(R.T @ R, A.T @ A, atol=1e-13)
    assert np.allclose(np.linalg.svd(R, compute_uv=False), np.linalg.svd(A, compute_uv=False), rtol=1e-13)
    assert not R.flags.writeable


def test_fit_block_does_not_depend_on_batching(monkeypatch):
    d = make_noisy_design(15, n=40, m=7)
    for size in range(1, d.m + 1):
        (idx,) = combination_blocks(d.m, size, 1 << d.m)
        whole = fit_block(d, idx)
        monkeypatch.setattr(regress, "FIT_CHUNK", 3)
        chunked = fit_block(d, idx)
        monkeypatch.undo()
        singles = [fit_entry(d, row) for row in idx]
        assert whole[0].tolist() == chunked[0].tolist() == [e.r_squared for e in singles]
        assert whole[1].tolist() == chunked[1].tolist() == [e.rank for e in singles]


def _nested_near_null():
    # Each column is the previous columns' near-null combination plus 1.2e-3
    # of a new direction: every pivot a column meets on its own tree path is
    # about 1.4e-6, yet the smallest singular value shrinks by about 1e-3 per
    # column, and the five-column subset is rank-deficient for fit_block.
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 7)))
    cols = [Q[:, 0]]
    for j in range(1, 6):
        U = np.column_stack(cols)
        _, s, Vt = np.linalg.svd(U, full_matrices=False)
        cols.append(U @ (Vt[-1] / s[-1]) + 1.2e-3 * Q[:, j])
    X = np.column_stack(cols)
    return standardize(X, X @ rng.standard_normal(6) + Q[:, 6])


def _pivots(R, order):
    """Squared diagonal of the QR triangle of R's columns in this order: the
    pivot each column meets when swept in that order (0 past the rank)."""
    pivots = np.zeros(len(order))
    diag = np.diag(np.linalg.qr(R[:, list(order)], mode="r"))
    pivots[: diag.size] = diag**2
    return pivots


def _last_pivot(R, idx, a):
    """The pivot feature a meets when swept last in subset idx."""
    return _pivots(R, [b for b in idx if b != a] + [a])[-1]


def _walk(design, depth=None):
    """{mask: (screened r2, trusted)} of one sweep walk; each subset comes once."""
    seen = {}
    for idx, r2, trusted in sweep_walk(design, design.m if depth is None else depth):
        assert (np.diff(idx, axis=1) > 0).all()
        for mask, value, ok in zip(block_masks(idx).tolist(), r2.tolist(), trusted.tolist()):
            assert mask not in seen
            seen[mask] = (value, ok)
    return seen


@pytest.mark.parametrize("name", [*DESIGNS, "nested_near_null"])
def test_sweep_walk_screens_every_subset_within_the_band(name):
    design = _nested_near_null() if name == "nested_near_null" else DESIGNS[name]()
    seen = _walk(design)
    assert sorted(seen) == list(range(1, 1 << design.m))
    R = design.triangle
    gram_diag = np.diagonal(R.T @ R)
    for mask, (value, trusted) in seen.items():
        idx = indices_of(mask)
        fit, rank = fit_block(design, np.array([idx]))
        collapsed = min(_last_pivot(R, idx, a) / gram_diag[a] for a in idx)
        if trusted:
            assert abs(value - fit[0]) <= SCREEN_BAND / 100, idx
            assert rank[0] == len(idx), idx
        else:
            assert math.isnan(value), idx
        if collapsed < SWEEP_PIVOT_RTOL / 2:
            assert not trusted, idx


def test_nested_design_collapses_only_off_its_paths():
    # Every pivot on the tree path of {0..4} clears the floor, yet the subset
    # is rank-deficient: the walk must distrust it by its other pivots.
    design = _nested_near_null()
    assert _pivots(design.triangle, range(5)).min() > SWEEP_PIVOT_RTOL
    assert fit_entry(design, range(5)).rank == 4
    assert not _walk(design)[0b11111][1]


def test_sweep_walk_does_not_depend_on_blocking(monkeypatch):
    for design in (DESIGNS["duplicated_column"](), make_noisy_design(16, n=40, m=7)):
        for depth in range(design.m + 1):
            whole = _walk(design, depth)
            monkeypatch.setattr(regress, "FIT_CHUNK", 2)
            blocked = _walk(design, depth)
            monkeypatch.undo()
            assert repr(sorted(whole.items())) == repr(sorted(blocked.items()))


# ---------------------------------------------------------------------------
# The table fill's gain table
# ---------------------------------------------------------------------------


def _table_walk(design):
    """{mask: trusted} of the walk the table fill makes, at the table's floor."""
    seen = {0: True}
    for idx, _, trusted, _ in regress._sweep_blocks(design, design.m, TABLE_PIVOT_RTOL, False):
        seen.update(zip(block_masks(idx).tolist(), trusted.tolist()))
    return seen


@pytest.mark.parametrize("seed", [3, 17, 40])
def test_direct_gains_match_fit_differences_on_gaussian_designs(seed):
    d = make_noisy_design(seed, n=50, m=8)
    cache = FitCache()
    setfun._table(d, cache, regress.DEFAULT_MAX_FEATURES)
    assert all(_table_walk(d).values())
    fits = [fit_entry(d, indices_of(mask)).r_squared for mask in range(1 << d.m)]
    for i in range(d.m):
        for mask in range(1 << d.m):
            difference = fits[mask | (1 << i)] - fits[mask]
            assert abs(cache.gains[i, mask] - difference) <= 1e-12, (i, indices_of(mask))


@pytest.mark.parametrize("name", [*DESIGNS, "nested_near_null"])
def test_gains_are_table_differences_wherever_the_walk_distrusts(name):
    # ...and within 1e-11 of the difference of two direct fits wherever it
    # trusts, so the swept gains are checked on the ill-conditioned designs
    # too, not only where every subset is trusted.
    design = _nested_near_null() if name == "nested_near_null" else DESIGNS[name]()
    cache = FitCache()
    table = setfun._table(design, cache, regress.DEFAULT_MAX_FEATURES)
    trusted = _table_walk(design)
    fits = [fit_entry(design, indices_of(mask)).r_squared for mask in range(1 << design.m)]
    untrusted = 0
    for i in range(design.m):
        for mask in range(1 << design.m):
            with_i = mask | (1 << i)
            if with_i == mask:
                assert cache.gains[i, mask] == 0.0
            elif not (trusted[mask] and trusted[with_i]):
                untrusted += 1
                assert cache.gains[i, mask] == table[with_i] - table[mask], (i, indices_of(mask))
            else:
                difference = fits[with_i] - fits[mask]
                assert abs(cache.gains[i, mask] - difference) <= 1e-11, (i, indices_of(mask))
    if name in ("duplicated_column", "near_collinear_pair", "n_below_m_plus_1", "nested_near_null"):
        assert untrusted > 0


def test_a_higher_floor_trusts_no_more_subsets():
    design = _nested_near_null()
    screen = _walk(design)
    table = _table_walk(design)
    assert TABLE_PIVOT_RTOL > SWEEP_PIVOT_RTOL
    assert {mask for mask, ok in table.items() if ok and mask} <= {mask for mask, (_, ok) in screen.items() if ok}
    assert sum(not ok for ok in table.values()) > sum(not ok for _, ok in screen.values())


def test_table_floor_holds_its_error_bound_to_a_tenth_of_the_violation_tolerance():
    bound = 3 * np.finfo(float).eps * regress.DEFAULT_MAX_FEATURES / TABLE_PIVOT_RTOL
    assert bound == pytest.approx(setfun.VIOLATION_TOL / 10, rel=1e-12)


def test_gain_table_is_kept_up_to_20_features(monkeypatch):
    assert 8 * 20 << 20 <= regress.GAIN_TABLE_BYTES < 8 * 21 << 21
    design = DESIGNS["n_below_m_plus_1"]()
    m = design.m
    r2, rank, gains = regress.fit_table(design)
    assert gains.shape == (m, 1 << m)
    monkeypatch.setattr(regress, "GAIN_TABLE_BYTES", (8 * m << m) - 1)
    r2_alone, rank_alone, none = regress.fit_table(design)
    assert none is None
    np.testing.assert_array_equal(rank_alone, rank)
    assert np.abs(r2_alone - r2).max() <= 1e-15
