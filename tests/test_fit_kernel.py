"""Differential tests: the triangle-based fit kernel against direct n x |S| fits.

``evaluate_subset`` is the former per-mask fit: an SVD of the n x |S| slice of
the standardized rows a design is built from, the same relative rank cutoff and the same clip at
1. The package now fits every subset on the design's (m+1) x (m+1) triangle;
the two must agree on R^2 to 1e-12 and on the rank exactly, for every mask.
The sweep walk's screened values are checked against the kernel on the same
designs, and so is the table fill, which takes every value it trusts from the
walk, and its gain table.
"""

import math

import numpy as np
import pytest

from conftest import make_noisy_design, make_noisy_rows
from reader_oracle import FitEntry, fit_entry
from row_oracle import Rows, standardized_rows
from r2audit import fit_table, miller_table, standardize, suppressor_population
from r2audit import regress, setfun
from r2audit.bitsets import block_masks, combination_blocks, indices_of
from r2audit.regress import (
    RANK_RTOL,
    TABLE_PIVOT_RTOL,
    fit_block,
    gram_rows,
    sweep_walk,
)
from r2audit.selection import SCREEN_BAND


def evaluate_subset(rows, mask):
    if mask == 0:
        return FitEntry(0.0, 0)
    idx = indices_of(mask)
    if len(idx) == 1:
        r = float(rows.features[:, idx[0]] @ rows.response)
        return FitEntry(min(r * r, 1.0), 1)
    X = rows.features[:, idx]
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    proj = U[:, :rank].T @ rows.response
    return FitEntry(min(float(proj @ proj), 1.0), rank)


def _duplicated_column():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 4))
    X = np.column_stack([X, X[:, 1]])
    return Rows(*standardized_rows(X, X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(20)))


def _front_duplicated():
    # A copy of X1 as the first column, at m = 8: the node {0, 1} is
    # untrusted, and its subtree, a quarter of the tree, is walked below it.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 7))
    X = np.column_stack([X[:, 0], X])
    return Rows(*standardized_rows(X, X @ rng.uniform(-1.0, 1.0, 8) + 0.6 * rng.standard_normal(30)))


def _near_collinear_pair():
    # The first two features correlate at 1 - 1e-9; the last two are independent.
    r = 1.0 - 1e-9
    gram = np.eye(5)
    gram[1, 2] = gram[2, 1] = r
    gram[0, 1:] = gram[1:, 0] = [0.5, 0.5, 0.3, -0.2]
    return Rows(*gram_rows(gram, 9))


# The rows of each design; DESIGNS builds the designs from them.
ROWS = {
    "duplicated_column": _duplicated_column,
    "front_duplicated": _front_duplicated,
    "near_collinear_pair": _near_collinear_pair,
    "n_is_m_plus_2": lambda: make_noisy_rows(9, n=7, m=5),
    "n_below_m_plus_1": lambda: make_noisy_rows(12, n=4, m=6),
    "miller": lambda: Rows(*standardized_rows(*miller_table())),
    "interpolating": lambda: Rows(*gram_rows(suppressor_population(4, 1.0, 10.0), 8)),
    "tall": lambda: make_noisy_rows(14, n=600, m=6),
}
DESIGNS = {name: lambda rows=rows: standardize(*rows()) for name, rows in ROWS.items()}


@pytest.fixture(params=list(ROWS))
def rows(request):
    return ROWS[request.param]()


def test_kernel_matches_direct_fit_on_every_mask(rows):
    design = standardize(*rows)
    for mask in range(1 << design.m):
        got = fit_entry(design, indices_of(mask))
        want = evaluate_subset(rows, mask)
        assert abs(got.r_squared - want.r_squared) <= 1e-12, indices_of(mask)
        assert got.rank == want.rank, indices_of(mask)


def test_table_fill_matches_direct_fit_on_every_mask(rows):
    # the table takes a trusted subset's swept value, which is right only for
    # a subset of full rank |S| by fit_block's cutoff
    design = standardize(*rows)
    table = fit_table(design).r2
    trusted = _table_walk(design)
    for mask in range(1 << design.m):
        want = evaluate_subset(rows, mask)
        assert abs(table[mask] - want.r_squared) <= 1e-12, indices_of(mask)
        if trusted[mask]:
            assert fit_entry(design, indices_of(mask)).rank == bin(mask).count("1"), indices_of(mask)


def test_designs_reach_their_edge_cases():
    for name in ("duplicated_column", "near_collinear_pair", "n_below_m_plus_1"):
        assert not all(trusted for _, trusted in _walk(DESIGNS[name]()).values()), name
    front = _walk(DESIGNS["front_duplicated"]())
    assert {mask for mask, (_, ok) in front.items() if not ok} == {mask for mask in front if mask & 3 == 3}
    assert fit_entry(DESIGNS["duplicated_column"](), (1, 4)).rank == 1
    assert fit_entry(DESIGNS["n_below_m_plus_1"](), range(6)).rank == 3
    assert fit_entry(DESIGNS["interpolating"](), range(4)).r_squared == pytest.approx(1.0, abs=1e-12)
    pair = ROWS["near_collinear_pair"]()
    assert 1.0 - pair.features[:, 0] @ pair.features[:, 1] == pytest.approx(1e-9, rel=1e-5)
    assert fit_entry(standardize(*pair), (0, 1)).rank == 2


def test_triangle_reproduces_the_gram():
    rows = ROWS["tall"]()
    A = np.column_stack([rows.features, rows.response])
    R = standardize(*rows).triangle
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
    # Each column is the previous columns' near-null combination plus 2e-2
    # of a new direction: every pivot a column meets on its own tree path is
    # at least 3.7e-4, above the trust floor, yet the smallest singular value
    # shrinks with each column, and the seven-column subset is rank-deficient
    # for fit_block.
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 8)))
    cols = [Q[:, 0]]
    for j in range(1, 7):
        U = np.column_stack(cols)
        _, s, Vt = np.linalg.svd(U, full_matrices=False)
        cols.append(U @ (Vt[-1] / s[-1]) + 2e-2 * Q[:, j])
    X = np.column_stack(cols)
    return standardize(X, X @ rng.standard_normal(7) + Q[:, 7])


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
        if collapsed < TABLE_PIVOT_RTOL / 2:
            assert not trusted, idx
    # distrust is closed under supersets
    untrusted = {mask for mask, (_, trusted) in seen.items() if not trusted}
    assert all(mask | 1 << j in untrusted for mask in untrusted for j in range(design.m))


def test_nested_design_collapses_only_off_its_paths():
    # Every pivot on the tree path of {0..6} clears the floor, yet the subset
    # is rank-deficient: the walk must distrust it by its other pivots.
    design = _nested_near_null()
    assert _pivots(design.triangle, range(7)).min() > TABLE_PIVOT_RTOL
    assert fit_entry(design, range(7)).rank == 6
    assert not _walk(design)[0b1111111][1]


def test_sweep_walk_does_not_depend_on_blocking(monkeypatch):
    for design in (DESIGNS["duplicated_column"](), DESIGNS["front_duplicated"](), make_noisy_design(16, n=40, m=7)):
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
    """{mask: trusted} of the walk the table fill makes."""
    seen = {0: True}
    for idx, _, trusted, _ in regress._sweep_blocks(design, design.m, regress.FIT_CHUNK, False):
        seen.update(zip(block_masks(idx).tolist(), trusted.tolist()))
    return seen


@pytest.mark.parametrize("seed", [3, 17, 40])
def test_direct_gains_match_fit_differences_on_gaussian_designs(seed):
    d = make_noisy_design(seed, n=50, m=8)
    gains = fit_table(d).gains
    assert all(_table_walk(d).values())
    fits = [fit_entry(d, indices_of(mask)).r_squared for mask in range(1 << d.m)]
    for i in range(d.m):
        for mask in range(1 << d.m):
            difference = fits[mask | (1 << i)] - fits[mask]
            assert abs(gains[i, mask] - difference) <= 1e-12, (i, indices_of(mask))


@pytest.mark.parametrize("name", [*DESIGNS, "nested_near_null"])
def test_gains_are_table_differences_wherever_the_walk_distrusts(name):
    # ...and within 1e-11 of the difference of two direct fits wherever it
    # trusts, so the swept gains are checked on the ill-conditioned designs
    # too, not only where every subset is trusted.
    design = _nested_near_null() if name == "nested_near_null" else DESIGNS[name]()
    table, gains = fit_table(design)
    trusted = _table_walk(design)
    fits = [fit_entry(design, indices_of(mask)).r_squared for mask in range(1 << design.m)]
    untrusted = 0
    for i in range(design.m):
        for mask in range(1 << design.m):
            with_i = mask | (1 << i)
            if with_i == mask:
                assert gains[i, mask] == 0.0
            elif not (trusted[mask] and trusted[with_i]):
                untrusted += 1
                assert gains[i, mask] == table[with_i] - table[mask], (i, indices_of(mask))
            else:
                difference = fits[with_i] - fits[mask]
                assert abs(gains[i, mask] - difference) <= 1e-11, (i, indices_of(mask))
    if name in ("duplicated_column", "front_duplicated", "near_collinear_pair", "n_below_m_plus_1", "nested_near_null"):
        assert untrusted > 0


def test_table_floor_holds_its_error_bound_to_a_tenth_of_the_violation_tolerance():
    bound = 3 * np.finfo(float).eps * regress.DEFAULT_MAX_FEATURES / TABLE_PIVOT_RTOL
    assert bound == pytest.approx(setfun.VIOLATION_TOL / 10, rel=1e-12)


def test_gain_table_is_kept_up_to_20_features(monkeypatch):
    assert 8 * 20 << 20 <= regress.GAIN_TABLE_BYTES < 8 * 21 << 21
    design = DESIGNS["n_below_m_plus_1"]()
    m = design.m
    r2, gains = regress.fit_table(design)
    assert gains.shape == (m, 1 << m)
    monkeypatch.setattr(regress, "GAIN_TABLE_BYTES", (8 * m << m) - 1)
    r2_alone, none = regress.fit_table(design)
    assert none is None
    assert np.abs(r2_alone - r2).max() <= 1e-15


def test_fill_walks_the_same_blocks_without_a_gain_table(monkeypatch):
    # The fill expands FIT_CHUNK nodes per block whether or not it keeps a
    # gain table; only sweep_walk's screen takes smaller blocks.
    design = make_noisy_design(17, n=40, m=10)
    blocks = []
    sweep_blocks = regress._sweep_blocks

    def recorded(*args):
        for idx, *rest in sweep_blocks(*args):
            blocks[-1].append(block_masks(idx).tolist())
            yield (idx, *rest)

    monkeypatch.setattr(regress, "_sweep_blocks", recorded)
    for budget in (regress.GAIN_TABLE_BYTES, 0):
        monkeypatch.setattr(regress, "GAIN_TABLE_BYTES", budget)
        blocks.append([])
        assert (regress.fit_table(design).gains is None) is (budget == 0)
    assert len(blocks[0]) > 1 and blocks[0] == blocks[1]
