import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r2audit import (
    gram_factory,
    ls_fit,
    partial_correlation,
    r_squared,
    restricted_eigenvalue,
    standardize,
    suppressor_population,
)
from r2audit.bitsets import indices_of
from r2audit.errors import (
    ConstantColumn,
    DataFormatError,
    DegenerateResidual,
    InsufficientDof,
    NotPSD,
    RankDeficient,
    TooFewRows,
)
from r2audit.regress import gram_rows
import row_oracle as oracle
from row_oracle import standardized_rows
from conftest import make_noisy_design, make_noisy_rows, make_orthogonal_design, make_pair_rows
from population_checks import sis_assumption_check


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------


def test_standardize_miller_correlations(miller_design):
    r = miller_design.marginal_correlations()
    assert abs(r[2] - 0.4472) < 5e-4
    assert abs(r[0]) < 1e-12
    assert abs(r[1] - (-0.0016)) < 5e-4


def test_standardize_invariants(miller_rows):
    X = miller_rows.features
    assert np.abs(X.sum(axis=0)).max() < 1e-10
    assert_allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-10)
    assert abs(miller_rows.response.sum()) < 1e-10
    assert abs(np.linalg.norm(miller_rows.response) - 1.0) < 1e-10


def test_standardize_idempotent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((9, 4)) * 50 + 3
    y = rng.standard_normal(9)
    once = standardized_rows(X, y)
    twice = standardized_rows(once[0], once[1])
    assert_allclose(twice[0], once[0], atol=1e-12)
    assert_allclose(twice[1], once[1], atol=1e-12)


def test_standardize_rejects_constant_column():
    X = np.column_stack([np.ones(5), np.arange(5.0)])
    y = np.arange(5.0)
    with pytest.raises(ConstantColumn) as err:
        standardize(X, y)
    assert err.value.index == 0
    with pytest.raises(ConstantColumn) as err:
        standardize(np.arange(5.0)[:, None], np.full(5, 2.0))
    assert err.value.index == -1


def test_load_csv_accepts_quoted_cells(tmp_path):
    from r2audit import load_csv

    path = tmp_path / "quoted.csv"
    path.write_text('"Y","X1","X2"\n"1.5",2.0,"3.25"\n-1.0,"0.5",4.0\n2.0,1.0,5.0\n')
    X, y, names = load_csv(path, "Y")
    assert names == ("X1", "X2")
    assert_allclose(y, [1.5, -1.0, 2.0], atol=0)
    assert_allclose(X[0], [2.0, 3.25], atol=0)


@pytest.mark.parametrize("header, twice", [("X1,X1,Y", "X1"), ("X1,Y,Y", "Y"), ("Y,X1, X1", "X1")])
def test_load_csv_rejects_a_repeated_column(tmp_path, header, twice):
    from r2audit import load_csv

    path = tmp_path / "twice.csv"
    path.write_text(f"{header}\n1,2,3\n4,5,7\n2,1,0\n")
    with pytest.raises(DataFormatError, match=f"column '{twice}' appears more than once"):
        load_csv(path, "Y")


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    from r2audit import load_csv

    body = "Y,X1,X2\n1.5,2.0,3.25\n-1.0,0.5,4.0\n2.0,1.0,5.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(body.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    X, y, names = load_csv(marked, "Y")
    X0, y0, names0 = load_csv(plain, "Y")
    assert names == names0 == ("X1", "X2")
    assert np.array_equal(X, X0) and np.array_equal(y, y0)
    X, y, names = load_csv(marked, "X2")
    assert names == ("Y", "X1")
    assert_allclose(y, [3.25, 4.0, 5.0], atol=0)


def test_standardize_inner_products_are_correlations():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 3)) * np.array([4.0, 0.5, 30.0]) + 7
    y = X @ np.array([1.0, -2.0, 0.2]) + rng.standard_normal(20)
    d = standardize(X, y)
    expected = np.corrcoef(X, rowvar=False)
    assert_allclose(d.correlation_matrix(), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# r_squared
# ---------------------------------------------------------------------------


def test_r_squared_miller_true_pair(miller_design):
    assert abs(r_squared(miller_design, (0, 1)) - 1.0) < 1e-9


def test_r_squared_empty_is_zero(miller_design):
    assert r_squared(miller_design, ()) == 0.0


def test_r_squared_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, 3))
    y = X @ np.array([1.0, 0.5, -1.0]) + 0.3 * rng.standard_normal(5)
    rows = standardized_rows(X, y)
    d = standardize(*rows)
    G = rows[0].T @ rows[0]
    r = rows[0].T @ rows[1]
    normal = float(r @ np.linalg.inv(G) @ r)
    assert abs(r_squared(d, (0, 1, 2)) - normal) < 1e-10


def test_r_squared_monotone_exhaustive():
    m = 10
    d = make_noisy_design(21, n=40, m=m)
    values = {mask: r_squared(d, indices_of(mask)) for mask in range(1 << m)}
    for mask, value in values.items():
        for bit in range(m):
            if not (mask >> bit) & 1:
                assert values[mask | (1 << bit)] >= value - 1e-10


def test_r_squared_order_invariance():
    d = make_noisy_design(8, n=25, m=6)
    a = r_squared(d, (4, 1, 3))
    b = r_squared(d, (3, 4, 1))
    assert a == b


def test_r_squared_pythagoras():
    rows = make_noisy_rows(13, n=30, m=5)
    d = standardize(*rows)
    for subset in [(0,), (1, 3), (0, 2, 4)]:
        resid = rows.response - _projection(rows, subset)
        assert abs(r_squared(d, subset) + resid @ resid - 1.0) < 1e-10


def _projection(rows, subset):
    U = oracle.span_basis(rows, subset)
    return U @ (U.T @ rows.response)


# ---------------------------------------------------------------------------
# partial_correlation against the row residuals
# ---------------------------------------------------------------------------


def test_residualize_empty_conditioners_is_identity(miller_design, miller_rows):
    # with nothing to project out, the residual is the column itself
    out = oracle.residualize(miller_rows, (0, 2), ())
    assert_allclose(out, miller_rows.features[:, [0, 2]], atol=0)
    for i in (0, 2):
        column = miller_rows.features[:, i]
        expected = float(miller_rows.response @ column) / np.linalg.norm(column)
        assert abs(partial_correlation(miller_design, i, ()) - expected) < 1e-12


def test_residualize_miller_semi_partial(miller_design, miller_rows):
    resid = oracle.residualize(miller_rows, (1,), (2,))[:, 0]
    corr = float(miller_rows.response @ resid) / np.linalg.norm(resid)
    assert abs(corr - (-0.0014)) < 5e-4
    assert abs(partial_correlation(miller_design, 1, (2,)) - corr) < 1e-12


def test_residualize_orthogonal_design_unchanged(orthogonal_design, orthogonal_rows):
    out = oracle.residualize(orthogonal_rows, (0,), (1, 2))
    assert_allclose(out[:, 0], orthogonal_rows.features[:, 0], atol=1e-10)
    # an unchanged unit column keeps its marginal correlation
    assert abs(partial_correlation(orthogonal_design, 0, (1, 2)) - 0.6) < 1e-10


def test_residualize_projection_idempotent():
    rows = make_noisy_rows(4, n=30, m=6)
    d = standardize(*rows)
    once = oracle.residualize(rows, (0, 1), (3, 4))
    basis = oracle.span_basis(rows, (3, 4))
    again = once - basis @ (basis.T @ once)
    assert_allclose(again, once, atol=1e-10)
    assert np.abs(basis.T @ once).max() < 1e-10
    # a second projection changes nothing, so conditioning on the span once
    # gives the row value
    for k, i in enumerate((0, 1)):
        expected = float(rows.response @ once[:, k]) / np.linalg.norm(once[:, k])
        assert abs(partial_correlation(d, i, (3, 4)) - expected) < 1e-12


def test_partial_correlation_no_conditioning_is_marginal(miller_design):
    r = miller_design.marginal_correlations()
    for i in range(3):
        assert abs(partial_correlation(miller_design, i, ()) - r[i]) < 1e-12


def test_partial_correlation_miller_x1_given_x3(miller_design):
    assert abs(partial_correlation(miller_design, 0, (2,))) < 5e-4


def test_partial_correlation_squared_equals_gain():
    d = make_noisy_design(6, n=24, m=4)
    for i, S in [(0, (1,)), (2, (0, 3)), (3, (0, 1, 2))]:
        pc = partial_correlation(d, i, S)
        gain = r_squared(d, tuple(S) + (i,)) - r_squared(d, S)
        assert abs(pc * pc - gain) < 1e-9


def test_partial_correlation_degenerate():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [5.0, 10.0]])
    y = np.array([0.0, 1.0, 0.5, 2.0])
    d = standardize(X, y)
    with pytest.raises(DegenerateResidual):
        partial_correlation(d, 1, (0,))


# ---------------------------------------------------------------------------
# ls_fit
# ---------------------------------------------------------------------------


def test_ls_fit_single_feature_slope_is_correlation():
    d = make_noisy_design(9, n=15, m=3)
    r = d.marginal_correlations()
    for i in range(3):
        fit = ls_fit(d, (i,))
        assert abs(fit.coefficients[0] - r[i]) < 1e-12


def test_ls_fit_miller_interpolating_sentinel(miller_design):
    fit = ls_fit(miller_design, (0, 1))
    assert fit.rss < 1e-9
    assert np.isinf(fit.t_statistics).all()


def test_ls_fit_matches_textbook_oracle():
    X, y, names = make_pair_rows(0.5, 0.5, 0.5, n=12)
    d = standardize(X, y, names)

    # Straight-line oracle: solve the two-variable normal equations by hand
    # and form t = beta / se with dof = n - k - 1.
    G = X.T @ X
    beta = np.linalg.solve(G, X.T @ y)
    rss = float(y @ y - y @ X @ beta)
    dof = 12 - 2 - 1
    se = np.sqrt(rss / dof * np.diag(np.linalg.inv(G)))
    t_oracle = beta / se

    fit = ls_fit(d, (0, 1))
    assert_allclose(fit.t_statistics, t_oracle, atol=1e-8)
    assert_allclose(fit.coefficients, beta, atol=1e-10)


def test_ls_fit_errors():
    d = make_noisy_design(14, n=6, m=5)
    with pytest.raises(InsufficientDof):
        ls_fit(d, (0, 1, 2, 3, 4))
    X = np.array([[1.0, 2.0, 0.3], [2.0, 4.0, -1.0], [3.0, 6.0, 0.7], [5.0, 10.0, 0.1], [4.0, 8.0, 1.2]])
    y = np.array([0.0, 1.0, 0.5, 2.0, 1.0])
    dd = standardize(X, y)
    with pytest.raises(RankDeficient):
        ls_fit(dd, (0, 1))


@pytest.mark.parametrize("bad", [-1, -4, 4])
@pytest.mark.parametrize("call", ["restricted_eigenvalue", "ls_fit", "sis_assumption_check"])
def test_feature_indices_outside_the_design_are_refused(call, bad):
    # a negative index must not wrap around to the last features
    d = make_noisy_design(5, n=20, m=4)
    run = {
        "restricted_eigenvalue": lambda: restricted_eigenvalue(d.correlation_matrix(), (bad,), 2.0),
        "ls_fit": lambda: ls_fit(d, (bad, 0)),
        "sis_assumption_check": lambda: sis_assumption_check(d, (bad,), np.ones(4), 0.25, 0.01, 0.01),
    }[call]
    with pytest.raises(ValueError, match="out of range"):
        run()


# ---------------------------------------------------------------------------
# gram_factory
# ---------------------------------------------------------------------------


def test_gram_factory_identity():
    d = make_orthogonal_design([0.0, 0.0], n=5)
    C = d.correlation_matrix()
    assert abs(C[0, 1]) < 1e-10
    assert np.abs(d.marginal_correlations()).max() < 1e-10


def test_gram_factory_round_trip():
    gram = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    X, y, _ = gram_rows(gram, 8)
    realized = np.empty((3, 3))
    cols = [y, X[:, 0], X[:, 1]]
    for i in range(3):
        for j in range(3):
            realized[i, j] = cols[i] @ cols[j]
    assert_allclose(realized, gram, atol=1e-10)


def test_gram_factory_suppressor_marginals():
    gram = suppressor_population(3, 1.0, 3.0)
    d = gram_factory(gram, 8)
    r = d.marginal_correlations()
    assert abs(r[0] - 1 / math.sqrt(30)) < 1e-10
    assert abs(r[1] - 1 / math.sqrt(30)) < 1e-10
    assert abs(r[2] - 1 / math.sqrt(57)) < 1e-10


def test_gram_factory_errors():
    bad = np.array([[1.0, 0.99], [0.99, 1.0]])
    with pytest.raises(TooFewRows):
        gram_factory(bad, 2)
    not_psd = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NotPSD):
        gram_factory(not_psd, 8)
