"""A design is its triangle: the functions that compute on R against the
row oracle, on tall designs and on designs with n <= m + 1, where R is not
square.

The two agree to TOL times the condition of what they compute: the rounding
of a correlation of order eps is amplified by 1 / ||residual|| in a partial
correlation, and by the condition number of the subset's columns in a
least-squares fit, and a t statistic also by 1 / rss (see _t_tol). On the
wide design's nearly spanned columns (residual norms of 1e-5) the row and
triangle values differ by up to 1.2e-10.
"""
from itertools import combinations

import numpy as np
import pytest

import row_oracle as oracle
from row_oracle import Rows
from r2audit import (
    StandardizedDesign,
    forward_stepwise,
    gram_factory,
    ls_fit,
    miller_table,
    partial_correlation,
    random_gaussian,
    standardize,
    suppressor_population,
)
from r2audit.errors import AuditError
from r2audit.regress import ZERO_RSS_TOL, gram_rows
from row_oracle import standardized_rows

TOL = 1e-12


def _wide():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((5, 7))
    return standardized_rows(X, X[:, :2].sum(axis=1) + 0.3 * rng.standard_normal(5))


ROWS = {
    "miller": lambda: standardized_rows(*miller_table()),
    "suppressor3": lambda: gram_rows(suppressor_population(3, 1.0, 3.0), 7),
    "suppressor6": lambda: gram_rows(suppressor_population(6, 1.0, 3.0), 10),
    "gaussian": lambda: standardized_rows(*random_gaussian(200, 7, beta=[1.0, -0.5, 0, 0, 0.3, 0, 0], seed=4)),
    "n_below_m_plus_1": _wide,
}


@pytest.fixture(params=list(ROWS))
def rows(request):
    return Rows(*ROWS[request.param]())


def _subsets(m, largest):
    for size in range(largest + 1):
        yield from combinations(range(m), size)


def _same_outcome(got, want):
    """Run both: None when both raise the same error, else (got, want)."""
    try:
        expected = want()
    except AuditError as exc:
        with pytest.raises(type(exc)):
            got()
        return None
    return got(), expected


def test_the_design_keeps_only_its_triangle(rows):
    d = standardize(*rows)
    assert StandardizedDesign.__slots__ == ("triangle", "n", "names")
    # centered columns span at most n - 1 dimensions
    assert d.triangle.shape == (min(rows.n - 1, rows.m + 1), rows.m + 1)
    assert (d.n, d.m, d.names) == (rows.n, rows.m, rows.names)


def test_correlations_match_the_rows(rows):
    d = standardize(*rows)
    assert np.abs(d.marginal_correlations() - oracle.marginal_correlations(rows)).max() <= TOL
    assert np.abs(d.correlation_matrix() - oracle.correlation_matrix(rows)).max() <= TOL
    gram = d.gram()
    assert np.abs(gram - gram.T).max() <= TOL


def _t_tol(cond, rss):
    """Relative bound on a standard error or t statistic computed from
    columns of condition cond, in a fit whose residual sum of squares is rss.

    Both scale as rss^(1/2) or rss^(-1/2), and rss = 1 - ||U^T y||^2 is a
    difference of order-1 terms: its rounding of order eps (eps cond where
    the projection's basis carries it) is relative to rss. With the
    coefficient's own TOL cond, the bound TOL cond / rss covers them all,
    as rss <= 1 <= cond. An interpolating fit's t is +inf on both sides.
    """
    return TOL * cond / max(rss, ZERO_RSS_TOL)


def test_ls_fit_matches_the_rows(rows):
    d = standardize(*rows)
    fitted = 0
    for subset in _subsets(rows.m, min(rows.m, rows.n - 1)):
        if not subset:
            continue
        pair = _same_outcome(lambda: ls_fit(d, subset), lambda: oracle.ls_fit(rows, subset))
        if pair is None:
            continue
        got, want = pair
        fitted += 1
        cond = np.linalg.cond(rows.features[:, subset])
        assert (got.subset, got.dof) == (want.subset, want.dof)
        assert abs(got.rss - want.rss) <= TOL * cond, subset
        for field in ("coefficients", "standard_errors", "t_statistics"):
            a, b = getattr(got, field), getattr(want, field)
            assert np.array_equal(np.isinf(a), np.isinf(b)), (subset, field)
            finite = np.isfinite(b)
            scale = np.maximum(np.abs(b[finite]), 1.0)
            tol = TOL * cond if field == "coefficients" else _t_tol(cond, want.rss)
            assert (np.abs(a[finite] - b[finite]) <= tol * scale).all(), (subset, field, a, b)
    assert fitted > 0


def test_stepwise_t_matches_the_rows(rows):
    # Every step's t comes from ls_fit on the triangle. An interpolating fit
    # reports +inf whatever its degrees of freedom.
    d = standardize(*rows)
    model = []
    for step in forward_stepwise(d, min(rows.m, rows.n - 1)).steps:
        model = sorted(model + [step.feature])
        if step.marginal_t == np.inf and 1.0 - step.cumulative_r2 <= ZERO_RSS_TOL:
            continue
        try:
            want = oracle.ls_fit(rows, model)
        except AuditError:
            assert step.marginal_t is None, model
            continue
        t = float(want.t_statistics[model.index(step.feature)])
        if np.isinf(t):
            assert step.marginal_t == t, model
            continue
        cond = np.linalg.cond(rows.features[:, model])
        assert abs(step.marginal_t - t) <= _t_tol(cond, want.rss) * max(abs(t), 1.0), (model, step, t)


def test_partial_correlation_matches_the_rows(rows):
    d = standardize(*rows)
    resolved = 0
    for subset in _subsets(rows.m, min(3, rows.m - 1)):
        for i in set(range(rows.m)) - set(subset):
            pair = _same_outcome(
                lambda: partial_correlation(d, i, subset), lambda: oracle.partial_correlation(rows, i, subset)
            )
            if pair is not None:
                resolved += 1
                residual = np.linalg.norm(oracle.residualize(rows, (i,), subset))
                assert abs(pair[0] - pair[1]) <= TOL / residual, (i, subset)
    assert resolved > 0
    with pytest.raises(ValueError, match="overlap"):
        partial_correlation(d, 0, (0,))


def test_a_design_does_not_grow_with_n():
    gram = suppressor_population(4, 1.0, 3.0)
    small, large = gram_factory(gram, 10), gram_factory(gram, 10_000)
    assert (small.n, large.n) == (10, 10_000)

    def held(design):
        held = (getattr(design, slot) for slot in design.__slots__)
        return sum(value.nbytes for value in held if isinstance(value, np.ndarray))

    assert held(small) == held(large) == 5 * 5 * 8
