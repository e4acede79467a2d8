import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r2audit import (
    gram_factory,
    miller_table,
    r_squared,
    random_gaussian,
    standardize,
    suppressor_population,
)
from r2audit.datasets import write_csv
from r2audit.regress import gram_rows
from r2audit.errors import NotPSD


# ---------------------------------------------------------------------------
# miller_table
# ---------------------------------------------------------------------------


def test_miller_exact_values():
    X, y, names = miller_table()
    assert_allclose(y, [-2.0, -1.0, 1.0, 2.0], atol=0)
    assert_allclose(X[:, 0], [1000.0, -1000.0, -1000.0, 1000.0], atol=0)
    assert_allclose(X[:, 1], [1002.0, -999.0, -1001.0, 998.0], atol=0)
    assert_allclose(X[:, 2], [0.0, -1.0, 1.0, 0.0], atol=0)
    assert names == ("X1", "X2", "X3")


def test_miller_response_is_exact_difference():
    X, y, _ = miller_table()
    assert_allclose(y - (X[:, 0] - X[:, 1]), 0.0, atol=0)


def test_miller_standardizes():
    X, y, names = miller_table()
    d = standardize(X, y, names)
    assert d.n == 4 and d.m == 3


# ---------------------------------------------------------------------------
# suppressor_population
# ---------------------------------------------------------------------------


def test_suppressor_analytic_correlations():
    corr = suppressor_population(3, 1.0, 3.0)
    assert abs(corr[0, 1] - 1 / math.sqrt(30)) < 1e-12
    assert abs(corr[0, 2] - 1 / math.sqrt(30)) < 1e-12
    assert abs(corr[0, 3] - 1 / math.sqrt(57)) < 1e-12
    assert_allclose(corr, corr.T, atol=0)
    assert_allclose(np.diag(corr), 1.0, atol=0)
    assert np.linalg.eigvalsh(corr)[0] > -1e-10


def test_suppressor_monte_carlo():
    rng = np.random.default_rng(0)
    n = 10**6
    Z = rng.standard_normal((n, 3))
    eps = 3.0 * rng.standard_normal((n, 2))
    X1 = Z[:, 0] + eps[:, 0]
    X2 = Z[:, 1] + eps[:, 1]
    X3 = Z[:, 2] - eps.sum(axis=1)
    Y = Z.sum(axis=1)
    sample = np.corrcoef(np.column_stack([Y, X1, X2, X3]), rowvar=False)
    assert_allclose(sample, suppressor_population(3, 1.0, 3.0), atol=3e-3)


def test_suppressor_full_model_is_exact():
    for p, se in [(3, 3.0), (4, 10.0), (5, 1.0)]:
        d = gram_factory(suppressor_population(p, 1.0, se), p + 4)
        assert abs(r_squared(d, tuple(range(p))) - 1.0) < 1e-9


def test_suppressor_realization_reproduces_population_entrywise():
    corr = suppressor_population(4, 1.0, 10.0)
    X, y, _ = gram_rows(corr, 8)
    cols = np.column_stack([y, X])
    assert_allclose(cols.T @ cols, corr, atol=1e-10)


def test_suppressor_vanishing_noise_decorrelates():
    corr = suppressor_population(3, 1.0, 1e-6)
    off = corr[1:, 1:] - np.eye(3)
    assert np.abs(off).max() < 1e-10
    marginals = corr[0, 1:]
    assert abs(np.sum(marginals**2) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# random_gaussian
# ---------------------------------------------------------------------------


def test_gaussian_noiseless_single_cause():
    X, y = random_gaussian(20, 3, beta=[1.0, 0.0, 0.0], sigma_noise=0.0, seed=4)
    d = standardize(X, y)
    assert abs(d.marginal_correlations()[0] - 1.0) < 1e-10


def csv_text(features, response, names=None, response_name="Y") -> str:
    """Render a design as CSV text, as write_csv writes it."""
    buf = io.BytesIO()
    write_csv(buf, features, response, names, response_name)
    return buf.getvalue().decode()


def test_gaussian_seed_determinism():
    a = csv_text(*random_gaussian(50, 4, seed=7))
    b = csv_text(*random_gaussian(50, 4, seed=7))
    assert a == b
    c = csv_text(*random_gaussian(50, 4, seed=8))
    assert a != c


def test_gaussian_population_correlation():
    # With identity feature correlation and two unit coefficients, the
    # response variance is 2 + sigma^2 and corr(Y, X1) = 1 / sqrt(2 + sigma^2).
    sigma = 1.0
    X, y = random_gaussian(10**4, 5, beta=[1.0, 1.0, 0.0, 0.0, 0.0], sigma_noise=sigma, seed=11)
    d = standardize(X, y)
    expected = 1.0 / math.sqrt(2.0 + sigma**2)
    assert abs(d.marginal_correlations()[0] - expected) < 0.03


def test_gaussian_correlated_draws():
    C = np.full((3, 3), 0.5)
    np.fill_diagonal(C, 1.0)
    X, y = random_gaussian(5000, 3, correlation=C, beta=[1.0, 0.0, 0.0], seed=2)
    sample = np.corrcoef(X, rowvar=False)
    assert_allclose(sample, C, atol=0.05)


def test_gaussian_rejects_bad_inputs():
    with pytest.raises(ValueError):
        random_gaussian(4, 3)
    bad = np.array([[1.0, 0.9], [0.9, -1.0]])
    with pytest.raises(NotPSD):
        random_gaussian(10, 2, correlation=bad)
