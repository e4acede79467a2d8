import numpy as np
import pytest

from r2audit import miller_table, standardize
from r2audit.regress import gram_rows
from row_oracle import Rows, standardized_rows


@pytest.fixture(scope="session")
def miller_design():
    X, y, names = miller_table()
    return standardize(X, y, names)


@pytest.fixture(scope="session")
def miller_rows():
    """The standardized rows the miller_design fixture is built from."""
    return Rows(*standardized_rows(*miller_table()))


def make_orthogonal_rows(r_y, n=None):
    """Exact-Gram rows with mutually uncorrelated features and the given
    response correlations."""
    r = np.asarray(r_y, dtype=float)
    m = len(r)
    gram = np.eye(m + 1)
    gram[0, 1:] = gram[1:, 0] = r
    return Rows(*gram_rows(gram, n if n is not None else m + 2))


def make_orthogonal_design(r_y, n=None):
    return standardize(*make_orthogonal_rows(r_y, n))


def make_pair_rows(r_y1, r_y2, r12, n=8):
    gram = np.array([[1.0, r_y1, r_y2], [r_y1, 1.0, r12], [r_y2, r12, 1.0]])
    return Rows(*gram_rows(gram, n))


def make_pair_design(r_y1, r_y2, r12, n=8):
    return standardize(*make_pair_rows(r_y1, r_y2, r12, n))


def make_noisy_rows(seed, n=30, m=5, scale=0.6):
    """Generic full-rank standardized rows with a correlated response."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    beta = rng.uniform(-1.0, 1.0, m)
    y = X @ beta + scale * rng.standard_normal(n)
    return Rows(*standardized_rows(X, y))


def make_noisy_design(seed, n=30, m=5, scale=0.6):
    return standardize(*make_noisy_rows(seed, n, m, scale))


@pytest.fixture
def orthogonal_design():
    return make_orthogonal_design([0.6, 0.4, 0.2], n=8)


@pytest.fixture
def orthogonal_rows():
    """The rows the orthogonal_design fixture is built from."""
    return make_orthogonal_rows([0.6, 0.4, 0.2], n=8)
