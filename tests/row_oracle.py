"""Row-based references for the functions that compute on a design's triangle.

A design keeps only the QR triangle R of its standardized [X | y]. These are
the functions as they were written on the n rows: correlations as inner
products of the columns, a subset's span as the SVD basis of its columns,
residuals as the rows with that span projected out, and the least-squares
fit as an SVD of the n x |S| slice. They take a :class:`Rows`, the
standardized rows a design is built from, and keep the package's tolerances
and errors, so the triangle's versions must agree with them to rounding.
:func:`standardized_rows` builds those rows by explicit centering: the
reference for ``standardize``, which folds [1 | X | y] into its triangle
without centering a column.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from r2audit.errors import ConstantColumn, DataFormatError, DegenerateResidual, InsufficientDof, RankDeficient
from r2audit.regress import (
    DEGENERATE_TOL,
    RANK_RTOL,
    ZERO_RSS_TOL,
    LeastSquaresFit,
    _as_indices,
    default_names,
)


class Rows(NamedTuple):
    """Standardized rows: ``StandardizedDesign(*rows)`` is their design."""

    features: np.ndarray
    response: np.ndarray
    names: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]


def standardized_rows(raw, response, names=None):
    """(features, response, names) with each column centered and scaled to
    unit length.

    Raises ConstantColumn for any zero-variance column; the response is
    reported with index -1. Already-standardized input is a fixed point.
    """
    X = np.asarray(raw, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("raw must be (n, m) with a length-n response")
    if X.shape[0] < 2:
        raise ValueError("need at least two observations")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataFormatError("input contains NaN or Inf")

    Xc = X - X.mean(axis=0)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=0))
    norms = np.linalg.norm(Xc, axis=0)
    for j in range(X.shape[1]):
        if norms[j] <= 1e-12 * scale[j]:
            raise ConstantColumn(j)
    yc = y - y.mean()
    ynorm = np.linalg.norm(yc)
    if ynorm <= 1e-12 * max(1.0, np.linalg.norm(y)):
        raise ConstantColumn(-1)

    cols = tuple(names) if names is not None else default_names(X.shape[1])
    Xc /= norms
    yc /= ynorm
    return Xc, yc, cols


def marginal_correlations(rows: Rows) -> np.ndarray:
    return rows.features.T @ rows.response


def correlation_matrix(rows: Rows) -> np.ndarray:
    return rows.features.T @ rows.features


def span_basis(rows: Rows, subset) -> np.ndarray:
    """Orthonormal basis (n x rank) for the span of a feature subset."""
    idx = _as_indices(subset, rows.m)
    if not idx:
        return np.zeros((rows.n, 0))
    U, s, _ = np.linalg.svd(rows.features[:, idx], full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return U[:, :rank]


def residualize(rows: Rows, targets, conditioners) -> np.ndarray:
    """Columns of the target features with the conditioners projected out,
    not renormalized."""
    A = _as_indices(targets, rows.m)
    S = _as_indices(conditioners, rows.m)
    if set(A) & set(S):
        raise ValueError("targets and conditioners overlap")
    block = rows.features[:, A].copy()
    if not S:
        return block
    Q = span_basis(rows, S)
    return block - Q @ (Q.T @ block)


def partial_correlation(rows: Rows, i: int, subset) -> float:
    S = _as_indices(subset, rows.m)
    resid = residualize(rows, (i,), S)[:, 0]
    norm = float(np.linalg.norm(resid))
    if norm <= DEGENERATE_TOL:
        raise DegenerateResidual(i, S)
    value = float(rows.response @ resid) / norm
    return float(np.clip(value, -1.0, 1.0))


def ls_fit(rows: Rows, subset) -> LeastSquaresFit:
    idx = _as_indices(subset, rows.m)
    if not idx:
        raise ValueError("ls_fit needs a nonempty subset")
    k = len(idx)
    if k > rows.n - 2:
        raise InsufficientDof(idx)
    U, s, Vt = np.linalg.svd(rows.features[:, idx], full_matrices=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise RankDeficient(idx)
    proj = U.T @ rows.response
    coef = Vt.T @ (proj / s)
    rss = max(1.0 - float(proj @ proj), 0.0)
    dof = rows.n - k - 1
    if rss <= ZERO_RSS_TOL:
        se = np.zeros(k)
        t = np.full(k, np.inf)
    else:
        gram_inv_diag = np.sum((Vt / s[:, None]) ** 2, axis=0)
        se = np.sqrt(rss / dof * gram_inv_diag)
        t = coef / se
    return LeastSquaresFit(idx, coef, se, t, rss, dof)

