"""Instance forges: a fixed counterexample, suppressor populations, Gaussian designs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NotPSD
from .regress import PSD_TOL, default_names

MILLER_NAMES = ("X1", "X2", "X3")


def miller_table():
    """Four observations on which greedy selection provably starts wrong.

    The response is an exact difference of the first two features, yet both
    are nearly invisible marginally while the third looks best. Returns
    (features 4x3, response, names).
    """
    features = np.array(
        [
            [1000.0, 1002.0, 0.0],
            [-1000.0, -999.0, -1.0],
            [-1000.0, -1001.0, 1.0],
            [1000.0, 998.0, 0.0],
        ]
    )
    response = np.array([-2.0, -1.0, 1.0, 2.0])
    return features, response, MILLER_NAMES


def suppressor_population(p: int, sigma_z: float, sigma_eps: float) -> np.ndarray:
    """Population correlation matrix of a construction that hides joint signal.

    The first p-1 features are independent signals plus shared-scale noise;
    the last feature carries the remaining signal minus the accumulated noise,
    and the response is the sum of all signals. Every feature keeps the same
    marginal correlation while any model smaller than p explains almost
    nothing once the noise dominates. Returns a (p+1) x (p+1) correlation
    matrix with the response first.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if sigma_z <= 0 or sigma_eps <= 0:
        raise ValueError("scales must be positive")
    vz = sigma_z**2
    ve = sigma_eps**2
    cov = np.zeros((p + 1, p + 1))
    cov[0, 0] = p * vz
    cov[0, 1:] = cov[1:, 0] = vz
    for i in range(1, p):
        cov[i, i] = vz + ve
        cov[i, p] = cov[p, i] = -ve
    cov[p, p] = vz + (p - 1) * ve
    d = np.sqrt(np.diag(cov))
    corr = cov / np.outer(d, d)
    if np.linalg.eigvalsh(corr)[0] < -PSD_TOL:
        raise NotPSD("suppressor population correlation is not PSD")
    return corr


def random_gaussian(
    n: int,
    m: int,
    correlation: np.ndarray | None = None,
    beta: Sequence[float] | None = None,
    sigma_noise: float = 1.0,
    seed: int = 0,
):
    """Draw raw (features, response) rows from a linear-Gaussian model.

    Rows are independent with the given feature correlation (identity when
    None); the response is the linear combination ``beta`` (default: first
    feature only) plus isotropic noise. The stream is fixed: a PCG64
    generator seeded with ``seed`` fills the n x m feature block row-major
    first, then the n noise draws, so outputs are reproducible run to run.
    """
    if m < 1 or n < m + 2:
        raise ValueError("need n >= m + 2 observations")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, m))
    noise = rng.standard_normal(n)
    if correlation is None:
        X = Z
    else:
        C = np.asarray(correlation, dtype=float)
        if C.shape != (m, m):
            raise ValueError("correlation must be m x m")
        w, V = np.linalg.eigh(C)
        if w[0] < -PSD_TOL:
            raise NotPSD(f"correlation has eigenvalue {w[0]:.3e}")
        X = Z @ (V * np.sqrt(np.clip(w, 0.0, None))).T
    if beta is None:
        b = np.zeros(m)
        b[0] = 1.0
    else:
        b = np.asarray(beta, dtype=float)
        if b.shape != (m,):
            raise ValueError("beta must have length m")
    y = X @ b + sigma_noise * noise
    return X, y


def write_csv(
    out,
    features: np.ndarray,
    response: np.ndarray,
    names: Sequence[str] | None = None,
    response_name: str = "Y",
) -> None:
    """Write a design to CSV (response first column, LF endings, full precision)."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(response, dtype=float)
    cols = tuple(names) if names is not None else default_names(X.shape[1])
    own = isinstance(out, (str, bytes)) or hasattr(out, "__fspath__")
    fh = open(out, "w", encoding="utf-8", newline="\n") if own else out
    try:
        fh.write(",".join((response_name,) + tuple(cols)) + "\n")
        for target, row in zip(y.tolist(), X):
            fh.write(",".join(map(repr, [target] + row.tolist())) + "\n")
    finally:
        if own:
            fh.close()

