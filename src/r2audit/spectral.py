"""Sparse minimum eigenvalues, the restricted eigenvalue over an l1 cone, and
their ordering against the submodularity ratio."""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple

import numpy as np

from . import regress
from .bitsets import combination_blocks
from .gamma import RatioQuery, submodularity_ratio
from .regress import DEFAULT_MAX_FEATURES, StandardizedDesign, _as_indices, _check_cap


def _check_alpha(alpha: float) -> None:
    """Refuse a cone constant below 1 or NaN."""
    if not alpha >= 1.0:
        raise ValueError("alpha must be at least 1")


def _symmetric(sigma_hat: np.ndarray) -> np.ndarray:
    """sigma_hat as a float array, refused unless square and symmetric."""
    S = np.asarray(sigma_hat, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("sigma_hat must be square")
    if np.abs(S - S.T).max() > 1e-8:
        raise ValueError("sigma_hat must be symmetric")
    return S


class ConeSpec:
    """l1 cone: coordinates off S carry at most alpha times the l1 mass on S.

    The subset is kept sorted and without repeats; alpha is at least 1 (+inf
    allowed, NaN refused). Attributes are read-only.
    """

    __slots__ = ("subset", "alpha")

    def __init__(self, subset: tuple[int, ...], alpha: float):
        if not subset:
            raise ValueError("cone subset must be nonempty")
        _check_alpha(alpha)
        object.__setattr__(self, "subset", tuple(sorted(set(subset))))
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.subset, self.alpha) == (other.subset, other.alpha)

    def __hash__(self) -> int:
        return hash((self.subset, self.alpha))

    def __repr__(self) -> str:
        return f"ConeSpec(subset={self.subset!r}, alpha={self.alpha!r})"


class SparseEigenResult(NamedTuple):
    value: float
    support: tuple[int, ...]


def sparse_min_eigenvalue(
    sigma_hat: np.ndarray,
    k: int,
    max_features: int = DEFAULT_MAX_FEATURES,
) -> SparseEigenResult:
    """Exact minimum eigenvalue over principal submatrices of size 1..k.

    Submatrices are solved in stacks of at most FIT_CHUNK per eigvalsh call;
    the support is the first strict minimum in combinations order.
    """
    S = _symmetric(sigma_hat)
    m = S.shape[0]
    _check_cap(m, max_features)
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in 1..{m}")
    best = math.inf
    witness: tuple[int, ...] = ()
    for size in range(1, k + 1):
        for idx in combination_blocks(m, size, regress.FIT_CHUNK):
            lams = np.linalg.eigvalsh(S[idx[:, :, None], idx[:, None, :]])[:, 0]
            at = int(lams.argmin())
            if lams[at] < best:
                best = float(lams[at])
                witness = tuple(idx[at].tolist())
    return SparseEigenResult(value=best, support=witness)


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of the given radius."""
    if radius <= 0.0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    cumulative = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(u) + 1) > cumulative - radius)[0][-1]
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _standard_normals(rng: random.Random, count: int) -> list[float]:
    """``count`` standard normal draws, each by Box-Muller from two values of
    ``rng.random()``, the one stream Python keeps the same across versions
    for a given seed."""
    return [
        math.sqrt(-2.0 * math.log(1.0 - rng.random())) * math.cos(2.0 * math.pi * rng.random())
        for _ in range(count)
    ]


class RestrictedEigenResult(NamedTuple):
    """Best value found for the cone-restricted quadratic; an upper bound on
    the true constant because the outer direction search is a heuristic."""

    value: float
    certificate: np.ndarray
    is_heuristic: bool = True


def restricted_eigenvalue(
    sigma_hat: np.ndarray,
    cone: ConeSpec,
    restarts: int = 8,
    iters: int = 2000,
    seed: int = 0,
    tol: float = 1e-10,
) -> RestrictedEigenResult:
    """Minimize beta' Sigma beta / ||beta_S||^2 over the cone, heuristically.

    The quotient is scale-free, so beta_S is normalized to the unit sphere.
    The outer loop tries deterministic candidates (the smallest eigenvector
    of the S block first) plus random directions drawn from the stdlib
    ``random.Random(seed)``, so numpy.random is never loaded; for each, the
    off-S coordinates solve a convex quadratic over the l1 ball by projected
    gradient descent with a fixed 1/L step. The returned certificate is
    feasible and reproduces the value.
    """
    S = _symmetric(sigma_hat)
    if restarts < 1:
        raise ValueError("need at least one restart")
    m = S.shape[0]
    idx_s = list(_as_indices(cone.subset, m))
    idx_c = [i for i in range(m) if i not in cone.subset]

    S_ss = S[np.ix_(idx_s, idx_s)]
    candidates = [np.linalg.eigh(S_ss)[1][:, 0]]
    rng = random.Random(seed)
    for _ in range(restarts - 1):
        v = np.array(_standard_normals(rng, len(idx_s)))
        candidates.append(v / np.linalg.norm(v))

    if not idx_c:
        # Nothing off the cone support; the minimum is the smallest eigenvalue
        # of the S block, reached at its eigenvector.
        best_vec = np.zeros(m)
        best_vec[idx_s] = candidates[0]
        value = float(best_vec @ S @ best_vec)
        return RestrictedEigenResult(value=value, certificate=best_vec)

    S_cc = S[np.ix_(idx_c, idx_c)]
    S_cs = S[np.ix_(idx_c, idx_s)]
    lipschitz = max(2.0 * float(np.linalg.eigvalsh(S_cc)[-1]), 1e-12)
    step = 1.0 / lipschitz

    best_value = math.inf
    best_beta = np.zeros(m)
    for beta_s in candidates:
        radius = cone.alpha * float(np.abs(beta_s).sum())
        b = S_cs @ beta_s
        z = np.zeros(len(idx_c))
        value = float(beta_s @ S_ss @ beta_s)
        for _ in range(iters):
            grad = 2.0 * (S_cc @ z + b)
            z_next = _project_l1_ball(z - step * grad, radius)
            next_value = float(
                beta_s @ S_ss @ beta_s + 2.0 * z_next @ b + z_next @ S_cc @ z_next
            )
            shift = abs(next_value - value)
            z = z_next
            value = next_value
            if shift <= tol:
                break
        if value < best_value:
            best_value = value
            best_beta = np.zeros(m)
            best_beta[idx_s] = beta_s
            best_beta[idx_c] = z
    return RestrictedEigenResult(value=best_value, certificate=best_beta)


class GammaSpectralComparison(NamedTuple):
    gamma_sr: float
    lambda_min: float
    holds: bool


def gamma_vs_spectral(
    design: StandardizedDesign,
    subset: Iterable[int],
    k: int,
    max_features: int = DEFAULT_MAX_FEATURES,
    tolerance: float = 1e-9,
) -> GammaSpectralComparison:
    """Check the ordering: submodularity ratio at (S, k) dominates the sparse
    minimum eigenvalue at size |S| + k."""
    query = RatioQuery(base=tuple(subset), k=k, mode="exactly_k")
    ratio = submodularity_ratio(design, query, max_features=max_features)
    size = min(len(query.base) + k, design.m)
    lam = sparse_min_eigenvalue(design.correlation_matrix(), size, max_features=max_features)
    return GammaSpectralComparison(
        gamma_sr=ratio.gamma_sr,
        lambda_min=lam.value,
        holds=ratio.gamma_sr >= lam.value - tolerance,
    )
