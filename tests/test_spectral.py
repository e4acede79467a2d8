import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r2audit import (
    ConeSpec,
    gamma_vs_spectral,
    restricted_eigenvalue,
    sparse_min_eigenvalue,
)
from r2audit import regress
from r2audit.errors import TooManyFeatures
from conftest import make_noisy_design, make_orthogonal_design, make_pair_design


def cone_membership_gap(beta, cone):
    """How far beta sits outside the cone (nonpositive means feasible)."""
    idx_c = [i for i in range(len(beta)) if i not in cone.subset]
    on = float(np.abs(beta[list(cone.subset)]).sum())
    off = float(np.abs(beta[idx_c]).sum()) if idx_c else 0.0
    return off - cone.alpha * on


def random_psd(seed, m=8):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m + 3))
    S = A @ A.T / (m + 3)
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


# ---------------------------------------------------------------------------
# sparse_min_eigenvalue
# ---------------------------------------------------------------------------


def test_sparse_identity():
    res = sparse_min_eigenvalue(np.eye(5), 3)
    assert res.value == 1.0


def test_sparse_two_by_two():
    S = np.array([[1.0, 0.5], [0.5, 1.0]])
    res = sparse_min_eigenvalue(S, 2)
    assert abs(res.value - 0.5) < 1e-12
    assert res.support == (0, 1)


def test_sparse_matches_rayleigh_descent_oracle():
    # Oracle: minimize the Rayleigh quotient over unit vectors with at most 3
    # nonzeros by projected gradient descent from many seeded starts (no
    # eigendecompositions involved).
    from itertools import combinations

    S = random_psd(77, m=8)
    rng = np.random.default_rng(5)
    best = math.inf
    for support in combinations(range(8), 3):
        block = S[np.ix_(support, support)]
        shift = 3.0  # larger than any eigenvalue of a correlation block
        for _ in range(20):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            for _ in range(400):
                x = (shift * np.eye(3) - block) @ x
                x /= np.linalg.norm(x)
            best = min(best, float(x @ block @ x))
    res = sparse_min_eigenvalue(S, 3)
    assert abs(res.value - best) < 1e-8


def test_sparse_nonincreasing_in_k():
    S = random_psd(3, m=7)
    values = [sparse_min_eigenvalue(S, k).value for k in range(1, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_sparse_cap():
    with pytest.raises(TooManyFeatures):
        sparse_min_eigenvalue(np.eye(8), 2, max_features=6)


def scalar_sparse_min_eigenvalue(S, k):
    """Reference: one eigvalsh per principal submatrix, first strict minimum."""
    from itertools import combinations

    best = math.inf
    witness = ()
    for size in range(1, k + 1):
        for combo in combinations(range(S.shape[0]), size):
            idx = list(combo)
            lam = float(np.linalg.eigvalsh(S[np.ix_(idx, idx)])[0])
            if lam < best:
                best = lam
                witness = combo
    return best, witness


def _repeated_blocks():
    # Three copies of one 2 x 2 block: many submatrices share an eigenvalue
    # bit for bit, so the witness is decided by the tie-break alone.
    return np.kron(np.eye(3), np.array([[1.0, 0.5], [0.5, 1.0]]))


def _duplicated_columns():
    d = make_noisy_design(31, n=20, m=4)
    X = d.features[:, [0, 1, 2, 0, 3, 1]]
    return X.T @ X


SPARSE_MATRICES = {
    "identity": lambda: np.eye(6),
    "repeated_blocks": _repeated_blocks,
    "duplicated_columns": _duplicated_columns,
    "random7": lambda: random_psd(3, m=7),
    "random8": lambda: random_psd(77, m=8),
}


@pytest.mark.parametrize("chunk", [2, 3, 256])
@pytest.mark.parametrize("name", list(SPARSE_MATRICES))
def test_sparse_matches_scalar_oracle(name, chunk, monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", chunk)
    S = SPARSE_MATRICES[name]()
    for k in range(1, S.shape[0] + 1):
        res = sparse_min_eigenvalue(S, k)
        assert (res.value, res.support) == scalar_sparse_min_eigenvalue(S, k)


def test_sparse_witness_is_first_of_tied_minima(monkeypatch):
    monkeypatch.setattr(regress, "FIT_CHUNK", 2)
    S = _repeated_blocks()
    assert sparse_min_eigenvalue(S, 2).support == (0, 1)


# ---------------------------------------------------------------------------
# restricted_eigenvalue
# ---------------------------------------------------------------------------


def test_restricted_identity_cone():
    res = restricted_eigenvalue(np.eye(4), ConeSpec((0, 1), 2.0))
    assert abs(res.value - 1.0) < 1e-10
    assert_allclose(res.certificate[2:], 0.0, atol=1e-10)
    assert res.is_heuristic


def test_restricted_two_by_two_exact():
    # With S = {0} and beta_0 = 1, the off-support coordinate solves a 1-D
    # quadratic over [-alpha, alpha]; a dense grid is the oracle.
    for rho, alpha in [(0.6, 1.0), (0.6, 2.0), (-0.8, 1.0), (0.3, 4.0)]:
        S = np.array([[1.0, rho], [rho, 1.0]])
        res = restricted_eigenvalue(S, ConeSpec((0,), alpha), restarts=4, iters=5000)
        z = np.linspace(-alpha, alpha, 400001)
        oracle = float((1.0 + 2.0 * z * rho + z * z).min())
        assert abs(res.value - oracle) < 1e-8


def test_restricted_nonincreasing_in_alpha():
    S = random_psd(11, m=5)
    values = [
        restricted_eigenvalue(S, ConeSpec((0, 2), alpha), restarts=6).value
        for alpha in (1.0, 2.0, 4.0)
    ]
    assert values[0] >= values[1] - 1e-8
    assert values[1] >= values[2] - 1e-8


def test_restricted_upper_bounded_by_block_eigenvalue():
    S = random_psd(19, m=6)
    cone = ConeSpec((1, 3, 4), 1.5)
    res = restricted_eigenvalue(S, cone)
    block = S[np.ix_(cone.subset, cone.subset)]
    assert res.value <= float(np.linalg.eigvalsh(block)[0]) + 1e-10


def test_restricted_certificate_feasible_and_reproduces():
    S = random_psd(23, m=5)
    cone = ConeSpec((0, 1), 2.0)
    res = restricted_eigenvalue(S, cone)
    beta = res.certificate
    assert cone_membership_gap(beta, cone) <= 1e-10
    norm_s = float(np.sum(beta[list(cone.subset)] ** 2))
    assert abs(norm_s - 1.0) < 1e-10
    assert abs(float(beta @ S @ beta) / norm_s - res.value) < 1e-10


def test_restricted_deterministic():
    S = random_psd(29, m=6)
    cone = ConeSpec((0, 2), 3.0)
    a = restricted_eigenvalue(S, cone, seed=1)
    b = restricted_eigenvalue(S, cone, seed=1)
    assert a.value == b.value
    assert_allclose(a.certificate, b.certificate, atol=0)


# ---------------------------------------------------------------------------
# gamma_vs_spectral
# ---------------------------------------------------------------------------


def test_ordering_orthogonal():
    d = make_orthogonal_design([0.5, 0.3, 0.2], n=8)
    res = gamma_vs_spectral(d, (), 2)
    assert abs(res.gamma_sr - 1.0) < 1e-10
    assert abs(res.lambda_min - 1.0) < 1e-10
    assert res.holds


def test_ordering_pair_instance():
    d = make_pair_design(0.5, 0.5, 0.5, n=8)
    res = gamma_vs_spectral(d, (), 2)
    assert abs(res.gamma_sr - 1.5) < 1e-9
    assert abs(res.lambda_min - 0.5) < 1e-9
    assert res.holds


def test_ordering_random_sweep():
    for seed in range(25):
        d = make_noisy_design(seed + 500, n=40, m=8)
        assert gamma_vs_spectral(d, (), 2).holds
        assert gamma_vs_spectral(d, (0,), 2).holds
