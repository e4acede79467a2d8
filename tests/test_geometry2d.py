import math

import numpy as np
import pytest

from r2audit import grid_evaluate
from r2audit.geometry2d import (
    GRID_COLUMNS,
    grid_csv_text,
    svg_heatmap,
    t_ratio_bound_from_gamma,
)
from grid_oracle import point_diagnostics, triangle_solve
from t_ratio import joint_t_extremes, t_ratio_empirical


# ---------------------------------------------------------------------------
# triangle_solve (the grid oracle's; the grid's columns equal it bit for bit)
# ---------------------------------------------------------------------------


def test_triangle_orthogonal_symmetric_case():
    pt = triangle_solve(math.pi / 2, math.pi / 4, 0.5)
    assert abs(pt.r12) < 1e-12
    assert abs(pt.r_y1 - 0.5) < 1e-12
    assert abs(pt.r_y2 - 0.5) < 1e-12
    assert abs(pt.r_y1**2 + pt.r_y2**2 - 0.5) < 1e-12


def test_triangle_isosceles_line():
    for theta in (0.3, 1.0, math.pi / 2, 2.5):
        pt = triangle_solve(theta, (math.pi - theta) / 2, 0.7)
        assert abs(pt.r_y1 - pt.r_y2) < 1e-12


def test_triangle_law_of_cosines():
    rng = np.random.default_rng(3)
    for _ in range(200):
        theta = rng.uniform(0.05, math.pi - 0.05)
        tau = rng.uniform(0.02, math.pi - theta - 0.02)
        r2_full = rng.uniform(0.05, 1.0)
        pt = triangle_solve(theta, tau, r2_full)
        lhs = pt.r_y1**2 + pt.r_y2**2 - 2 * pt.r_y1 * pt.r_y2 * pt.r12
        assert abs(lhs - pt.b**2) < 1e-12
        assert abs(pt.b - math.sqrt((1 - pt.r12**2) * r2_full)) < 1e-12
        # the implied joint fit recovers r2_full
        joint = lhs / (1 - pt.r12**2)
        assert abs(joint - r2_full) < 1e-10


def test_triangle_feasibility_boundary():
    # The grid keeps a cell only strictly inside the feasible angles. At
    # theta = pi/2 a 4-step v axis puts tau at exactly 0, pi/4 and
    # pi/2 = pi - theta, and only pi/4 stays.
    grid = grid_evaluate(2, 4, 0.5)
    assert grid.columns["theta"].tolist() == [math.pi / 2]
    assert grid.columns["tau"].tolist() == [math.pi / 4]
    for r2_full in (0.0, 1.1, math.nan):
        with pytest.raises(ValueError, match=r"r2_full must lie in \(0, 1\]"):
            grid_evaluate(2, 4, r2_full)
    # the whole fit is a feasible level
    assert len(grid_evaluate(2, 4, 1.0)) == 1


# ---------------------------------------------------------------------------
# grid_evaluate
# ---------------------------------------------------------------------------


def test_grid_orthogonal_column():
    cells = grid_evaluate(100, 100, 0.5)
    mid = [c for c in cells if c.theta == math.pi / 2]
    assert len(mid) > 0
    for c in mid:
        assert abs(c.gamma_sr - 1.0) < 1e-10
        assert abs(c.t_ratio_bound - 1.0) < 1e-10


def test_grid_sign_rule():
    cells = grid_evaluate(60, 60, 0.5)
    for c in cells:
        if c.gamma_s2 >= 1.0:
            assert c.r12 > 0.0


def test_grid_r2_invariance():
    grids = [grid_evaluate(50, 50, rf) for rf in (0.3, 0.5, 0.9)]
    gamma_cols = ("gamma1", "gamma2", "gamma_s2", "sum_bound", "gamma_sr", "t_ratio_bound")
    for cells in grids[1:]:
        assert len(cells) == len(grids[0])
        for a, b in zip(grids[0], cells):
            for col in gamma_cols:
                assert abs(getattr(a, col) - getattr(b, col)) <= 1e-10 or getattr(
                    a, col
                ) == getattr(b, col)


def test_grid_cells_feasible_and_ordered():
    cells = grid_evaluate(20, 20, 0.5)
    for c in cells:
        assert 0.0 < c.tau < math.pi - c.theta
        assert abs(c.v - (c.tau + c.theta / 2)) < 1e-12
        assert c.t_ratio_bound > 0.0
    keys = [(c.theta, c.v) for c in cells]
    assert keys == sorted(keys)


def test_grid_csv_shape():
    cells = grid_evaluate(12, 12, 0.5)
    text = grid_csv_text(cells).decode("ascii")
    assert text.endswith("\n") and "\r" not in text
    lines = text[:-1].split("\n")
    assert lines[0] == ",".join(GRID_COLUMNS)
    assert len(lines) == len(cells) + 1
    assert all(len(line.split(",")) == len(GRID_COLUMNS) for line in lines)


def test_grid_ratio_dominances():
    # Wherever the single-step constant is at most 1, the ratio form and the
    # summed form both dominate it.
    cells = grid_evaluate(50, 50, 0.5)
    for c in cells:
        if c.gamma_s2 <= 1.0:
            assert c.gamma_sr >= c.gamma_s2 - 1e-10
        assert c.sum_bound >= c.gamma_s2 - 1e-10


def test_bound_identity_against_middle_expression():
    # The cap equals the direct evaluation of
    # 1 + 2 (1 - g)(r1^2 - 2 r12 r1 r2 + r2^2) / ((1 - r12^2)(r1^2 + r2^2)).
    cells = grid_evaluate(30, 30, 0.5)
    for c in cells:
        spread = c.r_y1**2 - 2 * c.r12 * c.r_y1 * c.r_y2 + c.r_y2**2
        middle = 1 + 2 * (1 - c.gamma_sr) * spread / ((1 - c.r12**2) * (c.r_y1**2 + c.r_y2**2))
        assert abs(c.t_ratio_bound - middle) < 1e-10


def test_svg_heatmap_renders():
    cells = grid_evaluate(10, 10, 0.5)
    (doc,) = svg_heatmap(cells, ["gamma_sr"], 10, 10)
    assert doc.startswith(b"<svg")
    assert doc.count(b"<rect") == len(cells) + 1
    with pytest.raises(ValueError):
        svg_heatmap(cells, ["gamma_sr", "nope"], 10, 10)


# ---------------------------------------------------------------------------
# t-ratio
# ---------------------------------------------------------------------------


def test_t_bound_at_gamma_point_eight():
    assert abs(t_ratio_bound_from_gamma(0.8) - 1.5) < 1e-12
    # an isosceles point engineered to sit at gamma_sr = 0.8
    theta = math.acos(-0.2)
    pt = triangle_solve(theta, (math.pi - theta) / 2, 0.5)
    diag = point_diagnostics(pt)
    assert abs(diag.gamma_sr - 0.8) < 1e-12
    assert abs(t_ratio_bound_from_gamma(diag.gamma_sr) - 1.5) < 1e-9


def test_joint_t_extremes_reproduce_reported_values():
    concentrated, split = joint_t_extremes(2.0, 0.8)
    assert abs(concentrated - 3.46) < 0.01
    assert abs(split - 2.44) < 0.01


def test_t_ratio_orthogonal_small_n_holds():
    pt = triangle_solve(math.pi / 2, math.pi / 4, 0.5)
    res = t_ratio_empirical(pt, 4)
    assert abs(res.bound - 1.0) < 1e-10
    assert res.lhs <= 1.0 + 1e-9


def test_t_ratio_weak_signal_grid_holds():
    # In the weak-signal regime the joint fit barely shrinks the residual, so
    # the scale-free cap applies to honest least-squares t statistics.
    cells = grid_evaluate(12, 12, 0.05)
    for c in cells:
        pt = triangle_solve(c.theta, c.tau, 0.05)
        res = t_ratio_empirical(pt, 20)
        assert res.holds, (c.theta, c.tau, res.lhs, res.bound)


def test_t_ratio_strong_signal_exceeds_cap():
    # Known limitation: once the joint fit is strong, the joint model's
    # smaller residual variance inflates joint t statistics beyond the
    # scale-free cap. The orthogonal point at half explained variance shows
    # the effect exactly: lhs = 1.5 (n-3)/(n-2) > 1 for n >= 6.
    pt = triangle_solve(math.pi / 2, math.pi / 4, 0.5)
    res = t_ratio_empirical(pt, 20)
    assert abs(res.bound - 1.0) < 1e-10
    assert abs(res.lhs - 1.5 * 17 / 18) < 1e-9
    assert not res.holds


def test_t_ratio_requires_sample_size():
    pt = triangle_solve(1.2, 0.4, 0.3)
    with pytest.raises(ValueError):
        t_ratio_empirical(pt, 3)
