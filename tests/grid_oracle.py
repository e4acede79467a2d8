"""Scalar reference implementation of the two-feature grid.

These are the original one-cell-at-a-time routines: the triangle and the
pair diagnostics in closed form on Python floats, the grid as a list of
GridCell rows, CSV rows formatted attribute by attribute, and SVG rects
colored cell by cell. The package evaluates the grid as numpy columns; the
differential tests require the two to agree bit for bit and byte for byte.
The scalar forms and their records are also the tests' way to read one
two-feature problem.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from r2audit.errors import InfeasibleCorrelations
from r2audit.geometry2d import (
    _BAND_STEPS,
    _DEFAULT_BAND,
    FEASIBILITY_TOL,
    GRID_COLUMNS,
    REFERENCE_R2,
    GridCell,
    gamma_pair_columns,
)


class PairDiagnostics(NamedTuple):
    """Closed-form two-feature diagnostics from (r_y1, r_y2, r12), with the
    meanings of geometry2d.gamma_pair_columns' columns."""

    r_y1: float
    r_y2: float
    r12: float
    gamma1: float
    gamma2: float
    gamma_s2: float
    gamma_sr: float
    sum_bound: float


class TrianglePoint(NamedTuple):
    """One feasible two-feature regression problem.

    theta is the angle between the features (so r12 = cos theta), tau the
    interior angle at the first projection vertex, r2_full the joint fit, and
    b the side length between the two projection vertices.
    """

    theta: float
    tau: float
    r2_full: float
    r12: float
    r_y1: float
    r_y2: float
    b: float


def triangle_solve(theta, tau, r2_full):
    """Solve the triangle of feasible angles for the marginal correlations.

    By the law of sines on the (origin, projection 1, projection 2) triangle,
    the side to the second projection is b sin(tau) / sin(theta) and the side
    to the first is b sin(theta + tau) / sin(theta), with
    b = sqrt((1 - r12^2) r2_full).
    """
    r12 = math.cos(theta)
    b = math.sqrt((1.0 - r12 * r12) * r2_full)
    sin_theta = math.sin(theta)
    r_y1 = b * math.sin(theta + tau) / sin_theta
    r_y2 = b * math.sin(tau) / sin_theta
    return TrianglePoint(theta=theta, tau=tau, r2_full=r2_full, r12=r12, r_y1=r_y1, r_y2=r_y2, b=b)


def _conditional_gain(r_own, r_other, r12):
    residual = r_own - r12 * r_other
    return residual * residual / (1.0 - r12 * r12)


def gamma_pair(r_y1, r_y2, r12):
    """The closed-form pair diagnostics of one correlation triple."""
    if not (abs(r_y1) < 1.0 and abs(r_y2) < 1.0 and abs(r12) < 1.0):
        raise InfeasibleCorrelations("correlations must lie strictly inside (-1, 1)")
    det = 1.0 - r12 * r12
    joint = (r_y1 * r_y1 - 2.0 * r12 * r_y1 * r_y2 + r_y2 * r_y2) / det
    if joint > 1.0 + FEASIBILITY_TOL:
        raise InfeasibleCorrelations(f"implied joint fit {joint:.6f} exceeds 1")
    delta1 = r_y1 * r_y1
    delta2 = r_y2 * r_y2
    gain1 = _conditional_gain(r_y1, r_y2, r12)
    gain2 = _conditional_gain(r_y2, r_y1, r12)
    gamma1 = delta1 / gain1 if gain1 > 0.0 else math.inf
    gamma2 = delta2 / gain2 if gain2 > 0.0 else math.inf
    gamma_sr = (delta1 + delta2) / joint if joint > 0.0 else math.inf
    spread = gain1 + gain2
    sum_bound = (delta1 + delta2) / spread if spread > 0.0 else math.inf
    return PairDiagnostics(
        r_y1=r_y1,
        r_y2=r_y2,
        r12=r12,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma_s2=min(gamma1, gamma2),
        gamma_sr=gamma_sr,
        sum_bound=sum_bound,
    )


def pair_columns(r_y1, r_y2, r12):
    """The package's geometry2d.gamma_pair_columns on one correlation triple,
    as a PairDiagnostics record: how the tests read the package's closed
    forms for one problem."""
    columns = gamma_pair_columns(*(np.array([r], dtype=float) for r in (r_y1, r_y2, r12)))
    return PairDiagnostics(r_y1, r_y2, r12, *(float(col[0]) for col in columns))


def point_diagnostics(point):
    """Pair diagnostics of a triangle point at the reference fit level."""
    ref = triangle_solve(point.theta, point.tau, REFERENCE_R2)
    return gamma_pair(ref.r_y1, ref.r_y2, ref.r12)


def grid_evaluate(theta_steps, v_steps, r2_full=0.5):
    if theta_steps < 2 or v_steps < 2:
        raise ValueError("need at least 2 steps per axis")
    if not 0.0 < r2_full <= 1.0:
        raise ValueError("r2_full must lie in (0, 1]")
    cells = []
    for i in range(1, theta_steps):
        theta = math.pi * (i / theta_steps)
        for j in range(1, v_steps):
            v = math.pi * (j / v_steps)
            tau = v - theta / 2.0
            if not 0.0 < tau < math.pi - theta:
                continue
            point = triangle_solve(theta, tau, r2_full)
            diag = point_diagnostics(point)
            cells.append(
                GridCell(
                    theta=point.theta,
                    v=v,
                    tau=tau,
                    r12=point.r12,
                    r_y1=point.r_y1,
                    r_y2=point.r_y2,
                    b=point.b,
                    gamma1=diag.gamma1,
                    gamma2=diag.gamma2,
                    gamma_s2=diag.gamma_s2,
                    sum_bound=diag.sum_bound,
                    gamma_sr=diag.gamma_sr,
                    t_ratio_bound=2.0 / diag.gamma_sr - 1.0,
                )
            )
    return cells


def grid_csv_lines(cells):
    lines = [",".join(GRID_COLUMNS)]
    for cell in cells:
        lines.append(",".join(f"{getattr(cell, col):.12g}" for col in GRID_COLUMNS))
    return lines


def _band_color(value, step, top):
    bands = int(top / step)
    if not math.isfinite(value):
        value = top if value > 0 else 0.0
    idx = min(int(max(value, 0.0) / step), bands)
    frac = idx / bands
    r = int(round(40 + 215 * frac))
    g = int(round(60 + 40 * (1 - abs(2 * frac - 1))))
    b = int(round(255 - 215 * frac))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(cells, field, theta_steps, v_steps, cell_px=6):
    if field not in GRID_COLUMNS:
        raise ValueError(f"unknown field {field!r}")
    step, top = _BAND_STEPS.get(field, _DEFAULT_BAND)
    width = (theta_steps - 1) * cell_px
    height = (v_steps - 1) * cell_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#f0f0f0"/>',
    ]
    for cell in cells:
        col = int(round(cell.theta / math.pi * theta_steps)) - 1
        row = v_steps - 1 - int(round(cell.v / math.pi * v_steps))
        color = _band_color(getattr(cell, field), step, top)
        parts.append(
            f'<rect x="{col * cell_px}" y="{row * cell_px}" '
            f'width="{cell_px}" height="{cell_px}" fill="{color}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
