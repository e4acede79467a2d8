"""Scalar reference implementation of the two-feature grid.

These are the original one-cell-at-a-time routines: the triangle and the
pair diagnostics in closed form on Python floats, the grid as a list of
GridCell rows, CSV rows formatted attribute by attribute, and SVG rects
colored cell by cell. The package evaluates the grid as numpy columns; the
differential tests require the two to agree bit for bit and byte for byte.
"""

from __future__ import annotations

import math

from r2audit.errors import InfeasibleAngles, InfeasibleCorrelations
from r2audit.geometry2d import (
    _BAND_STEPS,
    _DEFAULT_BAND,
    FEASIBILITY_TOL,
    GRID_COLUMNS,
    REFERENCE_R2,
    GridCell,
    PairDiagnostics,
    TrianglePoint,
)


def triangle_solve(theta, tau, r2_full):
    if not 0.0 < theta < math.pi:
        raise InfeasibleAngles(f"theta must lie in (0, pi), got {theta}")
    if not 0.0 < tau < math.pi - theta:
        raise InfeasibleAngles(f"tau must lie in (0, pi - theta), got {tau}")
    if not 0.0 < r2_full <= 1.0:
        raise InfeasibleAngles(f"r2_full must lie in (0, 1], got {r2_full}")
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
            ref = triangle_solve(theta, tau, REFERENCE_R2)
            diag = gamma_pair(ref.r_y1, ref.r_y2, ref.r12)
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
