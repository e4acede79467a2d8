"""The t-ratio experiment: the evidence for README's t-ratio caveat.

The grid reports the cap 2 / gamma_sr - 1 on the joint-to-marginal ratio of
squared t statistics. These functions realize a two-feature problem as data
and compare honest least-squares t statistics with that cap, and give the
largest joint t statistics the cap allows at a marginal level.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from grid_oracle import point_diagnostics
from r2audit.geometry2d import t_ratio_bound_from_gamma
from r2audit.regress import gram_factory, ls_fit

# t_ratio_empirical's observed ratio holds when it is at most the cap plus this.
T_RATIO_TOL = 1e-9


class TRatioResult(NamedTuple):
    """Observed joint-to-marginal squared-t ratio against the closed-form cap."""

    lhs: float
    bound: float
    holds: bool
    t_marginal_sq: tuple[float, float]
    t_joint_sq: tuple[float, float]


def t_ratio_empirical(point, n: int) -> TRatioResult:
    """Realize a triangle point as data and compare t statistics to the cap.

    Builds an exact-Gram sample of size n, fits each feature alone and both
    jointly, and forms (t_j1^2 + t_j2^2) / (t_m1^2 + t_m2^2). The reported
    bound is the scale-free cap 2 / gamma_sr - 1; the observed ratio can
    exceed it once the joint fit is strong, because the joint model's smaller
    residual variance inflates joint t statistics (see README notes).
    """
    if n < 4:
        raise ValueError("need n >= 4 for joint-fit degrees of freedom")
    gram = np.array(
        [
            [1.0, point.r_y1, point.r_y2],
            [point.r_y1, 1.0, point.r12],
            [point.r_y2, point.r12, 1.0],
        ]
    )
    design = gram_factory(gram, n)
    tm1 = float(ls_fit(design, (0,)).t_statistics[0])
    tm2 = float(ls_fit(design, (1,)).t_statistics[0])
    joint = ls_fit(design, (0, 1)).t_statistics
    tj1, tj2 = float(joint[0]), float(joint[1])
    lhs = (tj1 * tj1 + tj2 * tj2) / (tm1 * tm1 + tm2 * tm2)
    bound = t_ratio_bound_from_gamma(point_diagnostics(point).gamma_sr)
    return TRatioResult(
        lhs=lhs,
        bound=bound,
        holds=lhs <= bound + T_RATIO_TOL,
        t_marginal_sq=(tm1 * tm1, tm2 * tm2),
        t_joint_sq=(tj1 * tj1, tj2 * tj2),
    )


def joint_t_extremes(marginal_t: float, gamma_sr: float) -> tuple[float, float]:
    """Largest joint t statistics compatible with the cap at a marginal level.

    With both marginal t statistics at ``marginal_t``, the cap limits the sum
    of squared joint t statistics; the first value concentrates it all on one
    feature, the second splits it evenly.
    """
    total = t_ratio_bound_from_gamma(gamma_sr) * 2.0 * marginal_t * marginal_t
    return math.sqrt(total), math.sqrt(total / 2.0)
