"""Two-feature feasibility geometry: the angle parameterization, diagnostic
grids, and the t-statistic ratio against its closed-form cap.

A two-feature problem is a triangle: the response projected on each feature
gives two vertices, the origin the third. The angle between the features
fixes their correlation, the angle at the first projection fixes relative
predictive power, and the overall fit level only scales the triangle. All
gain ratios are scale-free, so grids at different fit levels carry identical
diagnostic columns. A grid is evaluated column by column, as numpy arrays,
for a block of theta lines at a time; each value equals the scalar
triangle_solve and gamma_pair result bit for bit. A block renders to its
part of the CSV text and of each heatmap document, formats each distinct
value of a grid-line column once, and lays out its heatmap cells once for
every heatmap; the blocks' text, joined in order, is byte-identical to
formatting and drawing every cell of the whole grid on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from itertools import starmap
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleAngles
from .gamma import PairDiagnostics, gamma_pair, gamma_pair_columns
from .regress import gram_factory, ls_fit

# Diagnostics are evaluated at this fixed fit level. They are mathematically
# invariant to it, and pinning one value makes grids at different requested
# levels agree bit for bit, including near-singular cells.
REFERENCE_R2 = 0.25

GRID_COLUMNS = (
    "theta",
    "v",
    "tau",
    "r12",
    "r_y1",
    "r_y2",
    "b",
    "gamma1",
    "gamma2",
    "gamma_s2",
    "sum_bound",
    "gamma_sr",
    "t_ratio_bound",
)


@dataclass(frozen=True)
class TrianglePoint:
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


@dataclass(frozen=True)
class GridCell:
    theta: float
    v: float
    tau: float
    r12: float
    r_y1: float
    r_y2: float
    b: float
    gamma1: float
    gamma2: float
    gamma_s2: float
    sum_bound: float
    gamma_sr: float
    t_ratio_bound: float


def _elementwise(fn, values: np.ndarray) -> np.ndarray:
    """Apply a math-module function to every element. The platform libm gives
    the same bits in the array and the scalar paths; numpy's own ufuncs may
    not on every CPU."""
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)


def _law_of_sines(
    r12: np.ndarray, sin_theta: np.ndarray, theta: np.ndarray, tau: np.ndarray, r2_levels: Sequence[float]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per fit level, the columns (b, r_y1, r_y2) of feasible angles, given
    r12 = cos(theta) and sin(theta).

    The angles fix the triangle's shape, so the sines are taken once and the
    fit level only sets the scale b = sqrt((1 - r12^2) r2_full).
    """
    sin_first = _elementwise(math.sin, theta + tau)
    sin_second = _elementwise(math.sin, tau)
    sides = []
    for r2_full in r2_levels:
        b = np.sqrt((1.0 - r12 * r12) * r2_full)
        sides.append((b, b * sin_first / sin_theta, b * sin_second / sin_theta))
    return sides


def triangle_solve(theta: float, tau: float, r2_full: float) -> TrianglePoint:
    """Solve the triangle for the marginal correlations.

    By the law of sines on the (origin, projection 1, projection 2) triangle,
    the side to the second projection is b sin(tau) / sin(theta) and the side
    to the first is b sin(theta + tau) / sin(theta), with
    b = sqrt((1 - r12^2) r2_full).
    """
    if not 0.0 < theta < math.pi:
        raise InfeasibleAngles(f"theta must lie in (0, pi), got {theta}")
    if not 0.0 < tau < math.pi - theta:
        raise InfeasibleAngles(f"tau must lie in (0, pi - theta), got {tau}")
    if not 0.0 < r2_full <= 1.0:
        raise InfeasibleAngles(f"r2_full must lie in (0, 1], got {r2_full}")
    r12 = math.cos(theta)
    [(b, r_y1, r_y2)] = _law_of_sines(
        np.array([r12]), np.array([math.sin(theta)]), np.array([theta]), np.array([tau]), (r2_full,)
    )
    return TrianglePoint(
        theta=theta,
        tau=tau,
        r2_full=r2_full,
        r12=r12,
        r_y1=float(r_y1[0]),
        r_y2=float(r_y2[0]),
        b=float(b[0]),
    )


def t_ratio_bound_from_gamma(gamma_sr):
    """Cap on the joint-to-marginal squared t ratio implied by the
    submodularity ratio; positive because gamma_sr never exceeds 2. Takes a
    float or an array."""
    return 2.0 / gamma_sr - 1.0


@dataclass(frozen=True, eq=False)
class Grid:
    """The feasible cells of a block of theta lines of a (theta, v) grid,
    stored by column.

    ``columns`` maps every name in GRID_COLUMNS to a float64 array with one
    entry per cell, row-major with theta outer. ``theta_rows`` is the range
    of 0-based theta lines the block holds; a whole grid of theta_steps
    holds range(theta_steps - 1). Iterating yields the cells as GridCell rows.
    """

    columns: dict[str, np.ndarray]
    theta_rows: range
    # The rect text of every cell, by (theta_steps, v_steps, cell_px): laid
    # out by the first heatmap and shared by the rest.
    _svg_layouts: dict = dataclasses.field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return self.columns["theta"].size

    def __iter__(self) -> Iterator[GridCell]:
        return starmap(GridCell, zip(*(self.columns[col].tolist() for col in GRID_COLUMNS)))


def check_grid(theta_steps: int, v_steps: int, r2_full: float) -> None:
    """Raise ValueError unless the arguments describe a grid grid_evaluate can
    evaluate."""
    if theta_steps < 2 or v_steps < 2:
        raise ValueError("need at least 2 steps per axis")
    if not 0.0 < r2_full <= 1.0:
        raise ValueError("r2_full must lie in (0, 1]")


def grid_evaluate(theta_steps: int, v_steps: int, r2_full: float = 0.5, theta_rows: range | None = None) -> Grid:
    """Diagnostics over a uniform (theta, v) grid with v = tau + theta / 2.

    Grid lines are at multiples of pi / steps with the open-interval
    endpoints dropped; infeasible cells (tau outside (0, pi - theta)) are
    omitted entirely. Only the theta lines in ``theta_rows``, a range of
    0-based line indices, are evaluated; the default is every line. Cells are
    produced row-major, theta outer. The diagnostic ratios are evaluated at a
    fixed reference fit level, so only the geometry columns (r_y1, r_y2, b)
    depend on ``r2_full``. Every column is computed as one array, with the
    operations of triangle_solve and gamma_pair in the same order, so each
    value equals theirs bit for bit; cos(theta) and sin(theta) are taken once
    per theta line.
    """
    check_grid(theta_steps, v_steps, r2_full)
    if theta_rows is None:
        theta_rows = range(theta_steps - 1)
    elif not (theta_rows.step == 1 and 0 <= theta_rows.start <= theta_rows.stop <= theta_steps - 1):
        raise ValueError(f"theta_rows must be a range of consecutive lines within 0..{theta_steps - 2}")
    # The ratio first: dyadic fractions like 1/2 stay exact, so an even grid
    # contains the orthogonal column at exactly pi/2.
    theta_axis = np.array([math.pi * ((i + 1) / theta_steps) for i in theta_rows])
    v_axis = np.array([math.pi * (j / v_steps) for j in range(1, v_steps)])
    theta = np.repeat(theta_axis, v_axis.size)
    v = np.tile(v_axis, theta_axis.size)
    tau = v - theta / 2.0
    feasible = (0.0 < tau) & (tau < math.pi - theta)
    theta, v, tau = theta[feasible], v[feasible], tau[feasible]
    per_line = np.count_nonzero(feasible.reshape(theta_axis.size, v_axis.size), axis=1)
    r12 = np.repeat(_elementwise(math.cos, theta_axis), per_line)
    sin_theta = np.repeat(_elementwise(math.sin, theta_axis), per_line)
    [(b, r_y1, r_y2), (_, ref_y1, ref_y2)] = _law_of_sines(r12, sin_theta, theta, tau, (r2_full, REFERENCE_R2))
    gamma1, gamma2, gamma_s2, gamma_sr, sum_bound = gamma_pair_columns(ref_y1, ref_y2, r12)
    values = (
        theta, v, tau, r12, r_y1, r_y2, b, gamma1, gamma2, gamma_s2, sum_bound, gamma_sr,
        t_ratio_bound_from_gamma(gamma_sr),
    )
    return Grid(dict(zip(GRID_COLUMNS, values)), theta_rows)


def theta_line_blocks(theta_steps: int, v_steps: int, cells: int) -> Iterator[range]:
    """Consecutive ranges of 0-based theta lines covering the grid, each
    holding about ``cells`` feasible cells, and at least one line.

    Line i has about (v_steps - 1)(1 - (i + 1) / theta_steps) feasible
    points, the share of the v axis inside (theta / 2, pi - theta / 2), so a
    block near theta = 0 holds fewer lines than one near theta = pi.
    """
    start, held = 0, 0.0
    for line in range(theta_steps - 1):
        held += (v_steps - 1) * (1.0 - (line + 1) / theta_steps)
        if held >= cells:
            yield range(start, line + 1)
            start, held = line + 1, 0.0
    if start < theta_steps - 1:
        yield range(start, theta_steps - 1)


# Columns with few distinct values: theta, v and r12 are constant along grid
# lines, tau = v - theta / 2 along diagonals, and b / sin(theta) is nearly
# constant, so r_y1 and r_y2 repeat with tau. The gamma columns hardly repeat.
_FEW_VALUED = frozenset({"theta", "v", "tau", "r12", "r_y1", "r_y2", "b"})
_CSV_ROW = ",".join("%s" if col in _FEW_VALUED else "%.12g" for col in GRID_COLUMNS)


def _distinct_texts(values: np.ndarray) -> list[str]:
    """'%.12g' of every value, each distinct bit pattern formatted once.

    Keyed on bits, not on values: 0.0 and -0.0 compare equal but print as
    "0" and "-0", and NaN equals nothing.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(["%.12g" % x for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def grid_csv_lines(cells: Grid) -> list[str]:
    """CSV lines (12 significant digits, no line endings) of the cells, led
    by the header line when the block starts at theta line 0. Joined with LF
    endings, the lines of consecutive blocks make one CSV text."""
    columns = []
    for col in GRID_COLUMNS:
        values = cells.columns[col]
        columns.append(_distinct_texts(values) if col in _FEW_VALUED else values.tolist())
    lines = [_CSV_ROW % values for values in zip(*columns)]
    if cells.theta_rows.start == 0:
        lines.insert(0, ",".join(GRID_COLUMNS))
    return lines


def point_diagnostics(point: TrianglePoint) -> PairDiagnostics:
    """Pair diagnostics of a triangle point at the reference fit level."""
    ref = triangle_solve(point.theta, point.tau, REFERENCE_R2)
    return gamma_pair(ref.r_y1, ref.r_y2, ref.r12)


@dataclass(frozen=True)
class TRatioResult:
    """Observed joint-to-marginal squared-t ratio against the closed-form cap."""

    lhs: float
    bound: float
    holds: bool
    t_marginal_sq: tuple[float, float]
    t_joint_sq: tuple[float, float]


def t_ratio_empirical(point: TrianglePoint, n: int, tolerance: float = 1e-9) -> TRatioResult:
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
        holds=lhs <= bound + tolerance,
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


# ---------------------------------------------------------------------------
# SVG heatmaps
# ---------------------------------------------------------------------------

_BAND_STEPS = {"t_ratio_bound": (0.5, 10.0)}
_DEFAULT_BAND = (0.2, 2.0)


def _band_indices(values: np.ndarray, step: float, top: float) -> np.ndarray:
    """Band of each value: floor(value / step) clamped to [0, top / step];
    +inf lands in the top band, -inf and NaN in band 0."""
    values = np.where(np.isfinite(values), values, np.where(values > 0, top, 0.0))
    # Clamp before the cast: a huge value would overflow the integer type.
    return np.minimum(np.maximum(values, 0.0) / step, int(top / step)).astype(np.intp)


def _palette(bands: int) -> list[str]:
    """Colors of bands 0..bands on a linear blue-to-red ramp."""
    colors = []
    for idx in range(bands + 1):
        frac = idx / bands
        r = int(round(40 + 215 * frac))
        g = int(round(60 + 40 * (1 - abs(2 * frac - 1))))
        b = int(round(255 - 215 * frac))
        colors.append(f"#{r:02x}{g:02x}{b:02x}")
    return colors


# The end of a rect's text, from its fill color, by band (step, top).
_FILLS = {
    band: tuple(f'{color}"/>' for color in _palette(int(band[1] / band[0])))
    for band in (*_BAND_STEPS.values(), _DEFAULT_BAND)
}


@functools.lru_cache(maxsize=4)
def _rect_texts(theta_steps: int, v_steps: int, cell_px: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Each grid column's and grid row's part of a rect's text, formatted once
    per grid shape and cell size, so the blocks of one grid share them."""
    xs = tuple(f'\n<rect x="{col * cell_px}" y="' for col in range(theta_steps - 1))
    ys = tuple(f'{row * cell_px}" width="{cell_px}" height="{cell_px}" fill="' for row in range(v_steps - 1))
    return xs, ys


def _svg_layout(cells: Grid, theta_steps: int, v_steps: int, cell_px: int) -> list[str]:
    """Text of every cell's rect up to its fill color, from the line break
    before it; built once per block and cell size."""
    key = (theta_steps, v_steps, cell_px)
    layout = cells._svg_layouts.get(key)
    if layout is None:
        cols = np.rint(cells.columns["theta"] / math.pi * theta_steps).astype(np.intp) - 1
        rows = v_steps - 1 - np.rint(cells.columns["v"] / math.pi * v_steps).astype(np.intp)
        xs, ys = _rect_texts(theta_steps, v_steps, cell_px)
        layout = [xs[c] + ys[r] for c, r in zip(cols.tolist(), rows.tolist())]
        cells._svg_layouts[key] = layout
    return layout


def svg_heatmap(
    cells: Grid,
    field: str,
    theta_steps: int,
    v_steps: int,
    cell_px: int = 6,
) -> str:
    """Banded heatmap of one diagnostic column over the feasible region.

    Colors step at fixed level-set thresholds (0.2 apart for gain ratios,
    0.5 apart for the t-ratio cap) on a linear blue-to-red ramp. A whole grid
    gives a deterministic standalone SVG document. A block gives its part:
    the block at theta line 0 opens the document, the block ending at line
    theta_steps - 2 closes it, and the parts of consecutive blocks join into
    the whole grid's document.
    """
    if field not in GRID_COLUMNS:
        raise ValueError(f"unknown field {field!r}")
    band = _BAND_STEPS.get(field, _DEFAULT_BAND)
    layout = _svg_layout(cells, theta_steps, v_steps, cell_px)
    parts = [""] * (2 * len(layout) + 2)
    if cells.theta_rows.start == 0:
        width = (theta_steps - 1) * cell_px
        height = (v_steps - 1) * cell_px
        parts[0] = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="#f0f0f0"/>'
        )
    parts[1:-1:2] = layout
    parts[2:-1:2] = map(_FILLS[band].__getitem__, _band_indices(cells.columns[field], *band).tolist())
    if cells.theta_rows.stop == theta_steps - 1:
        parts[-1] = "\n</svg>\n"
    return "".join(parts)
