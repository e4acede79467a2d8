"""Two-feature feasibility geometry: the closed-form pair diagnostics, the
angle parameterization, diagnostic grids, and the cap on the t-statistic
ratio.

A two-feature problem is a triangle: the response projected on each feature
gives two vertices, the origin the third. The angle between the features
fixes their correlation, the angle at the first projection fixes relative
predictive power, and the overall fit level only scales the triangle. All
gain ratios are scale-free, so grids at different fit levels carry identical
diagnostic columns. A grid is evaluated column by column, as numpy arrays,
for a block of theta lines at a time; each value equals the one-cell
closed forms on Python floats bit for bit. A range of a block's
cells renders to its part of the CSV text and of each heatmap document, as
ASCII bytes. The CSV text of a range is formatted in one columnar pass that
writes what '%.12g' writes, falling back to '%.12g' itself for the values
it cannot certify. A block builds one rect template for all six heatmaps,
every cell's rect with a placeholder fill, whatever ranges it renders in;
each heatmap writes only its cells' six hex color digits into it. The
parts, joined in order, are byte-identical to formatting and drawing every
cell of the whole grid on its own.
"""

from __future__ import annotations

import math
from itertools import starmap
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleCorrelations

# Diagnostics are evaluated at this fixed fit level. They are mathematically
# invariant to it, and pinning one value makes grids at different requested
# levels agree bit for bit, including near-singular cells.
REFERENCE_R2 = 0.25

# A correlation triple is infeasible once its implied joint fit exceeds 1 by
# more than this.
FEASIBILITY_TOL = 1e-12


class GridCell(NamedTuple):
    """One cell of a grid; its fields are the grid's CSV columns, in order."""

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


GRID_COLUMNS = GridCell._fields


def _conditional_gain(r_own, r_other, r12):
    """Fit gain of one feature once the other is already in the model."""
    residual = r_own - r12 * r_other
    return residual * residual / (1.0 - r12 * r12)


def gamma_pair_columns(
    r_y1: np.ndarray, r_y2: np.ndarray, r12: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form pair diagnostics for arrays of correlation triples.

    Returns (gamma1, gamma2, gamma_s2, gamma_sr, sum_bound), one float64 array
    each: gamma1 and gamma2 are the single-step gain ratios for each feature,
    gamma_s2 their minimum, gamma_sr the two-feature submodularity ratio, and
    sum_bound the ratio obtained by summing both single-step inequalities
    (always at least gamma_s2 on feasible inputs). Ratios whose denominator
    vanishes are +inf sentinels. Raises InfeasibleCorrelations if any triple
    is infeasible.
    """
    if not ((np.abs(r_y1) < 1.0) & (np.abs(r_y2) < 1.0) & (np.abs(r12) < 1.0)).all():
        raise InfeasibleCorrelations("correlations must lie strictly inside (-1, 1)")
    det = 1.0 - r12 * r12
    joint = (r_y1 * r_y1 - 2.0 * r12 * r_y1 * r_y2 + r_y2 * r_y2) / det
    over = joint > 1.0 + FEASIBILITY_TOL
    if over.any():
        raise InfeasibleCorrelations(f"implied joint fit {joint[over][0]:.6f} exceeds 1")

    delta1 = r_y1 * r_y1
    delta2 = r_y2 * r_y2
    gain1 = _conditional_gain(r_y1, r_y2, r12)
    gain2 = _conditional_gain(r_y2, r_y1, r12)
    # gain1 + gain2 equals 2 * joint - delta1 - delta2 but without the
    # cancellation, so the symmetric-case identity sum_bound = gamma_s2 is
    # exact in floating point as well.
    spread = gain1 + gain2
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma1 = np.where(gain1 > 0.0, delta1 / gain1, math.inf)
        gamma2 = np.where(gain2 > 0.0, delta2 / gain2, math.inf)
        gamma_sr = np.where(joint > 0.0, (delta1 + delta2) / joint, math.inf)
        sum_bound = np.where(spread > 0.0, (delta1 + delta2) / spread, math.inf)
    gamma_s2 = np.where(gamma2 < gamma1, gamma2, gamma1)
    return gamma1, gamma2, gamma_s2, gamma_sr, sum_bound


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


def t_ratio_bound_from_gamma(gamma_sr):
    """Cap on the joint-to-marginal squared t ratio implied by the
    submodularity ratio; positive because gamma_sr never exceeds 2. Takes a
    float or an array."""
    return 2.0 / gamma_sr - 1.0


class Grid:
    """The feasible cells of a block of theta lines of a (theta, v) grid,
    stored by column.

    ``columns`` maps every name in GRID_COLUMNS to a float64 array with one
    entry per cell, row-major with theta outer. ``theta_rows`` is the range
    of 0-based theta lines the block holds; a whole grid of theta_steps
    holds range(theta_steps - 1). Iterating yields the cells as GridCell rows.
    Attributes are read-only; two grids are equal only if they are the same
    object.
    """

    __slots__ = ("columns", "theta_rows", "_csv_work", "_svg_templates", "_svg_fills")

    def __init__(self, columns: dict[str, np.ndarray], theta_rows: range):
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "theta_rows", theta_rows)
        # Built by the first render call that needs them and shared by the
        # rest: the CSV kernel's work arrays; the rect template of every
        # cell, by (theta_steps, v_steps, cell_px); and the six hex digits
        # of every cell's fill color, by field.
        object.__setattr__(self, "_csv_work", None)
        object.__setattr__(self, "_svg_templates", {})
        object.__setattr__(self, "_svg_fills", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Grid(columns={self.columns!r}, theta_rows={self.theta_rows!r})"

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
    operations of the one-cell closed forms in the same order, so each value
    equals theirs bit for bit; cos(theta) and sin(theta) are taken once per
    theta line.
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


def estimated_cells(theta_steps: int, v_steps: int, theta_rows: range) -> float:
    """About how many feasible cells the theta lines in ``theta_rows`` hold.

    Line i has about (v_steps - 1)(1 - (i + 1) / theta_steps) feasible
    points, the share of the v axis inside (theta / 2, pi - theta / 2).
    """
    return sum((v_steps - 1) * (1.0 - (line + 1) / theta_steps) for line in theta_rows)


def theta_line_blocks(theta_steps: int, v_steps: int, cells: int) -> Iterator[range]:
    """Consecutive ranges of 0-based theta lines covering the grid, each
    holding about ``cells`` feasible cells by ``estimated_cells``, and at
    least one line; a block near theta = 0 holds fewer lines than one near
    theta = pi.
    """
    start, held = 0, 0.0
    for line in range(theta_steps - 1):
        held += estimated_cells(theta_steps, v_steps, range(line, line + 1))
        if held >= cells:
            yield range(start, line + 1)
            start, held = line + 1, 0.0
    if start < theta_steps - 1:
        yield range(start, theta_steps - 1)


def _cell_bounds(cells: Grid, cell_range: range | None) -> tuple[int, int]:
    """(start, stop) of a range of consecutive cells of the block; the
    default is every cell."""
    if cell_range is None:
        return 0, len(cells)
    if not (cell_range.step == 1 and 0 <= cell_range.start <= cell_range.stop <= len(cells)):
        raise ValueError(f"cell_range must be a range of consecutive cells within 0..{len(cells)}")
    return cell_range.start, cell_range.stop


# ---------------------------------------------------------------------------
# CSV text: '%.12g' of a chunk's values in one columnar pass
# ---------------------------------------------------------------------------
#
# Each value becomes one 32-byte record of four little-endian uint64 words
# ("<u8", whatever the platform's order), zero bytes where it has no
# character: the sign and any "0.000" prefix, the significant digits with
# their point, the "e+XX" suffix, and the separator in the last byte.
# Deleting the zero bytes of the records joins them into the text.
#
# A value x with decimal exponent e = floor(log10|x|) has the 12-digit
# significand D = rint(p), p = |x| * 10^(11 - e), the power of ten
# correctly rounded. p carries two roundings, so it lies within 2.3e-4 of
# the exact product while p < 1e12. D is then the correctly rounded
# significand whenever |p - D| < 0.499, and no rounding carries into
# another decade while p >= 1e11 + 1 and D <= 1e12 - 2. Every other value
# (zeros, infinities, NaN, subnormals and exponents beyond the table, the
# tie band and the decade edges) is formatted by '%.12g' itself.

_E_MIN, _E_MAX = -308, 308
_EXPONENTS = range(_E_MIN, _E_MAX + 1)

# By e - _E_MIN: 10^(11 - e); the record of a value before its sign,
# significand and separator go in: a byte left for the sign, the "0." and
# zeros that lead a value below 1e-1 in fixed notation, and the suffix of
# exponent notation; and the value's row block in _LAYOUT.
_TEN = np.array([float("1e%d" % (11 - e)) for e in _EXPONENTS])
_AFFIXES = np.frombuffer(
    b"".join(
        (b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(24, b"\0")
        + (b"" if -4 <= e < 12 else b"e%+03d" % e).ljust(8, b"\0")
        for e in _EXPONENTS
    ),
    dtype="<u8",
).reshape(-1, 4)
_NOTATION = np.array([12 * (e + 4) if -4 <= e < 12 else 12 * 16 for e in _EXPONENTS], dtype=np.intp)


def _layout(e: int | None, digits: int) -> bytes:
    """The three 16-byte masks that lay out a significand with ``digits``
    significant digits: '0' bits over the digits written, the bytes before
    the point, and the point. ``e`` is the exponent in fixed notation, None
    in exponent notation."""
    if e is None:
        kept, point = digits, 1
    elif e < 0:
        kept, point = digits, None  # the point is in the prefix
    else:
        kept, point = max(digits, e + 1), e + 1
    if point is None or point >= kept:
        point = 16  # no digit after the point: no point
    return b"".join(mask[:16].ljust(16, b"\0") for mask in (b"0" * kept, b"\xff" * point, b"\0" * point + b"."))


# By (notation, digits - 1): fixed notation at e = -4..11, then exponent
# notation.
_LAYOUT = np.frombuffer(
    b"".join(_layout(e, digits) for e in [*range(-4, 12), None] for digits in range(1, 13)), dtype="<u8"
).reshape(-1, 6)
# The separator after each column, in a record's last byte.
_SEPARATORS = np.array([ord(",") << 56] * (len(GRID_COLUMNS) - 1) + [ord("\n") << 56], dtype=np.uint64)


class _CsvWork:
    """Work arrays of the CSV kernel for up to ``rows`` cells, made once
    and reused by every chunk of a block: fresh temporaries per chunk cost
    more in page faults than the arithmetic."""

    __slots__ = ("rows", "matrix", "real", "index", "fails", "words", "parts", "top", "layout", "records")

    def __init__(self, rows: int):
        n = rows * len(GRID_COLUMNS)
        self.rows = rows
        self.matrix = np.empty((rows, len(GRID_COLUMNS)))
        self.real = np.empty((3, n))
        self.index = np.empty((2, n), dtype=np.intp)
        self.fails = np.empty((2, n), dtype=bool)
        self.words = np.empty((2, n), dtype="<u8")
        self.parts = np.empty((2, n), dtype="<u8")
        self.top = np.empty(n, dtype=np.int32)
        self.layout = np.empty((n, 6), dtype=np.uint64)
        self.records = np.empty((n, 4), dtype="<u8")


def _csv_records(work: _CsvWork, rows: int) -> np.ndarray:
    """The records of the first ``rows`` rows of ``work.matrix``, row-major."""
    n = rows * len(GRID_COLUMNS)
    x = work.matrix[:rows].reshape(n)
    a, p, d = (row[:n] for row in work.real)
    e, at = (row[:n] for row in work.index)
    fails, flag = (row[:n] for row in work.fails)
    w, q = work.words[:, :n], work.parts[:, :n]
    top, lay, rec = work.top[:n], work.layout[:n], work.records[:n]

    # The filter. log10 of 0 and the products and differences that 0, inf
    # and NaN lead to are harmless here: those values fail the filter.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.abs(x, out=a)
        np.log10(a, out=p)
        np.floor(p, out=p)
        np.fmax(p, _E_MIN, out=p)  # NaN -> _E_MIN
        np.fmin(p, _E_MAX, out=p)
        np.subtract(p, _E_MIN, out=p)
        np.copyto(e, p, casting="unsafe")
        np.take(_TEN, e, out=p, mode="clip")
        np.multiply(a, p, out=p)
        np.rint(p, out=d)
        np.subtract(p, d, out=a)
        np.abs(a, out=a)
        np.less(a, 0.499, out=fails)  # passes, so far: NaN passes no test
        np.greater_equal(p, 1e11 + 1, out=flag)
        fails &= flag
        np.less_equal(d, 1e12 - 2, out=flag)
        fails &= flag
        np.logical_not(fails, out=fails)
    np.copyto(d, 1e11 + 1, where=fails)
    np.take(_AFFIXES, e, axis=0, out=rec, mode="clip")

    # The digits: D = v * 10^4 + r goes in as the uint64 lanes [v, r * 10^4].
    # Each lane is split in two, by 10^4, 100 and 10, each time into lanes
    # half as wide, until every byte holds one digit, most significant
    # first. Splitting a lane y into q = y // k and y - k q, with q as the
    # low half, is (y << s) - q ((k << s) - 1).
    np.divide(d, 1e4, out=p)
    np.floor(p, out=p)
    np.copyto(w[0], p, casting="unsafe")
    np.multiply(p, 1e4, out=p)
    np.subtract(d, p, out=p)
    np.multiply(p, 1e4, out=p)
    np.copyto(w[1], p, casting="unsafe")
    for lane, multiplier, shift, k, s in (
        (np.dtype("<u8"), 109951163, 40, 10000, 32),
        (np.dtype("<u4"), 10486, 20, 100, 16),
        (np.dtype("<u2"), 103, 10, 10, 8),
    ):
        y, z = w.view(lane), q.view(lane)
        np.multiply(y, lane.type(multiplier), out=z)
        np.right_shift(z, lane.type(shift), out=z)  # y // k
        np.multiply(z, lane.type((k << s) - 1), out=z)
        np.left_shift(y, lane.type(s), out=y)
        np.subtract(y, z, out=y)

    # The layout: the top nonzero digit byte from the exponent of the
    # 128-bit digit word as a float (bytes hold at most 9, so rounding never
    # reaches a new power of two), then fill, point and trim by table.
    np.multiply(w[1], 2.0**64, out=a)
    np.add(a, w[0], out=a)
    np.frexp(a, out=(p, top))
    np.subtract(top, 1, out=top)
    np.right_shift(top, 3, out=top)
    np.take(_NOTATION, e, out=at, mode="clip")
    np.add(at, top, out=at)
    np.take(_LAYOUT, at, axis=0, out=lay, mode="clip")
    w |= lay[:, 0:2].T
    np.bitwise_and(w, lay[:, 2:4].T, out=q)
    w ^= q
    q |= lay[:, 4:6].T
    # The bytes from the point's place on move up one byte, and the point
    # goes in. Each record word is its own call: an (n, 2) operation would
    # loop over pairs.
    np.left_shift(w[1], np.uint64(8), out=rec[:, 2])
    np.right_shift(w[0], np.uint64(56), out=w[1])
    rec[:, 2] |= w[1]
    np.left_shift(w[0], np.uint64(8), out=rec[:, 1])
    rec[:, 1] |= q[0]
    rec[:, 2] |= q[1]
    np.right_shift(x.view(np.uint64), np.uint64(63), out=w[0])
    np.multiply(w[0], np.uint64(ord("-")), out=w[0])
    rec[:, 0] |= w[0]
    rec.reshape(rows, len(GRID_COLUMNS), 4)[:, :, 3] |= _SEPARATORS

    fallback = np.flatnonzero(fails)
    if fallback.size:
        texts = b"".join([(b"%.12g" % v).ljust(24, b"\0") for v in x[fallback].tolist()])
        rec[fallback, :3] = np.frombuffer(texts, dtype="<u8").reshape(-1, 3)
        rec[fallback, 3] &= np.uint64(0xFF << 56)
    return rec


def grid_csv_text(cells: Grid, cell_range: range | None = None) -> bytes:
    """CSV text as ASCII bytes (12 significant digits, LF line endings) of
    the block's cells in ``cell_range`` (by default all of them), led by the
    header line when they start the grid. The texts of consecutive ranges
    and blocks join into one CSV text, byte-identical to '%.12g' of every
    value."""
    lo, hi = _cell_bounds(cells, cell_range)
    head = ",".join(GRID_COLUMNS).encode() + b"\n" if cells.theta_rows.start == 0 and lo == 0 else b""
    rows = hi - lo
    if not rows:
        return head
    work = cells._csv_work
    if work is None or work.rows < rows:
        work = _CsvWork(rows)
        object.__setattr__(cells, "_csv_work", work)
    for k, col in enumerate(GRID_COLUMNS):
        work.matrix[:rows, k] = cells.columns[col][lo:hi]
    return head + _csv_records(work, rows).tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# SVG heatmaps
# ---------------------------------------------------------------------------

_BAND_STEPS = {"t_ratio_bound": (0.5, 10.0)}
_DEFAULT_BAND = (0.2, 2.0)


def _band_indices(values: np.ndarray, step: float, top: float) -> np.ndarray:
    """Band of each value, as uint8 (every band table has under 256 bands):
    floor(value / step) clamped to [0, top / step]; +inf lands in the top
    band, -inf and NaN in band 0."""
    values = np.where(np.isfinite(values), values, np.where(values > 0, top, 0.0))
    # Clamp before the cast: a huge value would overflow the integer type.
    return np.minimum(np.maximum(values, 0.0) / step, int(top / step)).astype(np.uint8)


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


# The six hex digits of each band's fill color, as a (bands + 1, 6) uint8
# table, by band (step, top).
_FILL_DIGITS = {
    band: np.frombuffer("".join(_palette(int(band[1] / band[0]))).replace("#", "").encode(), np.uint8).reshape(-1, 6)
    for band in (*_BAND_STEPS.values(), _DEFAULT_BAND)
}
# Where a rect's fill digits lie, from the end of its text '#rrggbb"/>'.
_FILL_AT = np.arange(-9, -3)


def _svg_template(cells: Grid, theta_steps: int, v_steps: int, cell_px: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's rects as one writable byte array, whose fill digits each
    heatmap writes over, and each rect's offset in it, then the end. A run
    of cells on one theta line and consecutive rows (bottom to top) shares
    one x prefix, so it is one join of its rows' texts."""
    cols = np.rint(cells.columns["theta"] / math.pi * theta_steps).astype(np.intp) - 1
    rows = v_steps - 1 - np.rint(cells.columns["v"] / math.pi * v_steps).astype(np.intp)
    if not cols.size:
        return np.zeros(0, np.uint8), np.zeros(1, np.intp)
    heads = np.flatnonzero((np.diff(cols, prepend=-1) != 0) | (np.diff(rows, prepend=-1) != -1))
    top = int(rows.max())
    # ys[k] is the end of a rect on row top - k.
    ys = [
        b'%d" width="%d" height="%d" fill="#000000"/>' % (row * cell_px, cell_px, cell_px)
        for row in range(top, int(rows.min()) - 1, -1)
    ]
    texts = []
    for col, row, size in zip(cols[heads].tolist(), rows[heads].tolist(), np.diff(heads, append=cols.size).tolist()):
        x = b'\n<rect x="%d" y="' % (col * cell_px)
        texts += (x, x.join(ys[top - row : top - row + size]))
    text = np.frombuffer(bytearray().join(texts), np.uint8)
    return text, np.concatenate(([0], np.flatnonzero(text == ord(">")) + 1))  # a rect's one ">" ends it


def svg_heatmap(
    cells: Grid,
    fields: Sequence[str],
    theta_steps: int,
    v_steps: int,
    cell_px: int = 6,
    cell_range: range | None = None,
) -> list[bytes]:
    """Banded heatmaps of diagnostic columns over the feasible region, one
    ASCII document part per field, in the order of ``fields``.

    Colors step at fixed level-set thresholds (0.2 apart for gain ratios,
    0.5 apart for the t-ratio cap) on a linear blue-to-red ramp. A whole grid
    gives a deterministic standalone SVG document per field. The block's
    cells in ``cell_range`` (by default all of them) give their part: the
    first cell of the grid opens the document, its last closes it (a grid
    with no cell in its last block closes it there), and the parts of
    consecutive ranges and blocks join into the whole grid's document. The
    fields share the block's one rect template (per cell size): each writes
    its cells' fill digits into it and copies the range out.
    """
    for field in fields:
        if field not in GRID_COLUMNS:
            raise ValueError(f"unknown field {field!r}")
    lo, hi = _cell_bounds(cells, cell_range)
    key = (theta_steps, v_steps, cell_px)
    template = cells._svg_templates.get(key)
    if template is None:
        template = cells._svg_templates[key] = _svg_template(cells, theta_steps, v_steps, cell_px)
    head = tail = b""
    if cells.theta_rows.start == 0 and lo == 0:
        width = (theta_steps - 1) * cell_px
        height = (v_steps - 1) * cell_px
        head = (
            b'<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">\n'
            b'<rect width="%d" height="%d" fill="#f0f0f0"/>' % (width, height, width, height, width, height)
        )
    if cells.theta_rows.stop == theta_steps - 1 and hi == len(cells):
        tail = b"\n</svg>\n"
    text, offsets = template
    digits = offsets[lo + 1 : hi + 1, None] + _FILL_AT
    body = text[offsets[lo] : offsets[hi]]
    docs = []
    for field in fields:
        fills = cells._svg_fills.get(field)
        if fills is None:
            band = _BAND_STEPS.get(field, _DEFAULT_BAND)
            bands = _band_indices(cells.columns[field], *band)
            fills = cells._svg_fills[field] = np.take(_FILL_DIGITS[band], bands, axis=0)
        text[digits] = fills[lo:hi]
        docs.append(b"".join((head, body, tail)))
    return docs
