"""Differential tests: the columnar grid against the per-cell routines.

Columns must be bit-equal, and the CSV text and every SVG document
byte-identical.
"""

import itertools
import math

import numpy as np
import pytest

import grid_oracle as oracle
from r2audit import cli, gamma_pair, geometry2d, grid_evaluate, triangle_solve
from r2audit.cli import SVG_FIELDS
from r2audit.errors import InfeasibleAngles, InfeasibleCorrelations
from r2audit.geometry2d import GRID_COLUMNS, Grid, _band_indices, _palette, grid_csv_lines, svg_heatmap

CASES = [
    (steps, r2_full)
    for steps in ((2, 2), (3, 3), (12, 12), (37, 100), (100, 37))
    for r2_full in (0.05, 0.5, 1.0)
] + [((300, 300), 0.5)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _blocks_of(lines: int, sizes) -> list[range]:
    """Consecutive ranges covering range(lines), of the given sizes in turn."""
    blocks, start = [], 0
    for size in itertools.cycle(sizes):
        if start >= lines:
            return blocks
        blocks.append(range(start, min(start + size, lines)))
        start += size


@pytest.mark.parametrize("steps,r2_full", CASES, ids=lambda c: str(c))
def test_grid_matches_oracle(steps, r2_full):
    """The whole grid, and its blocks joined in order, equal the oracle."""
    theta_steps, v_steps = steps
    grid = grid_evaluate(theta_steps, v_steps, r2_full)
    cells = oracle.grid_evaluate(theta_steps, v_steps, r2_full)
    assert isinstance(grid, Grid)
    assert grid.theta_rows == range(theta_steps - 1)
    assert len(grid) == len(cells) > 0
    for col in GRID_COLUMNS:
        assert grid.columns[col].tobytes() == _bits([getattr(c, col) for c in cells]), col
    assert list(grid) == cells
    lines = oracle.grid_csv_lines(cells)
    assert grid_csv_lines(grid) == lines
    docs = {field: oracle.svg_heatmap(cells, field, theta_steps, v_steps) for field in SVG_FIELDS}
    for field in SVG_FIELDS:
        assert svg_heatmap(grid, field, theta_steps, v_steps) == docs[field], field
    # The blocks' columns, CSV lines and SVG parts, joined in order: one line
    # per block, uneven blocks, and one block.
    for sizes in ((1,), (3, 1, 4, 1, 5, 9, 2, 6), (theta_steps - 1,)):
        line_blocks = _blocks_of(theta_steps - 1, sizes)
        blocks = [grid_evaluate(theta_steps, v_steps, r2_full, rows) for rows in line_blocks]
        assert [block.theta_rows for block in blocks] == line_blocks
        for col in GRID_COLUMNS:
            joined = np.concatenate([block.columns[col] for block in blocks])
            assert joined.tobytes() == grid.columns[col].tobytes(), (sizes, col)
        assert sum((grid_csv_lines(block) for block in blocks), []) == lines, sizes
        for field in SVG_FIELDS:
            joined = "".join(svg_heatmap(block, field, theta_steps, v_steps) for block in blocks)
            assert joined == docs[field], (sizes, field)


def test_grid_rejects_rows_outside_the_grid():
    for rows in (range(-1, 3), range(0, 12), range(0, 11, 2), range(5, 3)):
        with pytest.raises(ValueError):
            grid_evaluate(12, 12, 0.5, rows)
    assert len(grid_evaluate(12, 12, 0.5, range(4, 4))) == 0


def test_scalar_wrappers_match_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        theta = float(rng.uniform(1e-3, math.pi - 1e-3))
        tau = float(rng.uniform(0.0, math.pi - theta))
        r2_full = float(rng.uniform(1e-3, 1.0))
        point = triangle_solve(theta, tau, r2_full)
        assert point == oracle.triangle_solve(theta, tau, r2_full)
        assert all(type(getattr(point, f)) is float for f in ("r12", "r_y1", "r_y2", "b"))
        diag = gamma_pair(point.r_y1, point.r_y2, point.r12)
        assert diag == oracle.gamma_pair(point.r_y1, point.r_y2, point.r12)
    # Exact zero denominators give the +inf sentinels on both paths: one
    # conditional gain, then both gains and the joint fit.
    for triple in ((0.25, 0.5, 0.5), (0.0, 0.0, 0.3)):
        assert gamma_pair(*triple) == oracle.gamma_pair(*triple)


@pytest.mark.parametrize(
    "args",
    [(0.0, 0.5, 0.5), (1.0, math.pi - 1.0, 0.5), (1.0, 0.0, 0.5), (1.0, 0.5, 1.1), (1.0, 0.5, math.nan)],
)
def test_triangle_errors_match_oracle(args):
    with pytest.raises(InfeasibleAngles) as ours:
        triangle_solve(*args)
    with pytest.raises(InfeasibleAngles) as theirs:
        oracle.triangle_solve(*args)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "args", [(0.9, 0.9, -0.5), (1.0, 0.2, 0.1), (0.2, -1.0, 0.1), (0.2, 0.1, math.nan), (0.8, 0.8, 0.0)]
)
def test_pair_errors_match_oracle(args):
    with pytest.raises(InfeasibleCorrelations) as ours:
        gamma_pair(*args)
    with pytest.raises(InfeasibleCorrelations) as theirs:
        oracle.gamma_pair(*args)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("step,top", [(0.2, 2.0), (0.5, 10.0)])
def test_band_indices_match_scalar_color(step, top):
    edges = [k * step for k in range(int(top / step) + 2)]
    values = np.array(
        [math.inf, -math.inf, math.nan, 1e300, -1e300, -0.0, 0.0, -0.5, -1e-300, 5e-324,
         0.6, 2.0, 10.0, 9.999999999999998, top, top * 2, math.nextafter(top, 0.0)]
        + edges
        + [math.nextafter(e, math.inf) for e in edges]
        + [math.nextafter(e, -math.inf) for e in edges]
    )
    palette = _palette(int(top / step))
    assert len(palette) == int(top / step) + 1 <= 21
    ours = [palette[i] for i in _band_indices(values, step, top).tolist()]
    assert ours == [oracle._band_color(v, step, top) for v in values.tolist()]


# (53, 5) has 126 feasible cells on 52 theta lines of 4 points; its last 10
# lines have none. With 105 cells a block the grid is one block; 26 make 4
# uneven blocks; 103 leave a last block of 4 lines with no cell; 7 make 13
# blocks, and 1 makes 44, some with no cell.
@pytest.mark.parametrize("block", [105, 26, 103, 7, 1])
def test_cli_grid_blocks_match_oracle(tmp_path, monkeypatch, capsys, block):
    theta_steps, v_steps = 53, 5
    r2_full = 0.5
    cells = oracle.grid_evaluate(theta_steps, v_steps, r2_full)
    assert len(cells) == 126
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", block)
    evaluated = []

    def evaluate(*args):
        grid = grid_evaluate(*args)
        evaluated.append(grid.theta_rows)
        return grid

    monkeypatch.setattr(geometry2d, "grid_evaluate", evaluate)
    args = ["grid", "--theta-steps", str(theta_steps), "--v-steps", str(v_steps), "--r2-full", str(r2_full)]
    assert cli.main(args + ["--out", str(tmp_path / "g.csv"), "--svg", str(tmp_path / "svg")]) == 0
    assert len(evaluated) == {105: 1, 26: 4, 103: 2, 7: 13, 1: 44}[block]
    assert evaluated == _blocks_of(theta_steps - 1, [len(rows) for rows in evaluated])
    expected = ("\n".join(oracle.grid_csv_lines(cells)) + "\n").encode()
    assert (tmp_path / "g.csv").read_bytes() == expected
    for field in SVG_FIELDS:
        doc = oracle.svg_heatmap(cells, field, theta_steps, v_steps)
        assert (tmp_path / "svg" / f"{field}.svg").read_bytes() == doc.encode(), field
    capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr().out.encode() == expected


def test_csv_formats_each_bit_pattern():
    """Values that compare equal, or agree to 12 digits, but differ in bits
    are formatted on their own, as the per-cell oracle formats them."""
    tiny = 0.1 + 2e-17
    assert tiny != 0.1 and "%.12g" % tiny == "%.12g" % 0.1
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, tiny, -0.0, 0.0, tiny, math.nan]
    assert math.copysign(1.0, -math.nan) == -1.0
    # three theta lines of 5, 5 and 2 cells
    grid = Grid({col: np.array(values[k:] + values[:k]) for k, col in enumerate(GRID_COLUMNS)}, range(3))
    expected = oracle.grid_csv_lines(list(grid))
    assert grid_csv_lines(grid) == expected
    assert "-0" in expected[1].split(",") and "0" in expected[2].split(",")
    blocks = [
        Grid({col: values[5 * line : 5 * line + 5] for col, values in grid.columns.items()}, range(line, line + 1))
        for line in range(3)
    ]
    assert sum(map(grid_csv_lines, blocks), []) == expected


def test_svg_layout_per_cell_size():
    """Heatmaps of one grid at two cell sizes each match the oracle."""
    grid = grid_evaluate(12, 12, 0.5)
    cells = oracle.grid_evaluate(12, 12, 0.5)
    for cell_px in (6, 3, 6):
        for field in ("gamma1", "t_ratio_bound"):
            assert svg_heatmap(grid, field, 12, 12, cell_px) == oracle.svg_heatmap(cells, field, 12, 12, cell_px)
