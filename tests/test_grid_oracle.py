"""Differential tests: the columnar grid against the per-cell routines.

Columns must be bit-equal, and the CSV text and every SVG document
byte-identical.
"""

import argparse
import errno
import io
import itertools
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import grid_oracle as oracle
from r2audit import cli, geometry2d, grid_evaluate
from r2audit.cli import SVG_FIELDS
from r2audit.errors import InfeasibleCorrelations
from r2audit.geometry2d import (
    GRID_COLUMNS,
    REFERENCE_R2,
    Grid,
    _band_indices,
    _law_of_sines,
    _palette,
    gamma_pair_columns,
    grid_csv_text,
    svg_heatmap,
)

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
    text = ("\n".join(oracle.grid_csv_lines(cells)) + "\n").encode("ascii")
    assert grid_csv_text(grid) == text
    docs = [oracle.svg_heatmap(cells, field, theta_steps, v_steps).encode("ascii") for field in SVG_FIELDS]
    ours = svg_heatmap(grid, SVG_FIELDS, theta_steps, v_steps)
    assert ours == docs
    # bytes, not a bytearray or a view of the block's template
    assert {type(grid_csv_text(grid)), *map(type, ours)} == {bytes}
    # The blocks' columns, CSV texts and SVG parts, joined in order: one line
    # per block, uneven blocks, and one block.
    for sizes in ((1,), (3, 1, 4, 1, 5, 9, 2, 6), (theta_steps - 1,)):
        line_blocks = _blocks_of(theta_steps - 1, sizes)
        blocks = [grid_evaluate(theta_steps, v_steps, r2_full, rows) for rows in line_blocks]
        assert [block.theta_rows for block in blocks] == line_blocks
        for col in GRID_COLUMNS:
            joined = np.concatenate([block.columns[col] for block in blocks])
            assert joined.tobytes() == grid.columns[col].tobytes(), (sizes, col)
        assert b"".join(grid_csv_text(block) for block in blocks) == text, sizes
        parts = [svg_heatmap(block, SVG_FIELDS, theta_steps, v_steps) for block in blocks]
        assert [b"".join(doc) for doc in zip(*parts)] == docs, sizes
    # The cell ranges of one block, joined in order: uneven ranges of one
    # cell and more, with empty ranges between them.
    ranges = _blocks_of(len(grid), (1, 0, 3, 0, 512))
    assert b"".join(grid_csv_text(grid, cells) for cells in ranges) == text
    parts = [svg_heatmap(grid, SVG_FIELDS, theta_steps, v_steps, cell_range=cells) for cells in ranges]
    assert [b"".join(doc) for doc in zip(*parts)] == docs


def test_grid_rejects_rows_outside_the_grid():
    for rows in (range(-1, 3), range(0, 12), range(0, 11, 2), range(5, 3)):
        with pytest.raises(ValueError):
            grid_evaluate(12, 12, 0.5, rows)
    assert len(grid_evaluate(12, 12, 0.5, range(4, 4))) == 0


def test_render_rejects_cells_outside_the_block():
    grid = grid_evaluate(12, 12, 0.5, range(2, 5))
    for cells in (range(-1, 3), range(0, len(grid) + 1), range(0, 6, 2), range(5, 3)):
        with pytest.raises(ValueError):
            grid_csv_text(grid, cells)
        with pytest.raises(ValueError):
            svg_heatmap(grid, ["gamma1"], 12, 12, cell_range=cells)
    assert grid_csv_text(grid, range(4, 4)) == b""


def _columns_of(*values):
    return tuple(np.array([v], dtype=float) for v in values)


def test_one_element_columns_match_oracle():
    """The grid's two column kernels on one cell: the triangle's sides at
    two fit levels, and the pair diagnostics at the reference level."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        theta = float(rng.uniform(1e-3, math.pi - 1e-3))
        tau = float(rng.uniform(0.0, math.pi - theta))
        r2_full = float(rng.uniform(1e-3, 1.0))
        point = oracle.triangle_solve(theta, tau, r2_full)
        ref = oracle.triangle_solve(theta, tau, REFERENCE_R2)
        sides = _law_of_sines(*_columns_of(point.r12, math.sin(theta), theta, tau), (r2_full, REFERENCE_R2))
        assert [[float(col[0]) for col in level] for level in sides] == [
            [point.b, point.r_y1, point.r_y2], [ref.b, ref.r_y1, ref.r_y2]
        ]
        assert oracle.pair_columns(ref.r_y1, ref.r_y2, ref.r12) == oracle.point_diagnostics(point)
    # Exact zero denominators give the +inf sentinels on both paths: one
    # conditional gain, then both gains and the joint fit.
    for triple in ((0.25, 0.5, 0.5), (0.0, 0.0, 0.3)):
        assert oracle.pair_columns(*triple) == oracle.gamma_pair(*triple)


@pytest.mark.parametrize(
    "args", [(0.9, 0.9, -0.5), (1.0, 0.2, 0.1), (0.2, -1.0, 0.1), (0.2, 0.1, math.nan), (0.8, 0.8, 0.0)]
)
def test_pair_errors_match_oracle(args):
    with pytest.raises(InfeasibleCorrelations) as ours:
        gamma_pair_columns(*_columns_of(*args))
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
    # One process renders every block, so every grid_evaluate call is seen
    # here; a forked worker's calls would not be.
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    evaluated = []

    def evaluate(*args):
        grid = grid_evaluate(*args)
        evaluated.append(grid.theta_rows)
        return grid

    monkeypatch.setattr(geometry2d, "grid_evaluate", evaluate)
    args = ["grid", "--theta-steps", str(theta_steps), "--v-steps", str(v_steps), "--r2-full", str(r2_full)]
    expected = ("\n".join(oracle.grid_csv_lines(cells)) + "\n").encode()
    # one cell a chunk, several chunks a block, and more than any block
    for chunk in (1, 7, 4097):
        monkeypatch.setattr(cli, "GRID_CHUNK_CELLS", chunk)
        evaluated.clear()
        assert cli.main(args + ["--out", str(tmp_path / "g.csv"), "--svg", str(tmp_path / "svg")]) == 0
        assert len(evaluated) == {105: 1, 26: 4, 103: 2, 7: 13, 1: 44}[block]
        assert evaluated == _blocks_of(theta_steps - 1, [len(rows) for rows in evaluated])
        assert (tmp_path / "g.csv").read_bytes() == expected, chunk
        for field in SVG_FIELDS:
            doc = oracle.svg_heatmap(cells, field, theta_steps, v_steps)
            assert (tmp_path / "svg" / f"{field}.svg").read_bytes() == doc.encode(), (chunk, field)
        capsys.readouterr()
        assert cli.main(args) == 0
        assert capsys.readouterr().out.encode() == expected, chunk


def _run_grid(tmp_path, capsys, theta_steps, v_steps):
    """main's exit code and stderr for the grid to a file, with heatmaps."""
    capsys.readouterr()
    args = ["grid", "--theta-steps", str(theta_steps), "--v-steps", str(v_steps)]
    code = cli.main(args + ["--out", str(tmp_path / "g.csv"), "--svg", str(tmp_path / "svg")])
    return code, capsys.readouterr().err


# 2 x 2 has one theta line and 3 x 3 two, so both have fewer blocks than
# three workers; the (53, 5) grid has 44, 13 and 4 blocks.
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("theta_steps,v_steps,block", [(2, 2, 4096), (3, 3, 1), (53, 5, 1), (53, 5, 7), (53, 5, 26)])
def test_cli_grid_workers_match_oracle(tmp_path, monkeypatch, capsys, workers, theta_steps, v_steps, block):
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", block)
    monkeypatch.setattr(cli, "_usable_cores", lambda: workers)
    blocks = list(geometry2d.theta_line_blocks(theta_steps, v_steps, block))
    weights = [geometry2d.estimated_cells(theta_steps, v_steps, rows) for rows in blocks]
    spans = cli._grid_spans(blocks, weights, min(workers, len(blocks)))
    assert len(spans) == min(workers, len(blocks)) and sum(spans, []) == blocks
    cells = oracle.grid_evaluate(theta_steps, v_steps, 0.5)
    expected = ("\n".join(oracle.grid_csv_lines(cells)) + "\n").encode()
    # one cell a chunk, 7 cells (about a block at GRID_BLOCK_CELLS = 7), and
    # more than any block
    for chunk in (1, 7, 4097):
        monkeypatch.setattr(cli, "GRID_CHUNK_CELLS", chunk)
        assert _run_grid(tmp_path, capsys, theta_steps, v_steps) == (0, "")
        assert (tmp_path / "g.csv").read_bytes() == expected, chunk
        for field in SVG_FIELDS:
            doc = oracle.svg_heatmap(cells, field, theta_steps, v_steps)
            assert (tmp_path / "svg" / f"{field}.svg").read_bytes() == doc.encode(), (chunk, field)
        assert cli.main(["grid", "--theta-steps", str(theta_steps), "--v-steps", str(v_steps)]) == 0
        assert capsys.readouterr().out.encode() == expected, chunk
    # the workers' temporary parts were never linked into a directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "svg"]


class _Recorder:
    """An output that keeps each byte string written to it."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.writes.append(data)


def test_render_grid_writes_a_chunk_at_a_time():
    """No write to any output holds more than one chunk of cells' text: a
    CSV line is at most 13 fields of 19 characters and their separators, a
    rect far less. The writes, joined, are the whole grid's outputs."""
    theta_steps, v_steps = 120, 120
    blocks = list(geometry2d.theta_line_blocks(theta_steps, v_steps, cli.GRID_BLOCK_CELLS))
    cells = oracle.grid_evaluate(theta_steps, v_steps, 0.5)
    assert len(blocks) > 1 and len(cells) > 2 * cli.GRID_CHUNK_CELLS
    outputs = [_Recorder() for _ in range(1 + len(SVG_FIELDS))]
    args = argparse.Namespace(theta_steps=theta_steps, v_steps=v_steps, r2_full=0.5)
    cli._render_grid(args, blocks, outputs)
    bound = cli.GRID_CHUNK_CELLS * len(GRID_COLUMNS) * 20 + 256
    for output in outputs:
        assert len(output.writes) > len(cells) // cli.GRID_CHUNK_CELLS
        assert max(map(len, output.writes)) <= bound
    assert b"".join(outputs[0].writes) == ("\n".join(oracle.grid_csv_lines(cells)) + "\n").encode("ascii")
    for field, output in zip(SVG_FIELDS, outputs[1:]):
        doc = oracle.svg_heatmap(cells, field, theta_steps, v_steps)
        assert b"".join(output.writes) == doc.encode("ascii"), field


@pytest.mark.parametrize(
    "stdout",
    [io.StringIO, lambda: io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")],
    ids=["text-only", "buffered-bytes"],
)
def test_cli_grid_parts_append_to_any_stdout(monkeypatch, stdout):
    """The workers' parts join what this process wrote to a standard output
    that keeps text of its own until flushed, or has no byte layer at all."""
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
    monkeypatch.setattr(cli, "GRID_CHUNK_CELLS", 3)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    out = stdout()
    monkeypatch.setattr("sys.stdout", out)
    assert cli.main(["grid", "--theta-steps", "53", "--v-steps", "5"]) == 0
    out.flush()
    data = out.getvalue().encode("ascii") if isinstance(out, io.StringIO) else out.buffer.getvalue()
    assert data == ("\n".join(oracle.grid_csv_lines(oracle.grid_evaluate(53, 5, 0.5))) + "\n").encode("ascii")


def _failing_sink(monkeypatch):
    """Make the pair walk's second call of its certificate sink fail."""
    walk = cli._second_order_summary

    def summary(table, tolerance, sink):
        calls = []

        def failing(*lists):
            calls.append(lists)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            sink(*lists)

        return walk(table, tolerance, failing)

    monkeypatch.setattr(cli, "_second_order_summary", summary)


@pytest.mark.parametrize("user", ["grid", "certificates"])
def test_cli_parts_fall_back_to_the_temp_dir(tmp_path, tmp_path_factory, monkeypatch, capsys, user):
    """Where the outputs' directory takes no new file, the writer's parts go
    to the default temporary directory: the outputs stay the same, and no
    file is left beside them, after a normal run or one that fails partway:
    the grid in this process after the fork, the certificate stream in the
    pair walk."""
    made = tempfile.TemporaryFile
    fell_back = []

    def temporary_file(*args, dir=None, **kwargs):
        if dir is not None and Path(dir) == tmp_path:
            raise PermissionError(errno.EACCES, "Permission denied", str(dir))
        if dir is None:
            fell_back.append(dir)
        return made(*args, dir=dir, **kwargs)

    elsewhere = tmp_path_factory.mktemp("elsewhere")
    if user == "grid":
        monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        # the heatmaps' parts go beside them, in a directory that takes them
        args = ["grid", "--theta-steps", "53", "--v-steps", "5", "--out", str(tmp_path / "g.csv"),
                "--svg", str(elsewhere / "svg")]
        expected = ("\n".join(oracle.grid_csv_lines(oracle.grid_evaluate(53, 5, 0.5))) + "\n").encode()
        parent, heatmap = os.getpid(), geometry2d.svg_heatmap

        def fail(monkeypatch):
            def svg_heatmap(block, *args, **kwargs):
                if os.getpid() == parent:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return heatmap(block, *args, **kwargs)

            monkeypatch.setattr(geometry2d, "svg_heatmap", svg_heatmap)

        name = "g.csv"
    else:
        csv = elsewhere / "in.csv"
        assert cli.main(["gen", "gaussian", "--n", "40", "--m", "6", "--seed", "3", "--out", str(csv)]) == 0
        args = ["audit", str(csv), "--response", "Y", "--out", str(elsewhere / "r.json")]
        assert cli.main([*args, "--certificates", str(elsewhere / "c.jsonl")]) == 0
        expected = (elsewhere / "c.jsonl").read_bytes()
        args += ["--certificates", str(tmp_path / "c.jsonl")]
        fail = _failing_sink
        name = "c.jsonl"
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / name).read_bytes() == expected
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert len(fell_back) == 1  # one part, of one output
    fail(monkeypatch)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_usable_cores_without_fork(monkeypatch):
    assert cli._usable_cores() >= 1
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._usable_cores() == 1


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")), reason="needs fork and /proc")
@pytest.mark.parametrize(
    "fails, err",
    [
        # the last block, the last worker's
        (lambda in_parent, rows: not in_parent and rows.stop == 52,
         "error: [Errno 28] No space left on device\n"
         "error: grid worker for theta lines 21..51 exited with status 1\n"),
        # this process's first, after the fork
        (lambda in_parent, rows: in_parent, "error: [Errno 28] No space left on device\n"),
    ],
    ids=["worker", "parent"],
)
def test_cli_grid_failure_reaps_every_worker(tmp_path, monkeypatch, capfd, fails, err):
    """A heatmap that fails in a worker's span, or in this process after the
    fork, exits 1 and leaves no worker and no open file. What a user sees on
    standard error is the failure's line, written by the process it failed
    in, then for a worker the line that names its span."""
    parent = os.getpid()
    heatmap = geometry2d.svg_heatmap

    def svg_heatmap(block, *args, **kwargs):
        if fails(os.getpid() == parent, block.theta_rows):
            raise OSError(errno.ENOSPC, "No space left on device")
        return heatmap(block, *args, **kwargs)

    monkeypatch.setattr(geometry2d, "svg_heatmap", svg_heatmap)
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    fds = len(os.listdir("/proc/self/fd"))
    assert _run_grid(tmp_path, capfd, 53, 5) == (1, err)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_csv_formats_each_bit_pattern():
    """Values that compare equal, or agree to 12 digits, but differ in bits
    are formatted on their own, as the per-cell oracle formats them."""
    tiny = 0.1 + 2e-17
    assert tiny != 0.1 and "%.12g" % tiny == "%.12g" % 0.1
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.1, tiny, -0.0, 0.0, tiny, math.nan]
    assert math.copysign(1.0, -math.nan) == -1.0
    # three theta lines of 5, 5 and 2 cells
    grid = Grid({col: np.array(values[k:] + values[:k]) for k, col in enumerate(GRID_COLUMNS)}, range(3))
    lines = oracle.grid_csv_lines(list(grid))
    expected = ("\n".join(lines) + "\n").encode("ascii")
    assert grid_csv_text(grid) == expected
    assert "-0" in lines[1].split(",") and "0" in lines[2].split(",")
    blocks = [
        Grid({col: values[5 * line : 5 * line + 5] for col, values in grid.columns.items()}, range(line, line + 1))
        for line in range(3)
    ]
    assert b"".join(map(grid_csv_text, blocks)) == expected


def _kernel_cases() -> np.ndarray:
    """Over 500,000 values, each also negated, that probe the CSV kernel's
    filter and layout."""
    rng = np.random.default_rng(31)
    values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    # 17 random significant digits in every decade from 1e-320 to 1e308,
    # subnormals included (past the largest double they read as inf), and
    # more around the switch between fixed and exponent notation at e = -5,
    # -4, 11 and 12
    decades = [*range(-320, 309), *range(-7, 15)]
    significands = rng.integers(10**16, 10**17, size=(len(decades), 300)).tolist()
    values += [float(f"{s}e{e - 16}") for e, row in zip(decades, significands) for s in row]
    # exact 12-digit ties: k + 0.5 and 13- and 14-digit integers ending in 5
    # and 50, all exact in binary
    values += (rng.integers(10**11, 10**12, 20000) + 0.5).tolist()
    values += (rng.integers(10**11, 10**12, 20000) * 10 + 5).astype(float).tolist()
    values += (rng.integers(10**11, 10**12, 20000) * 100 + 50).astype(float).tolist()
    values += [100000000000.5, 999999999999.5, 9.999999999995e99, 9.99999999999e-5]
    # decade edges: every power of ten, its neighbours, and the largest
    # 12-digit significands before it
    for e in range(-320, 309):
        for text in (f"1e{e}", f"9.999999999995e{e - 1}", f"9.99999999999e{e - 1}", f"9.999999999994999e{e - 1}"):
            edge = float(text)
            values += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, 0.0)]
    # values rounded to a few decimals, and float32 values
    uniform = rng.uniform(0.0, 1000.0, 100000)
    values += np.concatenate([np.round(uniform[k::13], k) for k in range(13)]).tolist()
    values += rng.standard_normal(50000).astype(np.float32).astype(float).tolist()
    values += (rng.standard_normal(20000) * 10.0 ** rng.integers(-40, 37, 20000)).astype(np.float32).astype(float).tolist()
    cases = np.array(values)
    return np.concatenate([cases, -cases])


def test_csv_kernel_matches_percent_g():
    """The CSV of any values, in chunks of 512 cells and fewer, is '%.12g' of
    each value: the kernel's fast path and its '%.12g' fallback."""
    values = _kernel_cases()
    assert values.size >= 500_000
    values = np.concatenate([values, values[: -values.size % len(GRID_COLUMNS)]])
    matrix = values.reshape(-1, len(GRID_COLUMNS))
    # not the grid's first theta line, so no header
    grid = Grid({col: matrix[:, k].copy() for k, col in enumerate(GRID_COLUMNS)}, range(1, 2))
    ranges = _blocks_of(len(grid), (512, 512, 300, 1, 512))
    text = b"".join(grid_csv_text(grid, cells) for cells in ranges).decode("ascii")
    seps = [","] * (len(GRID_COLUMNS) - 1) + ["\n"]
    expected = "".join(["%.12g%s" % pair for pair in zip(values.tolist(), itertools.cycle(seps))])
    if text != expected:
        ours = text.replace("\n", ",").split(",")
        theirs = expected.replace("\n", ",").split(",")
        mismatches = [(v, a, b) for v, a, b in zip(values.tolist(), ours, theirs) if a != b]
        pytest.fail(f"{len(mismatches)} mismatches, first {mismatches[:5]}")


def test_svg_template_built_once_per_block(tmp_path, monkeypatch):
    """The six heatmaps of every chunk of a block draw from one rect
    template, built on the block's first chunk."""
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
    monkeypatch.setattr(cli, "GRID_CHUNK_CELLS", 3)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    blocks = list(geometry2d.theta_line_blocks(53, 5, 7))
    chunks = sum(max(1, -(-len(grid_evaluate(53, 5, 0.5, rows)) // 3)) for rows in blocks)
    assert len(blocks) == 13 and chunks > len(blocks)
    built = []
    template = geometry2d._svg_template

    def build(block, *args):
        built.append(block.theta_rows)
        return template(block, *args)

    monkeypatch.setattr(geometry2d, "_svg_template", build)
    args = ["grid", "--theta-steps", "53", "--v-steps", "5", "--out", str(tmp_path / "g.csv"), "--svg", str(tmp_path)]
    assert cli.main(args) == 0
    assert built == blocks


def test_svg_layout_from_a_cached_template():
    """Heatmaps of one grid match the oracle when the rect template is built
    and when it is read back."""
    grid = grid_evaluate(12, 12, 0.5)
    cells = oracle.grid_evaluate(12, 12, 0.5)
    fields = ("gamma1", "t_ratio_bound")
    expected = [oracle.svg_heatmap(cells, field, 12, 12).encode("ascii") for field in fields]
    for _ in range(2):
        assert svg_heatmap(grid, fields, 12, 12) == expected
