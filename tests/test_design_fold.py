"""A design's triangle is folded from row blocks of [1 | X | y].

standardize never centers a column and never holds more than one block of
rows beside its input: it QR-reduces the running triangle stacked on each
block, and reads the centered triangle, the constant-column test and the
finite-cell test off that triangle or that block. These tests hold it to
50-digit R^2 under large offsets, to the centering oracle for any block size,
to one triangle however the rows reach it, and to the CLI's error lines.
"""

import json
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from row_oracle import standardized_rows
from r2audit import best_subset, forward_stepwise, gram_factory, load_csv, miller_table
from r2audit import r_squared, regress, standardize, suppressor_population
from r2audit.cli import build_audit_report, main
from r2audit.errors import ConstantColumn
from r2audit.regress import gram_rows
from r2audit.jsonsafe import json_line, report_text


def _mp_r_squared(mp, X, y, subset):
    """R^2 of a subset with an intercept, from the float cells taken exactly,
    at the working mpmath precision."""
    n = len(y)

    def centered(column):
        cells = [mp.mpf(float(c)) for c in column]
        mean = mp.fsum(cells) / n
        return [c - mean for c in cells]

    A = mp.matrix([list(row) for row in zip(*(centered(X[:, j]) for j in subset))])
    b = mp.matrix(centered(y))
    c = A.T * b
    return (c.T * mp.lu_solve(A.T * A, c))[0] / (b.T * b)[0]


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_offset_tables_fit_to_50_digits(offset):
    # The Miller table's columns sit near +-1e3; with 1e6 added as well, a
    # fold of the unshifted rows was off by 1.6e-10
    mpmath = pytest.importorskip("mpmath")
    X, y, names = miller_table()
    X, y = X + offset, y + offset
    d = standardize(X, y, names)
    with mpmath.workdps(50):
        for size in (1, 2, 3):
            for subset in combinations(range(3), size):
                exact = _mp_r_squared(mpmath, X, y, subset)
                assert abs(r_squared(d, subset) - exact) <= 1e-12, (offset, subset)


@pytest.mark.parametrize("n", [4, 600])
def test_a_column_constant_at_an_offset_is_constant(n):
    X, y, _ = miller_table()
    rows = np.arange(n) % 4
    X, y = X[rows] + 1e3, y[rows] + 1e3
    constant = X.copy()
    constant[:, 1] = 1e3
    with pytest.raises(ConstantColumn, match=r"^column 1 is constant; cannot standardize$") as err:
        standardize(constant, y)
    assert err.value.index == 1
    with pytest.raises(ConstantColumn, match=r"^response is constant; cannot standardize$") as err:
        standardize(X, np.full(n, 1e3 + 0.5))
    assert err.value.index == -1


def _offset_design(n, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m)) * np.geomspace(0.5, 50.0, m) + np.geomspace(1.0, 1e5, m)
    return X, X[:, 0] - 0.5 * X[:, 1] / 5.0 + rng.standard_normal(n) + 3e3


@pytest.mark.parametrize("block", [1, 5, 256])
@pytest.mark.parametrize("n, m", [(700, 4), (3, 4), (6, 5)])
def test_the_fold_agrees_with_centering_for_any_block(monkeypatch, block, n, m):
    monkeypatch.setattr(regress, "TRIANGLE_BLOCK", block)
    X, y = _offset_design(n, m, seed=n + m)
    d = standardize(X, y)
    # centered columns span at most n - 1 dimensions
    assert d.triangle.shape == (min(n - 1, m + 1), m + 1)
    Xc, yc, _ = standardized_rows(X, y)
    rows = np.column_stack([Xc, yc])
    assert np.abs(d.gram() - rows.T @ rows).max() <= 1e-13
    again = standardize(Xc, yc, d.names)
    assert np.abs(again.gram() - d.gram()).max() <= 1e-13


def test_building_a_design_holds_no_copy_of_the_rows():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40_000, 6)) + 3.0
    y = X[:, 0] + rng.standard_normal(40_000)
    Xc, yc, names = standardized_rows(X, y)
    for build in (lambda: standardize(X, y), lambda: standardize(Xc, yc, names)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of [1 | X | y] under the running triangle, and LAPACK's copy
        assert peak < X.nbytes / 10


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


@pytest.fixture
def arrivals(tmp_path, monkeypatch):
    """One design of 600 rows, three blocks, written with the response first,
    in the middle and last, and read by both of load_csv's readers."""
    X, y = _offset_design(600, 5, seed=11)
    names = [f"X{i + 1}" for i in range(5)]
    paths = {}
    for place in (0, 2, 5):
        path = tmp_path / f"y_at_{place}.csv"
        _write(path, names[:place] + ["Y"] + names[place:], np.insert(X, place, y, axis=1))
        paths[place] = path
    designs = [standardize(*load_csv(path, "Y")) for path in paths.values()]

    def refuse(*args, **kwargs):
        raise ValueError("C reader off")

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        designs += [standardize(*load_csv(path, "Y")) for path in paths.values()]
    return paths, designs


def test_one_triangle_whichever_way_the_rows_arrive(arrivals, tmp_path):
    paths, designs = arrivals
    first = designs[0]
    for d in designs[1:]:
        assert d.names == first.names and d.n == first.n == 600
        assert d.triangle.tobytes() == first.triangle.tobytes()

    # the commands report the numbers of standardize(*load_csv(path)), bit
    # for bit, and reruns are byte-identical; select writes the report's steps
    source = str(paths[2])

    def texts(d):
        report = build_audit_report(d, source, "Y", 3, 20)[0]
        steps = enumerate(report["selection"]["forward_stepwise"]["steps"], start=1)
        return report_text(report), "".join(json_line({"step": rank, **step}) + "\n" for rank, step in steps)

    expected = set(map(texts, designs))
    assert len(expected) == 1
    ((report, steps),) = expected
    for run in range(2):
        audit, select = tmp_path / f"audit{run}.json", tmp_path / f"select{run}.jsonl"
        assert main(["audit", source, "--response", "Y", "--k", "3", "--out", str(audit)]) == 0
        assert main(["select", source, "--response", "Y", "--algo", "stepwise", "--k", "3", "--out", str(select)]) == 0
        assert audit.read_text(encoding="utf-8") == report
        assert select.read_text(encoding="utf-8") == steps


def test_the_library_and_the_commands_fold_one_triangle(tmp_path):
    # gram_factory standardizes its rows as the commands do, so its design is
    # the triangle the commands build from the same rows, and the suppressor
    # design's ties, which its last bits decide, go the same way in both
    gram = suppressor_population(6, 1.0, 3.0)
    for n in (10, 300):
        rows = gram_rows(gram, n)
        assert gram_factory(gram, n).triangle.tobytes() == standardize(*rows).triangle.tobytes()
    design = gram_factory(gram, 10)
    names = design.names
    csv = tmp_path / "suppressor.csv"
    assert main(["gen", "suppressor", "--p", "6", "--out", str(csv)]) == 0
    picks = {}
    for algo in ("stepwise", "best"):
        out = tmp_path / f"{algo}.jsonl"
        assert main(["select", str(csv), "--response", "Y", "--algo", algo, "--k", "3", "--out", str(out)]) == 0
        picks[algo] = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    stepwise = [names[step.feature] for step in forward_stepwise(design, 3).steps]
    assert stepwise == [line["feature"] for line in picks["stepwise"]] == ["X3", "X1", "X6"]
    best = [names[i] for i in best_subset(design, 3).subset]
    assert best == picks["best"][0]["subset"] == ["X3", "X4", "X6"]


ERRORS = {
    "non-numeric cell": ("Y,X1,X2\n1,2,3\n4,five,6\n7,8,0\n", "row 3 contains a non-numeric cell"),
    "nan": ("Y,X1,X2\n1,2,3\nnan,5,6\n7,8,0\n", "CSV contains NaN or Inf"),
    "inf": ("Y,X1,X2\n1,2,3\n4,inf,6\n7,8,0\n", "CSV contains NaN or Inf"),
    "constant feature": ("Y,X1,X2\n1,2,1003\n4,5,1003\n7,8,1003\n", "column 1 is constant; cannot standardize"),
    "constant response": ("Y,X1,X2\n1e3,2,3\n1e3,5,6\n1e3,8,0\n", "response is constant; cannot standardize"),
    "one row": ("Y,X1,X2\n1,2,3\n", "need at least two data rows"),
}


@pytest.mark.parametrize("command", [["audit"], ["select", "--algo", "stepwise"], ["select", "--algo", "best"]])
@pytest.mark.parametrize("case", sorted(ERRORS))
def test_bad_designs_give_one_error_line(tmp_path, capsys, case, command):
    text, message = ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    assert main([command[0], str(path), "--response", "Y", *command[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
