"""load_csv's two readers: numpy's C reader and the csv-module loop.

The C reader takes every file it can; the Python loop rereads the rest. These
tests hold the two to one contract: the same arrays, bit for bit, or the same
error, on a corpus of unusual files, and the same standardized design.
"""

import csv

import numpy as np
import pytest

from r2audit import StandardizedDesign, load_csv
from row_oracle import standardized_rows
from r2audit.cli import main
from r2audit.errors import DataFormatError

BODY = ["1.5,2.0,-3.25", "-1.0,0.5,4.0", "2.0,1.0,5.0", "0.25,-7.0,1e-3"]


def _python_loop(monkeypatch, path, response):
    """load_csv with the C reader forced off: the reference."""
    def refuse(*args, **kwargs):
        raise ValueError("C reader off")

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return _outcome(path, response)


def _outcome(path, response):
    try:
        X, y, names = load_csv(path, response)
    except (DataFormatError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)
    return X.shape, X.tobytes(), y.shape, y.tobytes(), names


def _lines(*rows, header="Y,X1,X2", end="\n"):
    return end.join((header,) + rows) + end


# name -> the file's bytes, with the response column named Y
CORPUS = {
    "plain": _lines(*BODY).encode(),
    "spaces around cells": _lines(" 1.5 , 2.0,-3.25 ", *BODY[1:]).encode(),
    "overflow to inf": _lines("1e400,2,3", *BODY[1:]).encode(),
    # cell content
    "quoted cells": _lines('"1.5",2.0,"-3.25"', *BODY[1:]).encode(),
    "underscore": _lines("1_0,2,3", *BODY[1:]).encode(),
    "arabic-indic digit": _lines("١,2,3", *BODY[1:]).encode(),
    "nan": _lines(*BODY[:2], "nan,1,2", BODY[3]).encode(),
    "inf": _lines(*BODY[:2], "1,inf,2", BODY[3]).encode(),
    "infinity": _lines(*BODY[:2], "1,2,-Infinity", BODY[3]).encode(),
    "hex": _lines("0x10,2,3", *BODY[1:]).encode(),
    "fortran exponent": _lines("1d5,2,3", *BODY[1:]).encode(),
    "imaginary": _lines("1j,2,3", *BODY[1:]).encode(),
    "empty cell": _lines(*BODY[:2], ",1,2", BODY[3]).encode(),
    "trailing comma": _lines(*BODY[:2], BODY[2] + ",", BODY[3]).encode(),
    "ascii separator after a number": _lines("1.5\x1c,2.0,-3.25", *BODY[1:]).encode(),
    # line shapes
    "whitespace-only line": _lines(*BODY[:2], "   ", *BODY[2:]).encode(),
    "tab-only line": _lines(*BODY[:2], "\t", *BODY[2:]).encode(),
    "form-feed line": _lines(*BODY[:2], "\f", *BODY[2:]).encode(),
    "blank lines": _lines(BODY[0], "", "", *BODY[1:], "").encode(),
    "every row wider": _lines(*(row + ",9" for row in BODY)).encode(),
    # line endings and encoding
    "crlf": _lines(*BODY, end="\r\n").encode(),
    "cr only": _lines(*BODY, end="\r").encode(),
    "no final newline": _lines(*BODY).rstrip("\n").encode(),
    "byte-order mark": b"\xef\xbb\xbf" + _lines(*BODY).encode(),
    "non-utf-8 byte": _lines(*BODY[:2], "1,@,2", BODY[3]).encode().replace(b"@", b"\xff"),
    # size
    "header only": _lines().encode(),
    "one data row": _lines(BODY[0]).encode(),
}
CLEAN = {"plain", "spaces around cells", "overflow to inf", "nan", "inf", "infinity", "blank lines",
         "crlf", "cr only", "no final newline", "byte-order mark", "one data row",
         "ascii separator after a number"}
HEADERS = {"first": "Y,X1,X2", "middle": "X1,Y,X2", "last": "X1,X2,Y"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("place", sorted(HEADERS))
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_c_reader_agrees_with_the_python_loop(tmp_path, monkeypatch, case, place):
    path = tmp_path / "design.csv"
    path.write_bytes(CORPUS[case].replace(b"Y,X1,X2", HEADERS[place].encode(), 1))
    expected = _python_loop(monkeypatch, path, "Y")

    real = np.loadtxt
    read = []

    def spy(*args, **kwargs):
        data = real(*args, **kwargs)
        read.append(data.shape)
        return data

    monkeypatch.setattr(np, "loadtxt", spy)
    assert _outcome(path, "Y") == expected
    if case in CLEAN:  # the C reader, not the rerun, read these
        assert read and read[0][1] == 3


@pytest.mark.parametrize("cell, c_reader", [("1\x1c", True), ('"1\x1c"', False)])
def test_both_readers_strip_an_ascii_separator(tmp_path, monkeypatch, cell, c_reader):
    # numpy's C reader strips 0x1C-0x1F around a number; the csv-module
    # loop, which takes the quoted cell, strips them too
    path = tmp_path / "sep.csv"
    path.write_text(f"Y,X1\n{cell},2\n3,4\n5,7\n", encoding="utf-8")
    real = np.loadtxt
    read = []

    def spy(*args, **kwargs):
        data = real(*args, **kwargs)
        read.append(data.shape)
        return data

    monkeypatch.setattr(np, "loadtxt", spy)
    X, y, names = load_csv(path, "Y")
    assert y.tolist() == [1.0, 3.0, 5.0] and X[:, 0].tolist() == [2.0, 4.0, 7.0] and names == ("X1",)
    assert bool(read) is c_reader


def _write_layout_design(path, n, place):
    rng = np.random.default_rng(20)
    data = rng.standard_normal((n, 5)) * [1.0, 3.0, 1e3, 0.5, 7.0] + [0.0, 2.0, -1e3, 5.0, 1.0]
    header = ["X1", "X2", "X3", "X4"]
    header.insert(place, "Y")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in data.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


@pytest.mark.parametrize("place", [0, 2, 4])
def test_loaded_design_keeps_the_row_order_of_the_python_loop(tmp_path, place):
    # n is above numpy's 8192-element reduction buffer, where a column-major
    # feature block sums its columns in another order than a row-major one
    path = tmp_path / "layout.csv"
    _write_layout_design(path, 20_000, place)
    rows = standardized_rows(*load_csv(path, "Y"))
    d = StandardizedDesign(*rows)
    assert rows[0].flags.c_contiguous and rows[1].flags.c_contiguous

    # the design as built from the csv module's cells, split by np.delete
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    data = np.asarray([[float(c) for c in row] for row in records[1:]], dtype=float)
    ref_rows = standardized_rows(
        np.delete(data, place, axis=1), data[:, place], tuple(records[0][:place] + records[0][place + 1:])
    )
    ref = StandardizedDesign(*ref_rows)
    assert d.names == ref.names
    for got, want in [(rows[0], ref_rows[0]), (rows[1], ref_rows[1]), (d.triangle, ref.triangle)]:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


LONG = "x" * (csv.field_size_limit() + 1)
OVER_LIMIT = {
    "header": ("Y,X1," + LONG + "\n1,2,3\n4,5,6\n7,8,0\n", 1),
    "data row": ("Y,X1,X2\n1,2,3\n4," + LONG + ",6\n7,8,0\n", 3),
}


@pytest.mark.parametrize("where", sorted(OVER_LIMIT))
def test_a_cell_over_the_csv_field_limit_names_its_row(tmp_path, where):
    text, row = OVER_LIMIT[where]
    path = tmp_path / "long.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=rf"^row {row} cannot be read: field larger than field limit"):
        load_csv(path, "Y")


@pytest.mark.parametrize("command", [["audit"], ["select", "--algo", "stepwise"]])
@pytest.mark.parametrize("where", sorted(OVER_LIMIT))
def test_a_cell_over_the_csv_field_limit_exits_one(tmp_path, capsys, where, command):
    text, row = OVER_LIMIT[where]
    path = tmp_path / "long.csv"
    path.write_text(text)
    assert main([command[0], str(path), "--response", "Y", *command[1:]]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: row {row} cannot be read")
