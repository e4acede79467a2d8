import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import setfun_oracle as oracle
from report_oracle import certificate_jsonable
from r2audit import cli, load_csv, sis_screen, standardize
from r2audit.cli import main
from r2audit.datasets import miller_table, write_csv
from r2audit.jsonsafe import sanitize


@pytest.fixture
def miller_csv(tmp_path):
    path = tmp_path / "miller.csv"
    assert main(["gen", "miller", "--out", str(path)]) == 0
    return path


def test_gen_miller_round_trips(miller_csv):
    lines = miller_csv.read_text().splitlines()
    assert lines[0] == "Y,X1,X2,X3"
    assert len(lines) == 5
    X, y, _ = miller_table()
    parsed = [[float(c) for c in line.split(",")] for line in lines[1:]]
    assert np.allclose([row[0] for row in parsed], y)


def test_gen_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["gen", "gaussian", "--n", "40", "--m", "5", "--seed", "7", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_suppressor_realization(tmp_path):
    path = tmp_path / "sup.csv"
    assert main(["gen", "suppressor", "--p", "3", "--sz", "1", "--se", "3", "--n", "8", "--out", str(path)]) == 0
    from r2audit import load_csv, standardize

    raw, resp, names = load_csv(path, "Y")
    d = standardize(raw, resp, names)
    r = d.marginal_correlations()
    assert abs(r[0] - 1 / math.sqrt(30)) < 1e-9


def test_gen_gaussian_requires_n(capsys):
    assert main(["gen", "gaussian", "--m", "3"]) == 1
    assert "requires --n" in capsys.readouterr().err


def test_audit_miller_report(miller_csv, tmp_path):
    out = tmp_path / "report.json"
    assert main(["audit", str(miller_csv), "--response", "Y", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "2"
    assert report["selection"]["forward_stepwise"]["steps"][0]["feature"] == "X3"
    assert report["selection"]["best_subset"]["subset"] == ["X1", "X2"]
    assert report["selection"]["nwf"]["is_submodular"] is False
    assert report["selection"]["nwf"]["guarantee_holds"] is False
    assert report["violations"]["second_order"]["count"] > 0
    assert report["violations"]["suppression"]["count"] > 0
    assert report["gamma"]["gamma_s2"]["value"] < 1e-3
    assert report["sis"]["ranking"][0]["feature"] == "X3"


def test_audit_orthogonal_design(tmp_path):
    from conftest import make_orthogonal_rows

    path = tmp_path / "orth.csv"
    write_csv(path, *make_orthogonal_rows([0.6, 0.4, 0.2], n=8))
    out = tmp_path / "report.json"
    assert main(["audit", str(path), "--response", "Y", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for key in ("second_order", "suppression"):
        block = report["violations"][key]
        assert block == {"count": 0, "top": [], "by_size": [0, 0], "by_pair": []}
    assert abs(report["gamma"]["gamma_s2"]["value"] - 1.0) < 1e-9
    assert abs(report["gamma"]["gamma_sr"]["exactly_k"]["value"] - 1.0) < 1e-9
    assert report["selection"]["nwf"]["guarantee_holds"] is True


def test_audit_determinism(miller_csv, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["audit", str(miller_csv), "--response", "Y", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("generator", [["miller"], ["suppressor", "--p", "6"]])
def test_certificate_stream_is_json_dumps_of_each_certificate(generator, tmp_path):
    path = tmp_path / "in.csv"
    assert main(["gen", *generator, "--out", str(path)]) == 0
    for run in ("a", "b"):
        args = ["audit", str(path), "--response", "Y", "--k", "3", "--out", str(tmp_path / f"{run}.json")]
        assert main(args + ["--certificates", str(tmp_path / f"{run}.jsonl")]) == 0
    report_bytes, stream = (tmp_path / "a.json").read_bytes(), (tmp_path / "a.jsonl").read_text()
    assert report_bytes == (tmp_path / "b.json").read_bytes()
    assert stream == (tmp_path / "b.jsonl").read_text()

    raw, response, names = load_csv(path, "Y")
    d = standardize(raw, response, names)
    lists = {"second_order": oracle.check_submodular(d), "suppression": oracle.find_suppressors(d)}
    lines = {
        key: [json.dumps(sanitize(certificate_jsonable(c, d.names)), sort_keys=True) for c in certs]
        for key, certs in lists.items()
    }
    assert stream.endswith("\n")
    stream_lines = stream.splitlines()
    count = len(lines["second_order"])
    parts = {"second_order": stream_lines[:count], "suppression": stream_lines[count:]}
    for key, part in parts.items():
        # each part holds exactly the oracle's lines, in walk order: pairs
        # (lo, hi) ascending; for each, its (A, lo, hi) rows, then its
        # (A, hi, lo) rows; within each, masks ascending
        assert sorted(part) == sorted(lines[key])
        places = []
        for line in part:
            sets = json.loads(line)["sets"]
            i, j = d.names.index(sets["i"]), d.names.index(sets["j"])
            mask = sum(1 << d.names.index(name) for name in sets["A" if key == "second_order" else "S"])
            places.append((min(i, j), max(i, j), i > j, mask))
        assert places == sorted(places) and len(set(places)) == len(places)

    report = json.loads(report_bytes)
    for key, certs in lists.items():
        block = report["violations"][key]
        assert block["count"] == len(certs) > 0
        assert block["top"] == [json.loads(line) for line in lines[key][:10]]
        sizes = Counter(len(c.set_dict()["A" if key == "second_order" else "S"]) for c in certs)
        assert block["by_size"] == [sizes[size] for size in range(d.m - 1)]
        pairs = Counter((c.set_dict()["i"][0], c.set_dict()["j"][0]) for c in certs)
        assert block["by_pair"] == [
            {"i": d.names[i], "j": d.names[j], "count": pairs[i, j]} for i, j in sorted(pairs)
        ]


def test_m12_report_is_bounded_and_its_summaries_add_up(tmp_path):
    path, out = tmp_path / "in.csv", tmp_path / "report.json"
    assert main(["gen", "gaussian", "--n", "200", "--m", "12", "--seed", "7", "--out", str(path)]) == 0
    assert main(["audit", str(path), "--response", "Y", "--k", "3", "--out", str(out)]) == 0
    assert out.stat().st_size < 1_000_000
    report = json.loads(out.read_text())
    names = report["input"]["features"]
    second, suppression = report["violations"]["second_order"], report["violations"]["suppression"]
    for block in (second, suppression):
        assert len(block["top"]) == 10 and len(block["by_size"]) == 11
        assert sum(block["by_size"]) == block["count"] == sum(p["count"] for p in block["by_pair"])
        keys = [(names.index(p["i"]), names.index(p["j"])) for p in block["by_pair"]]
        assert keys == sorted(set(keys)) and all(p["count"] > 0 for p in block["by_pair"])
    # one comparison selects both lists
    assert {k: second[k] for k in ("count", "by_size", "by_pair")} == {
        k: suppression[k] for k in ("count", "by_size", "by_pair")
    }


def test_audit_partial_when_too_wide(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 6))
    y = X @ rng.uniform(-1, 1, 6) + rng.standard_normal(30)
    path = tmp_path / "wide.csv"
    write_csv(path, X, y)
    out = tmp_path / "report.json"
    certs = tmp_path / "certs.jsonl"
    args = ["audit", str(path), "--response", "Y", "--max-enum", "4", "--out", str(out)]
    assert main(args + ["--certificates", str(certs)]) == 2
    assert not certs.exists()  # the lists were not computed
    report = json.loads(out.read_text())
    assert report["partial"] is True
    assert "gamma" in report["skipped_diagnostics"]
    assert "forward_stepwise" in report["selection"]  # cheap sections still present


def test_audit_refuses_an_unwritable_certificate_path_before_the_pair_walk(tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.csv"
    assert main(["gen", "gaussian", "--n", "40", "--m", "6", "--out", str(path)]) == 0
    walks = []
    monkeypatch.setattr(cli, "_second_order_summary", lambda *args: walks.append(args))
    certs = tmp_path / "missing" / "certs.jsonl"
    args = ["audit", str(path), "--response", "Y", "--out", str(tmp_path / "r.json"), "--certificates", str(certs)]
    assert main(args) == 1
    assert "error" in capsys.readouterr().err
    assert walks == [] and not certs.exists()


@pytest.mark.parametrize("max_enum", ["100", "63"])
def test_audit_over_the_hard_cap_is_partial(tmp_path, max_enum):
    # 64 features exceed the bitmask cap of 63 whatever --max-enum says
    path = tmp_path / "g64.csv"
    assert main(["gen", "gaussian", "--n", "100", "--m", "64", "--seed", "1", "--out", str(path)]) == 0
    out = tmp_path / "report.json"
    assert main(["audit", str(path), "--response", "Y", "--max-enum", max_enum, "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["partial"] is True
    assert report["skipped_diagnostics"] == ["gamma", "violations", "best_subset", "nwf", "spectral"]


def test_audit_missing_file(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope.csv"), "--response", "Y"]) == 1
    assert "error" in capsys.readouterr().err


def test_audit_bad_response_name(miller_csv, capsys):
    assert main(["audit", str(miller_csv), "--response", "Z"]) == 1


def test_audit_rejects_nan_cells(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("Y,X1\n1.0,2.0\nnan,3.0\n2.0,4.0\n")
    assert main(["audit", str(path), "--response", "Y"]) == 1
    assert "NaN" in capsys.readouterr().err


def test_audit_single_feature(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(10)
    y = x + 0.1 * rng.standard_normal(10)
    path = tmp_path / "one.csv"
    write_csv(path, x[:, None], y)
    out = tmp_path / "r.json"
    assert main(["audit", str(path), "--response", "Y", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["gamma"]["gamma_s2"]["value"] == "inf"  # no comparisons exist
    assert report["selection"]["nwf"]["is_submodular"] is True


def test_grid_determinism_and_shape(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["grid", "--theta-steps", "30", "--v-steps", "30", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("theta,v,tau,r12,")
    assert all(len(line.split(",")) == 13 for line in lines)


def test_grid_runtime_small(tmp_path):
    import time

    start = time.monotonic()
    assert main(["grid", "--theta-steps", "10", "--v-steps", "10", "--out", str(tmp_path / "g.csv")]) == 0
    assert time.monotonic() - start < 1.0


def test_grid_svg_outputs(tmp_path):
    svg_dir = tmp_path / "svg"
    assert main(
        ["grid", "--theta-steps", "12", "--v-steps", "12", "--out", str(tmp_path / "g.csv"), "--svg", str(svg_dir)]
    ) == 0
    made = sorted(p.name for p in svg_dir.iterdir())
    assert made == [
        "gamma1.svg",
        "gamma2.svg",
        "gamma_s2.svg",
        "gamma_sr.svg",
        "sum_bound.svg",
        "t_ratio_bound.svg",
    ]


@pytest.mark.parametrize("bad", [["--theta-steps", "1"], ["--r2-full", "0"]])
def test_grid_checks_arguments_before_writing(tmp_path, capsys, bad):
    out, svg_dir = tmp_path / "g.csv", tmp_path / "svg"
    assert main(["grid", *bad, "--out", str(out), "--svg", str(svg_dir)]) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() and not svg_dir.exists()


def test_grid_memory_does_not_grow_with_the_grid(tmp_path):
    """The grid is evaluated and written a block of theta lines at a time, so
    a 600 x 600 grid (9 times the cells) peaks within 2 MiB of a 200 x 200 one."""
    peaks = []
    for steps in ("200", "600"):
        args = ["grid", "--theta-steps", steps, "--v-steps", steps]
        args += ["--out", str(tmp_path / "g.csv"), "--svg", str(tmp_path / "svg")]
        tracemalloc.start()
        try:
            assert main(args) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 << 20, peaks


def test_select_stepwise_first_line(miller_csv, tmp_path):
    out = tmp_path / "trace.jsonl"
    assert main(
        ["select", str(miller_csv), "--response", "Y", "--algo", "stepwise", "--k", "2", "--out", str(out)]
    ) == 0
    first = json.loads(out.read_text().splitlines()[0])
    assert first["feature"] == "X3"


def test_select_best_subset(miller_csv, tmp_path):
    out = tmp_path / "best.jsonl"
    assert main(
        ["select", str(miller_csv), "--response", "Y", "--algo", "best", "--k", "2", "--out", str(out)]
    ) == 0
    record = json.loads(out.read_text())
    assert record["subset"] == ["X1", "X2"]


def test_select_sis_ranking(tmp_path):
    path, out = tmp_path / "in.csv", tmp_path / "sis.jsonl"
    assert main(["gen", "gaussian", "--n", "40", "--m", "6", "--seed", "7", "--out", str(path)]) == 0
    assert main(["select", str(path), "--response", "Y", "--algo", "sis", "--d", "4", "--out", str(out)]) == 0
    d = standardize(*load_csv(path, "Y"))
    corr = d.marginal_correlations()
    expected = [
        {"rank": rank, "feature": d.names[i], "abs_correlation": abs(float(corr[i]))}
        for rank, i in enumerate(sis_screen(d, 4), start=1)
    ]
    text = out.read_text()
    assert text.endswith("\n") and [json.loads(line) for line in text.splitlines()] == expected


def test_select_isis_rounds(miller_csv, tmp_path):
    out = tmp_path / "isis.jsonl"
    assert main(
        ["select", str(miller_csv), "--response", "Y", "--algo", "isis", "--d", "1", "--rounds", "3", "--out", str(out)]
    ) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["round"] for line in lines[:3]] == [1, 2, 3]
    assert lines[3]["selected"] == ["X1", "X2", "X3"]


def test_select_determinism(miller_csv, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(
            ["select", str(miller_csv), "--response", "Y", "--algo", "stepwise", "--k", "2", "--out", str(out)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_algorithm_exits_one(miller_csv, capsys):
    assert main(["select", str(miller_csv), "--response", "Y", "--algo", "magic"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["select"]) == 1


def test_unwritable_output_exits_one(capsys):
    assert main(["gen", "miller", "--out", "/nonexistent-dir/out.csv"]) == 1
    assert "error" in capsys.readouterr().err


def test_out_of_range_values_exit_one(miller_csv, capsys):
    assert main(["grid", "--theta-steps", "1"]) == 1
    capsys.readouterr()
    for algo in ("stepwise", "best"):
        assert main(["select", str(miller_csv), "--response", "Y", "--algo", algo, "--k", "0"]) == 1
        assert capsys.readouterr().err == "error: k must lie in 1..3\n", algo
    assert main(["gen", "suppressor", "--p", "1"]) == 1
    assert main(["gen", "gaussian", "--n", "4", "--m", "5"]) == 1
    capsys.readouterr()


def test_audit_with_alpha_never_loads_numpy_random(miller_csv, tmp_path):
    # restricted_eigenvalue draws its restarts from the stdlib random module;
    # importing numpy.random costs an audit process about 15 ms. The grid's
    # and gen's modules load only with their own commands, so neither audit
    # nor select loads them.
    code = (
        "import sys\n"
        "import numpy\n"
        "watched = ['r2audit.geometry2d', 'r2audit.datasets']\n"
        "if 'numpy.random' not in sys.modules:\n"
        "    watched.append('numpy.random')\n"
        "from r2audit.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(m for m in watched if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    audit = ["audit", str(miller_csv), "--response", "Y", "--k", "2", "--alpha", "3", "--out", str(tmp_path / "r.json")]
    select = ["select", str(miller_csv), "--response", "Y", "--algo", "best", "--k", "2", "--out", str(tmp_path / "s.jsonl")]
    for args in (audit, select):
        result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [], args[0]
    assert "restricted_eigenvalue" in json.loads((tmp_path / "r.json").read_text())["spectral"]


def test_audit_alpha_nan_exits_one_and_inf_still_runs(miller_csv, tmp_path, capsys):
    args = ["audit", str(miller_csv), "--response", "Y", "--k", "2", "--out", str(tmp_path / "r.json")]
    assert main(args + ["--alpha", "nan"]) == 1
    assert capsys.readouterr().err == "error: alpha must be at least 1\n"
    assert main(args + ["--alpha", "inf"]) == 0
    cone = json.loads((tmp_path / "r.json").read_text())["spectral"]["restricted_eigenvalue"]
    assert cone["alpha"] == "inf" and cone["subset"] == ["X1", "X2"]


def test_audit_checks_alpha_before_the_enumeration(miller_csv, tmp_path, capsys, monkeypatch):
    from r2audit import cli

    def no_table(*args):
        raise AssertionError("the fit table was filled before alpha was checked")

    monkeypatch.setattr(cli, "fit_table", no_table)
    out = tmp_path / "r.json"
    assert main(["audit", str(miller_csv), "--response", "Y", "--k", "3", "--alpha", "0.5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: alpha must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_audit_checks_k_before_the_enumeration(miller_csv, tmp_path, capsys, monkeypatch, k):
    from r2audit import cli

    def no_table(*args):
        raise AssertionError("the fit table was filled before k was checked")

    monkeypatch.setattr(cli, "fit_table", no_table)
    out = tmp_path / "r.json"
    assert main(["audit", str(miller_csv), "--response", "Y", "--k", k, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: k must lie in 1..3\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "m, message",
    [("0", "need at least one feature"), ("-2", "need at least one feature"), ("4", "need n >= m + 2 observations")],
)
def test_gen_gaussian_says_what_it_lacks(tmp_path, capsys, m, message):
    out = tmp_path / "g.csv"
    assert main(["gen", "gaussian", "--n", "5", "--m", m, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["gaussian", "--n", "10", "--m", "3", "--sigma-noise", "nan"], "--sigma-noise must be finite"),
        (["gaussian", "--n", "10", "--m", "3", "--sigma-noise", "inf"], "--sigma-noise must be finite"),
        (["gaussian", "--n", "10", "--m", "3", "--sigma-noise", "-1"], "--sigma-noise must be nonnegative"),
        (["gaussian", "--n", "10", "--m", "3", "--beta", "1,nan,2"], "--beta must be finite"),
        (["gaussian", "--n", "10", "--m", "3", "--beta", "1,2,-inf"], "--beta must be finite"),
        (["suppressor", "--sz", "nan"], "--sz must be finite"),
        (["suppressor", "--se", "nan"], "--se must be finite"),
        (["suppressor", "--sz", "inf"], "--sz must be finite"),
    ],
)
def test_gen_refuses_non_finite_parameters_before_writing(tmp_path, capsys, args, flag):
    out = tmp_path / "g.csv"
    assert main(["gen", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag}\n"
    assert not out.exists()


def test_gen_accepts_zero_noise(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gen", "gaussian", "--n", "6", "--m", "2", "--sigma-noise", "0", "--beta", "1,-2", "--out", str(out)]) == 0
    X, y, _ = load_csv(out, "Y")
    assert np.allclose(y, X @ [1.0, -2.0])
