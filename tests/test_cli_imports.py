"""Each CLI command loads only its own modules, and the names the benchmark's
tracer wraps on ``r2audit.cli`` still reach the functions the commands call."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from r2audit import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

# Runs the CLI in-process and prints the r2audit modules, and dataclasses
# and json if they are loaded, that the run left in sys.modules.
LOADED = (
    "import sys\n"
    "from r2audit.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('r2audit') or m in ('dataclasses', 'json'))))\n"
)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "g.csv"
    assert cli.main(["gen", "gaussian", "--n", "40", "--m", "5", "--seed", "3", "--out", str(path)]) == 0
    return path


def _loaded(*args) -> set[str]:
    result = subprocess.run([sys.executable, "-c", LOADED, *map(str, args)], env=ENV, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_grid_loads_only_the_geometry(tmp_path):
    loaded = _loaded("grid", "--theta-steps", 3, "--v-steps", 3, "--out", tmp_path / "g.csv")
    assert loaded == {"r2audit", "r2audit.cli", "r2audit.errors", "r2audit.geometry2d"}


@pytest.mark.parametrize(
    "command, absent",
    [
        (["select", "{csv}", "--response", "Y", "--algo", "best", "--k", "2"],
         {"setfun", "gamma", "spectral", "geometry2d", "datasets"}),
        (["audit", "{csv}", "--response", "Y", "--k", "2", "--alpha", "3"], {"geometry2d", "datasets"}),
        (["gen", "gaussian", "--n", "10", "--m", "3"], {"setfun", "selection", "gamma", "spectral", "geometry2d"}),
    ],
)
def test_command_loads_none_of_the_others_modules(small_csv, tmp_path, command, absent):
    args = [small_csv if arg == "{csv}" else arg for arg in command]
    loaded = _loaded(*args, "--out", tmp_path / "out")
    forbidden = {f"r2audit.{module}" for module in absent} | {"dataclasses"}
    assert "r2audit.cli" in loaded
    assert not loaded & forbidden, loaded & forbidden


def _imports(path: Path) -> set[str]:
    """The last dotted part of every module and name a source file imports,
    at its top or in a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        names.update(module.rsplit(".", 1)[-1] for module in modules)
    return names


def test_only_the_cli_loads_the_output_encoding():
    """jsonsafe is the one module that knows the output encoding, and cli,
    which writes every output, is the one module that loads it (through its
    library table): no module in src/ imports it, at its top or in a
    function."""
    importers = {path.name for path in (ROOT / "src" / "r2audit").glob("*.py") if "jsonsafe" in _imports(path)}
    assert importers == set()
    assert "jsonsafe" in cli._LIBRARY


def test_the_geometry_imports_nothing_from_the_fit_layer():
    """No grid path can load regress: geometry2d imports neither the module
    nor a name from it, at its top or in a function."""
    imports = _imports(ROOT / "src" / "r2audit" / "geometry2d.py")
    assert {"numpy", "errors"} <= imports
    assert "regress" not in imports


def test_the_library_table_binds_only_names_a_command_reads():
    """Each name in cli's library table is read when a command runs, not
    only in an annotation, which `from __future__ import annotations` leaves
    unevaluated."""
    tree = ast.parse((ROOT / "src" / "r2audit" / "cli.py").read_text(encoding="utf-8"))
    in_annotations = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            in_annotations.update(map(id, ast.walk(node.annotation)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            in_annotations.update(map(id, ast.walk(node.returns)))
        elif isinstance(node, ast.AnnAssign):
            in_annotations.update(map(id, ast.walk(node.annotation)))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in in_annotations
    }
    bound = {name for names in cli._LIBRARY.values() for name in names}
    assert bound <= read, bound - read


def _traced_spans(tmp_path, *args) -> Counter:
    spans = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "1", *map(str, args)],
        env=ENV, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return Counter(span["name"] for span in json.loads(spans.read_text())["spans"])


def test_tracer_spans_every_layer_the_audit_calls(small_csv, tmp_path):
    names = _traced_spans(tmp_path, "audit", small_csv, "--response", "Y", "--k", 3, "--alpha", 3,
                          "--out", tmp_path / "r.json")
    assert set(names) == {
        "cli.main",
        "regress.load_csv",
        "regress.standardize",
        "cli.build_audit_report",
        "selection.forward_stepwise",
        "selection.best_subset",
        "setfun.empirical_gamma_s",
        "gamma.submodularity_ratio",
        "spectral.sparse_min_eigenvalue",
        "spectral.restricted_eigenvalue",
    }
    assert names["gamma.submodularity_ratio"] == 2  # at most k and exactly k


def test_tracer_spans_best_subset(small_csv, tmp_path):
    names = _traced_spans(tmp_path, "select", small_csv, "--response", "Y", "--algo", "best", "--k", 2,
                          "--out", tmp_path / "s.jsonl")
    assert set(names) == {"cli.main", "regress.load_csv", "regress.standardize", "selection.best_subset"}


def test_library_names_resolve_on_first_read_and_stay_replaceable(monkeypatch):
    from r2audit import regress, setfun

    assert cli.load_csv is regress.load_csv
    assert cli.empirical_gamma_s is setfun.empirical_gamma_s
    monkeypatch.setattr(cli, "load_csv", "replaced")
    cli._bind("regress")
    assert cli.load_csv == "replaced"
    for name in ("nwf_check", "empirical_gamma_s2"):  # no command calls them
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(cli, name)
