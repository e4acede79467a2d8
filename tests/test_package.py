"""The package namespace resolves each exported name on first use."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import r2audit
from r2audit import cli
from r2audit.errors import AuditError

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh():
    """A second copy of the package module, with no name resolved yet; its
    submodules are the ones already imported."""
    spec = importlib.util.spec_from_file_location("r2audit", r2audit.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys\n"
        "import r2audit\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('numpy', 'r2audit.')))\n"
        "assert not loaded, loaded\n"
        "assert r2audit.setfun is sys.modules['r2audit.setfun']\n"
        "assert 'r2audit.cli' not in sys.modules and 'r2audit.geometry2d' not in sys.modules\n"
        "assert r2audit.load_csv is sys.modules['r2audit.regress'].load_csv\n"
        "assert vars(r2audit)['load_csv'] is r2audit.load_csv\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_each_export_is_the_defining_modules_object(fresh):
    for name in fresh.__all__:
        value = getattr(fresh, name)
        assert value.__module__.startswith("r2audit."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert vars(fresh)[name] is value


def test_exports_table_is_all(fresh):
    assert sorted(fresh._MODULE_OF) == sorted(fresh.__all__)


def test_dir_lists_every_export_before_use(fresh):
    assert set(fresh.__all__) <= set(dir(fresh))
    assert not set(fresh.__all__) & set(vars(fresh))


def test_unknown_name_raises_attribute_error(fresh):
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fresh.no_such_name
    assert not hasattr(fresh, "no_such_name")


def test_star_import_binds_every_export(fresh, monkeypatch):
    monkeypatch.setitem(sys.modules, "r2audit", fresh)
    namespace: dict = {}
    exec("from r2audit import *", namespace)
    assert {name: namespace[name] for name in fresh.__all__} == {
        name: getattr(r2audit, name) for name in r2audit.__all__
    }


def test_submodule_resolves_from_the_namespace(fresh):
    assert fresh.setfun is sys.modules["r2audit.setfun"]
    assert fresh.geometry2d is sys.modules["r2audit.geometry2d"]


def _readme_public_names() -> dict[str, tuple[str, str]]:
    """name -> (module, use) of each row of README's public-name table."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    table = text.split("| name | module | use |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        match = re.fullmatch(r"\| `(\w+)` \| `(\w+)` \| (.+) \|", line)
        assert match, line
        name, module, use = match.groups()
        assert name not in rows, name
        rows[name] = (module, use)
    return rows


def test_readme_lists_every_public_name_with_its_use(fresh):
    rows = _readme_public_names()
    assert sorted(rows) == fresh.__all__
    for name, (module, use) in rows.items():
        assert module == fresh._MODULE_OF[name], name
        # reached from a command, named first, or library-only with a reason
        assert re.fullmatch(r"command: `(audit|grid|select|gen)\b.*|library-only: \w.*", use), (name, use)


# Tiny runs of each command: every option the table's rows name, each
# --algo and each generator. Then one refused run per command; a refusal
# that raises an AuditError reaches AuditError, which has no constructor of
# its own to see called.
RUNS = {
    "audit": [["audit", "{csv}", "--response", "Y", "--k", "2", "--alpha", "3",
               "--certificates", "{tmp}/certs.jsonl", "--out", "{tmp}/report.json"]],
    "select": [["select", "{csv}", "--response", "Y", "--algo", "stepwise", "--k", "2", "--out", "{tmp}/s.jsonl"],
               ["select", "{csv}", "--response", "Y", "--algo", "best", "--k", "2", "--out", "{tmp}/s.jsonl"],
               ["select", "{csv}", "--response", "Y", "--algo", "sis", "--d", "2", "--out", "{tmp}/s.jsonl"],
               ["select", "{csv}", "--response", "Y", "--algo", "isis", "--d", "1", "--rounds", "2",
                "--out", "{tmp}/s.jsonl"]],
    "grid": [["grid", "--theta-steps", "4", "--v-steps", "4", "--svg", "{tmp}/svg", "--out", "{tmp}/grid.csv"]],
    "gen": [["gen", "miller", "--out", "{tmp}/gen.csv"],
            ["gen", "suppressor", "--p", "3", "--out", "{tmp}/gen.csv"],
            ["gen", "gaussian", "--n", "10", "--m", "3", "--out", "{tmp}/gen.csv"]],
}
REFUSED = {
    "audit": ["audit", "{flat}", "--response", "Y", "--out", "{tmp}/report.json"],
    "select": ["select", "{flat}", "--response", "Y", "--algo", "best", "--out", "{tmp}/s.jsonl"],
    "grid": ["grid", "--theta-steps", "1", "--out", "{tmp}/grid.csv"],
    "gen": ["gen", "suppressor", "--p", "3", "--n", "3", "--out", "{tmp}/gen.csv"],
}


def _export_codes() -> dict:
    """Exported name of the code of each exported function and of each
    exported class's own __new__ and __init__."""
    codes = {}
    for name in r2audit.__all__:
        value = getattr(r2audit, name)
        if isinstance(value, type):
            functions = [vars(value)[attr] for attr in ("__new__", "__init__") if attr in vars(value)]
        else:
            functions = [value]
        for function in functions:
            codes[getattr(function, "__func__", function).__code__] = name
    return codes


def _reached(argv: list[str], codes: dict) -> tuple[int, set[str]]:
    """The exit code of one in-process run of the CLI, and the exported
    names the run calls or constructs, with AuditError if it handles one."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            reached.add(codes[frame.f_code])
        if isinstance(sys.exc_info()[1], AuditError):
            reached.add("AuditError")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(previous)
    return code, reached


def test_each_command_reaches_the_names_readme_gives_it(tmp_path, capsys):
    csv, flat = tmp_path / "g.csv", tmp_path / "flat.csv"
    assert cli.main(["gen", "gaussian", "--n", "12", "--m", "4", "--seed", "3", "--out", str(csv)]) == 0
    flat.write_text("Y,X1,X2\n1,1,2\n2,1,3\n3,1,5\n4,1,4\n", encoding="utf-8")  # X1 is constant
    codes = _export_codes()
    # every exported class but AuditError has a constructor of its own
    assert set(codes.values()) == set(r2audit.__all__) - {"AuditError"}

    def fill(argv):
        return [arg.format(csv=csv, flat=flat, tmp=tmp_path) for arg in argv]

    by_command = {}
    for command, runs in RUNS.items():
        by_command[command] = set()
        for argv in runs:
            code, reached = _reached(fill(argv), codes)
            assert code == 0, argv
            by_command[command] |= reached
        code, reached = _reached(fill(REFUSED[command]), codes)
        assert code == 1 and "error: " in capsys.readouterr().err, command
        by_command[command] |= reached
    for name, (_, use) in _readme_public_names().items():
        if use.startswith("library-only:"):
            assert not any(name in reached for reached in by_command.values()), name
            continue
        commands = set(re.findall(r"`(audit|grid|select|gen)\b[^`]*`", use.split(";", 1)[0]))
        assert commands, (name, use)
        for command in commands:
            assert name in by_command[command], (name, command)


def test_version_matches_the_project_metadata():
    # read with a regex: Python 3.10 has no tomllib
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]+)"$', project, re.MULTILINE) == [r2audit.__version__]


def test_every_top_level_definition_in_src_is_exported_or_used():
    # A top-level function, class or assigned name of src/ is in __all__ or
    # read by another top-level statement of src/; dunder names such as
    # __getattr__ and __version__ are exempt. A name only its own body reads
    # is unused.
    defined, reads = [], []
    for path in sorted((SRC / "r2audit").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owned = set()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owned = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                owned = {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
            owners = {(path.name, name) for name in owned}
            defined += owners
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append((owners, names))
    unused = [
        f"{module}: {name}"
        for module, name in sorted(defined)
        if name not in r2audit.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for owners, names in reads if (module, name) not in owners)
    ]
    assert not unused


def test_readme_library_example_runs():
    # README's Library block, run as written on a fixed design
    from r2audit import random_gaussian
    from r2audit.selection import NwfResult

    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```\n", 1)[0]
    X, y = random_gaussian(200, 8, seed=7)
    namespace = {"X": X, "y": y}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["table"].m == 8
    assert 0.0 <= namespace["gamma_s"].gamma_s <= namespace["gamma"].gamma_s2
    assert namespace["ratio"].gamma_sr > 0.0 and len(namespace["ratio"].argmin) == 2
    assert namespace["optimal"].r_squared >= namespace["trace"].final_r_squared()
    assert isinstance(namespace["guarantee"], NwfResult)
