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


def test_every_top_level_definition_in_src_is_exported_or_used():
    # A top-level function or class of src/ is in __all__ or read by another
    # top-level statement of src/; dunder module hooks such as __getattr__
    # are exempt. A name only its own body reads is unused.
    defined, reads = [], []
    for path in sorted((SRC / "r2audit").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.name, node.name)
                defined.append(owner)
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.append((owner, names))
    unused = [
        f"{module}: {name}"
        for module, name in defined
        if name not in r2audit.__all__
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name in names for owner, names in reads if owner != (module, name))
    ]
    assert not unused
