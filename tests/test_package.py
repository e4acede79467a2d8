"""The package namespace resolves each exported name on first use."""

import importlib
import importlib.util
import os
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
