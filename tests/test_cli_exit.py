"""The script's exit path: ``entrypoint`` flushes standard output and error
and ends the process with os._exit, skipping the interpreter's teardown.

Each subprocess runs with PYTHONUNBUFFERED removed, so standard output is
block-buffered whenever it is not a terminal, as in a pipeline. The guards
at the end check what os._exit would lose: every command closes the files it
opens before main returns, and no module registers an atexit callback.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from r2audit import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {
    **{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
    "COLUMNS": "80",
}
SCRIPT = [sys.executable, "-m", "r2audit.cli"]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit") / "g.csv"
    assert cli.main(["gen", "gaussian", "--n", "40", "--m", "5", "--seed", "3", "--out", str(path)]) == 0
    return path


def _script(*args, stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([*SCRIPT, *map(str, args)], env=ENV, stdout=stdout, stderr=subprocess.PIPE, **kwargs)


COMMANDS = {
    "audit": ["audit", "{csv}", "--response", "Y", "--k", "3", "--alpha", "3"],
    "select-best": ["select", "{csv}", "--response", "Y", "--algo", "best", "--k", "2"],
    "select-stepwise": ["select", "{csv}", "--response", "Y", "--algo", "stepwise", "--k", "3"],
    "select-sis": ["select", "{csv}", "--response", "Y", "--algo", "sis", "--d", "3"],
    "select-isis": ["select", "{csv}", "--response", "Y", "--algo", "isis", "--d", "1", "--rounds", "2"],
    "grid": ["grid", "--theta-steps", "20", "--v-steps", "20"],
    # two blocks: a second process renders one where it may run on a core
    "grid-two-blocks": ["grid", "--theta-steps", "100", "--v-steps", "100"],
    "gen-gaussian": ["gen", "gaussian", "--n", "30", "--m", "4", "--seed", "5"],
    "gen-miller": ["gen", "miller"],
}


def _args(name, csv):
    return [str(csv) if arg == "{csv}" else arg for arg in COMMANDS[name]]


@pytest.mark.parametrize("name", COMMANDS)
def test_piped_stdout_equals_the_out_file(small_csv, tmp_path, name):
    args = _args(name, small_csv)
    assert cli.main([*args, "--out", str(tmp_path / "out")]) == 0
    result = _script(*args)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == (tmp_path / "out").read_bytes()


def test_help_arrives_whole(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    result = _script("--help", text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == cli._build_parser().format_help()


@pytest.mark.parametrize(
    "args, code",
    [
        (["gen", "miller"], 0),
        (["audit", "{csv}"], 1),  # usage: no --response
        (["audit", "missing.csv", "--response", "Y"], 1),
        (["audit", "{csv}", "--response", "Y", "--max-enum", "3"], 2),  # m = 5: partial
    ],
    ids=["success", "usage", "missing-csv", "partial"],
)
def test_exit_codes_survive_the_exit(small_csv, tmp_path, args, code):
    result = _script(*[small_csv if arg == "{csv}" else arg for arg in args], cwd=tmp_path, text=True)
    assert result.returncode == code, result.stderr
    if code == 1:
        assert "error: " in result.stderr
    else:
        assert result.stderr == "" and result.stdout


def _assert_io_error(result):
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error: "), result.stderr
    assert "Exception ignored" not in result.stderr


# select's one line stays in the buffer until entrypoint flushes it; the
# audit's report is larger than the buffer, so main itself fails to write it
@pytest.mark.parametrize("name", ["select-best", "audit"])
def test_stdout_into_a_closed_pipe_is_an_io_error(small_csv, name):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _script(*_args(name, small_csv), stdout=write_end, text=True)
    finally:
        os.close(write_end)
    _assert_io_error(result)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["select-best", "audit"])
def test_stdout_into_a_full_device_is_an_io_error(small_csv, name):
    with open("/dev/full", "wb") as full:
        result = _script(*_args(name, small_csv), stdout=full, text=True)
    _assert_io_error(result)
    assert "No space left on device" in result.stderr


# a process started with standard output closed (`>&-`) has sys.stdout None
@pytest.mark.parametrize("name", ["gen-miller", "grid", "select-best", "audit"])
def test_closed_stdout_is_an_io_error(small_csv, name):
    closed = ["sh", "-c", 'exec "$@" >&-', "sh", *SCRIPT, *_args(name, small_csv)]
    result = subprocess.run(closed, env=ENV, stderr=subprocess.PIPE, text=True)
    assert (result.returncode, result.stderr) == (1, "error: standard output is closed\n")


def test_closed_stdout_fails_the_grid_before_it_forks(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a grid worker was forked")

    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["grid", "--theta-steps", "20", "--v-steps", "20"]) == 1
    assert capsys.readouterr().err == "error: standard output is closed\n"


def _refuse(*args, **kwargs):
    raise AssertionError("the command ran although it should have been refused")


@pytest.mark.parametrize(
    "args, step",
    [
        (["audit", "{csv}", "--response", "Y", "--k", "3"], "r2audit.cli.fit_table"),
        (["gen", "gaussian", "--n", "30", "--m", "4"], "r2audit.datasets.random_gaussian"),
    ],
    ids=["audit", "gen-gaussian"],
)
def test_closed_stdout_is_refused_before_the_command_runs(small_csv, monkeypatch, capsys, args, step):
    monkeypatch.setattr(step, _refuse)
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main([str(small_csv) if arg == "{csv}" else arg for arg in args]) == 1
    assert capsys.readouterr().err == "error: standard output is closed\n"


# ---------------------------------------------------------------------------
# two outputs of one run at one file
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args, flag, shared",
    [
        (["audit", "{csv}", "--response", "Y", "--out", "{out}/same.json", "--certificates", "{out}/same.json"],
         "--certificates", "{out}/same.json"),
        # a hard link to a file already there
        (["audit", "{csv}", "--response", "Y", "--out", "{out}/hard.json", "--certificates", "{out}/kept.json"],
         "--certificates", "{out}/kept.json"),
        # a symbolic link to a file not there yet
        (["audit", "{csv}", "--response", "Y", "--out", "{out}/dangling.json", "--certificates", "{out}/new.json"],
         "--certificates", "{out}/new.json"),
        (["grid", "--theta-steps", "20", "--v-steps", "20", "--out", "{out}/gd/gamma1.svg", "--svg", "{out}/gd"],
         "--svg", "{out}/gd/gamma1.svg"),
        (["grid", "--theta-steps", "20", "--v-steps", "20", "--out", "{out}/gd/../t_ratio_bound.svg", "--svg", "{out}"],
         "--svg", "{out}/t_ratio_bound.svg"),
    ],
    ids=["audit-same-path", "audit-hard-link", "audit-dangling-link", "grid-heatmap", "grid-dotdot"],
)
def test_outputs_at_one_file_are_refused_before_the_command_runs(small_csv, tmp_path, monkeypatch, capsys, args,
                                                                 flag, shared):
    (tmp_path / "gd").mkdir()
    (tmp_path / "kept.json").write_text("kept\n")
    os.link(tmp_path / "kept.json", tmp_path / "hard.json")
    os.symlink(tmp_path / "new.json", tmp_path / "dangling.json")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr("r2audit.cli.load_csv", _refuse)
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", _refuse)
    argv = [arg.replace("{csv}", str(small_csv)).replace("{out}", str(tmp_path)) for arg in args]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: --out and {flag} both write {shared.replace('{out}', str(tmp_path))}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "kept.json").read_text() == "kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_a_device_takes_both_audit_outputs(small_csv):
    assert cli.main(["audit", str(small_csv), "--response", "Y", "--out", "/dev/null", "--certificates", "/dev/null"]) == 0


@pytest.mark.parametrize(
    "args, flag",
    [
        (["select", "m.csv", "--response", "Y", "--algo", "best", "--k", "2", "--out", "m.csv"], "--out"),
        (["select", "m.csv", "--response", "Y", "--algo", "best", "--k", "2", "--out", "./m.csv"], "--out"),
        (["select", "m.csv", "--response", "Y", "--algo", "stepwise", "--k", "2", "--out", "hard.csv"], "--out"),
        (["audit", "m.csv", "--response", "Y", "--k", "2", "--out", "m.csv"], "--out"),
        (["audit", "m.csv", "--response", "Y", "--certificates", "m.csv"], "--certificates"),
        (["audit", "./m.csv", "--response", "Y", "--out", "r.json", "--certificates", "link.csv"], "--certificates"),
    ],
    ids=["select-same", "select-dot-slash", "select-hard-link", "audit-out", "audit-certificates",
         "audit-symbolic-link"],
)
def test_an_output_at_the_input_csv_is_refused_before_it_is_read(tmp_path, monkeypatch, capsys, args, flag):
    """An --out or --certificates that names the input CSV, by the same path,
    another spelling of it or a link to it, exits 1 with one error line
    before the CSV is read, and leaves the CSV as it was."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "miller", "--out", "m.csv"]) == 0
    data = (tmp_path / "m.csv").read_bytes()
    os.link("m.csv", "hard.csv")
    os.symlink("m.csv", "link.csv")
    monkeypatch.setattr("r2audit.cli.load_csv", _refuse)
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {flag} would overwrite the input {args[1]}\n"
    assert (tmp_path / "m.csv").read_bytes() == data
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.csv", "link.csv", "m.csv"]


# ---------------------------------------------------------------------------
# what os._exit skips
# ---------------------------------------------------------------------------


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize(
    "args, workers",
    [
        (["audit", "{csv}", "--response", "Y", "--k", "2", "--out", "{out}/r.json",
          "--certificates", "{out}/c.jsonl"], 1),
        (["select", "{csv}", "--response", "Y", "--algo", "best", "--k", "2", "--out", "{out}/s.jsonl"], 1),
        (["grid", "--theta-steps", "20", "--v-steps", "20", "--out", "{out}/g.csv", "--svg", "{out}/svg"], 1),
        (["grid", "--theta-steps", "20", "--v-steps", "20", "--out", "{out}/g.csv", "--svg", "{out}/svg"], 2),
        (["gen", "gaussian", "--n", "30", "--m", "4", "--out", "{out}/d.csv"], 1),
    ],
    ids=["audit-certificates", "select", "grid-1-worker", "grid-2-workers", "gen"],
)
def test_main_closes_every_file_it_opens(small_csv, tmp_path, monkeypatch, args, workers):
    monkeypatch.setattr(cli, "GRID_BLOCK_CELLS", 7)
    monkeypatch.setattr(cli, "GRID_CHUNK_CELLS", 3)
    monkeypatch.setattr(cli, "_usable_cores", lambda: workers)
    argv = [arg.replace("{csv}", str(small_csv)).replace("{out}", str(tmp_path)) for arg in args]
    before = _open_fds()
    assert cli.main(argv) == 0
    assert _open_fds() == before


ATEXIT = textwrap.dedent(
    """
    import atexit, importlib, pkgutil, sys
    before = atexit._ncallbacks()
    import r2audit
    for module in pkgutil.iter_modules(r2audit.__path__):
        importlib.import_module(f"r2audit.{module.name}")
    from r2audit import cli
    cli.GRID_BLOCK_CELLS = 7
    cli.GRID_CHUNK_CELLS = 3
    csv, out = sys.argv[1:]
    for argv in (
        ["gen", "gaussian", "--n", "30", "--m", "4", "--out", f"{out}/d.csv"],
        ["audit", csv, "--response", "Y", "--k", "2", "--alpha", "3", "--out", f"{out}/r.json",
         "--certificates", f"{out}/c.jsonl"],
        ["select", csv, "--response", "Y", "--algo", "best", "--k", "2", "--out", f"{out}/s.jsonl"],
        ["select", csv, "--response", "Y", "--algo", "isis", "--d", "1", "--rounds", "2", "--out", f"{out}/i.jsonl"],
        ["grid", "--theta-steps", "20", "--v-steps", "20", "--out", f"{out}/g.csv", "--svg", f"{out}/svg"],
    ):
        assert cli.main(argv) == 0, argv
    print(before, atexit._ncallbacks())
    """
)


def test_no_module_or_command_registers_an_atexit_callback(small_csv, tmp_path):
    # compare counts, not zero: site's .pth hooks may register their own
    result = subprocess.run([sys.executable, "-c", ATEXIT, str(small_csv), str(tmp_path)], env=ENV,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    before, after = result.stdout.split()
    assert after == before
