"""r2audit benchmark: one closed-loop client driving the real CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--m M]

Each operation is a fresh ``python -m r2audit.cli`` process with
``PYTHONPATH=src``, spawned only after the previous one has exited. With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
alternates untraced operations with operations run under ``bench/tracer.py``
and reports per-layer metrics from the spans. ``--m`` (traced runs only)
changes the feature count of the generated design, outside the gated sizes,
to reproduce the audit baseline at other m.

Every output is checked after the measuring window. The last line of standard
output is the JSON result; the full record (environment, input digests,
samples) goes to .bench_work/results/ and the spans to .bench_work/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
OP_TIMEOUT_S = 120.0
SETUP_PROBES = 2
# setup_s is reported in seconds on a host where host_ref() takes this long.
HOST_REF_NOMINAL_S = 0.15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run argv from the checkout root through bench/launch.py.

    Returns (wall seconds from spawn to exit, exit code, peak RSS in MiB).
    The launcher runs in its own session, so an interrupted run kills the
    operation with it.
    """
    launcher = [sys.executable, "-S", str(BENCH / "launch.py"), str(OP_TIMEOUT_S), str(log)]
    proc = subprocess.Popen(launcher + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    wall, code, rss_kib = out.split()
    return float(wall), int(code), int(rss_kib) / 1024.0


def metric_specs(kind: str) -> list[dict]:
    """The "end_to_end" or "per_layer" metric list of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def host_ref() -> float:
    """Seconds for a fixed computation: a pure-Python loop, a batch of small
    SVDs and a burst of small-object allocation, the three kinds of work an
    operation does."""
    mats = np.random.Generator(np.random.PCG64(0)).standard_normal((800, 60, 6))
    start = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc = (acc * 31 + i) % 1_000_003
    for a in mats:
        np.linalg.svd(a, full_matrices=False)
    rows = [{"i": i, "name": str(i)} for i in range(150_000)]
    del rows
    return time.perf_counter() - start


def output_digest(out: Path) -> tuple[str, int]:
    """sha256 over every output file's relative path and bytes, and total bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return digest.hexdigest(), total


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "r2audit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: str(nproc()) for var in THREAD_VARS},
        "nproc": nproc(),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


class Run:
    """One benchmark run: the closed loop, the checks and the metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.ref_out = self.work / "ref"
        self.cur_out = self.work / "cur"
        self.ref_digest: str | None = None
        self.output_bytes = 0
        self.errors: list[str] = []
        self.ops: list[dict] = []
        self.setup_walls: list[float] = []
        self.setup_rounds: list[int] = []
        self.host_refs: list[float] = []
        self.traced_ops: list[dict] = []

    def setup_probe(self, inputs: list[Path]) -> None:
        argv = [sys.executable, "-c", self.workload.setup_code] + [str(p) for p in inputs]
        wall, code, _ = run_child(argv, self.work / "setup.stderr")
        if code != 0:
            self.errors.append(f"setup probe exited {code}")
        self.setup_walls.append(wall)
        self.setup_rounds.append(len(self.host_refs) - 1)

    def operation(self, traced: bool) -> None:
        """One CLI operation into a fresh output directory, then its digest."""
        op_id = len(self.ops)
        out = self.ref_out if self.ref_digest is None else self.cur_out
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans_file = self.work / "op-spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_file), str(op_id)]
        else:
            argv = [sys.executable, "-m", "r2audit.cli"]
        argv += self.workload.cli_args(out)
        wall, code, rss = run_child(argv, self.work / "op.stderr")
        digest, size = output_digest(out)
        op = {"id": op_id, "round": len(self.host_refs) - 1, "traced": traced,
              "wall_s": wall, "exit_code": code,
              "peak_rss_mb": rss, "digest": digest, "failures": []}
        if code != 0:
            op["failures"].append(f"exit code {code}: "
                                  + (self.work / "op.stderr").read_text(errors="replace")[-500:])
        if self.ref_digest is None:
            self.ref_digest, self.output_bytes = digest, size
        elif digest != self.ref_digest:
            op["failures"].append("output differs from the run's first operation")
        if traced and code == 0:
            record = json.loads(spans_file.read_text())
            record["wall_s"] = wall
            self.traced_ops.append(record)
        self.ops.append(op)

    def loop(self, inputs: list[Path]) -> None:
        """Closed loop until the next round would end past the deadline."""
        deadline = time.perf_counter() + self.seconds
        while True:
            start = time.perf_counter()
            self.host_refs.append(host_ref())
            if self.trace:
                self.operation(traced=False)
                self.operation(traced=True)
            else:
                for _ in range(SETUP_PROBES):
                    self.setup_probe(inputs)
                self.operation(traced=False)
            now = time.perf_counter()
            if now + (now - start) > deadline or self.ops[-1]["exit_code"] != 0:
                break

    def check_outputs(self) -> None:
        """Check the first operation's output. Later ones must match it byte for
        byte, so a failed check fails every operation with the same output."""
        if self.ops[0]["exit_code"] != 0:
            return
        try:
            fails = self.workload.check(self.ref_out)
        except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
            fails = [f"malformed output: {exc!r}"]
        for op in self.ops:
            if op["digest"] == self.ref_digest:
                op["failures"] += fails

    def round_ref(self, round_no: int) -> float:
        """Mean of the reference times just before and just after a round."""
        return (self.host_refs[round_no] + self.host_refs[round_no + 1]) / 2

    def execute(self, m: int | None) -> dict:
        inputs = self.workload.prepare(self.work, self.seed)
        self.loop(inputs)
        self.host_refs.append(host_ref())
        self.check_outputs()

        failed = sum(1 for op in self.ops if op["failures"])
        untraced = [op for op in self.ops if not op["traced"]]
        op_p50 = statistics.median(op["wall_s"] for op in untraced)
        host_ref_p50 = statistics.median(self.host_refs)
        summary = {
            "bench.ops": len(self.ops),
            "failed": failed,
            "fail_ratio": failed / len(self.ops),
            "output_bytes": self.output_bytes,
            "op_p50_s": op_p50,
            "host_ref_s": self.host_refs,
        }
        if self.trace:
            values = self.layer_metrics(op_p50, host_ref_p50)
        else:
            values = {
                "setup_s": HOST_REF_NOMINAL_S * statistics.median(
                    wall / self.host_refs[r] for wall, r in zip(self.setup_walls, self.setup_rounds)),
                "op_p50_rel": statistics.median(
                    op["wall_s"] / self.round_ref(op["round"]) for op in untraced),
                "peak_rss_mb": max(op["peak_rss_mb"] for op in untraced),
                "output_bytes": self.output_bytes,
            }
        specs = metric_specs("per_layer" if self.trace else "end_to_end")
        metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                   for spec in specs}
        record = {
            "workload": self.workload.name,
            "m": m,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "environment": environment(self.seed),
            "inputs_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
            "summary": summary,
            "metrics": metrics,
            "setup_walls_s": self.setup_walls,
            "setup_rounds": self.setup_rounds,
            "ops": self.ops,
            "errors": self.errors,
        }
        self.save(record)
        return record

    def layer_metrics(self, op_p50: float, host_ref_s: float) -> dict[str, float]:
        """Medians over the traced operations, then the run's own bench.* figures."""
        per_op = [tracer.layer_metrics(rec["spans"]) for rec in self.traced_ops]
        values = {}
        for spec in metric_specs("per_layer"):
            name = spec["name"]
            if name.startswith("bench."):
                continue
            median = statistics.median_low if spec["unit"] == "count" else statistics.median
            values[name] = median(layers[name] for layers in per_op) if per_op else 0
        traced_p50 = statistics.median(rec["wall_s"] for rec in self.traced_ops) if per_op else 0.0
        values["bench.host_ref_s"] = host_ref_s
        values["bench.trace_overhead"] = traced_p50 / op_p50
        values["bench.ops"] = len(self.ops)
        return values

    def save(self, record: dict) -> None:
        tag = f"{self.workload.name}-seed{self.seed}"
        if record["m"] is not None:
            tag += f"-m{record['m']}"
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{tag}-trace{record['trace']}.json").write_text(json.dumps(record, indent=1))
        if self.trace:
            spans = WORK / "spans"
            spans.mkdir(exist_ok=True)
            (spans / f"{tag}.json").write_text(json.dumps(self.traced_ops))


def report(record: dict) -> None:
    """Human-readable lines, then the JSON result as the last line."""
    summary = record["summary"]
    env = record["environment"]
    print(f"workload {record['workload']} seed {env['seed']} trace {record['trace']}"
          + (f" m {record['m']}" if record["m"] is not None else ""))
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs_sha256 " + json.dumps(record["inputs_sha256"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    untraced = [op["wall_s"] for op in record["ops"] if not op["traced"]]
    print(f"ops = {summary['bench.ops']} ({len(untraced)} untraced, "
          f"op wall min {min(untraced):.4g} s, max {max(untraced):.4g} s)")
    failed = summary["failed"]
    print(f"fail_ratio = {summary['fail_ratio']:.6g} ({failed} of {summary['bench.ops']} operations)")
    refs = summary["host_ref_s"]
    print(f"op_p50_s = {summary['op_p50_s']:.6g} s (raw median wall time)")
    if record["setup_walls_s"]:
        print(f"setup probe = {statistics.median(record['setup_walls_s']):.4g} s raw median "
              f"of {len(record['setup_walls_s'])}")
    print(f"host_ref = {statistics.median(refs):.4g} s median of {len(refs)} "
          f"(min {min(refs):.4g} s, max {max(refs):.4g} s)")
    for op in record["ops"]:
        for failure in op["failures"]:
            print(f"FAIL op {op['id']}: {failure}")
    for error in record["errors"]:
        print(f"ERROR {error}")
    if record["m"] is not None and record["trace"]:
        m = record["metrics"]
        print(f"baseline m={record['m']}: fill {m['regress.fill_s']['value']:.3g} s, "
              f"warm gamma_s {m['setfun.gamma_s_s']['value']:.3g} s, "
              f"warm second-order {m['setfun.second_order_s']['value']:.3g} s, "
              f"report {summary['output_bytes']} bytes")
    result = {
        "correct": failed == 0 and not record["errors"],
        "attempted": summary["bench.ops"],
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--m", type=int, default=None,
                        help="feature count of the generated design (traced runs only)")
    args = parser.parse_args(argv)
    if not (SRC / "r2audit" / "cli.py").is_file():
        sys.stderr.write(f"error: no r2audit sources under {SRC}\n")
        return 2
    if args.m is not None and not args.trace:
        parser.error("--m is only for traced runs; the gated workloads keep their sizes")
    try:
        workload = WORKLOADS[args.workload](args.m)
    except ValueError as exc:
        parser.error(str(exc))
    record = Run(workload, args.seed, args.seconds, bool(args.trace)).execute(args.m)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
