"""The benchmark's workloads: their inputs, CLI arguments and output checks.

Inputs come from numpy PCG64 only, never from the program's own forges, so a
change to ``r2audit gen`` or ``datasets`` cannot change the data both sides of
a comparison are measured on.

Each design is one base sample of the workload's model, drawn from a fixed
stream, presented in a seed-dependent way: rows and feature columns permuted
and feature signs flipped. The fit of every subset is invariant to that
presentation up to rounding, so the amount of work per operation does not
depend on the seed. A fresh sample per seed would not do: with pure-noise
features the number of suppression certificates, and with it the audit's
report size and encoding time, moves by about 20% from one sample to the next.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

BASE_SEED = 151006301
TOL = 1e-9


def gaussian_design(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n x m iid standard-normal features with y = x1 + N(0, 1), presented by seed."""
    base = np.random.Generator(np.random.PCG64(BASE_SEED))
    X = base.standard_normal((n, m))
    y = X[:, 0] + base.standard_normal(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.permutation(n)
    cols = rng.permutation(m)
    signs = rng.choice(np.array([-1.0, 1.0]), size=m)
    return X[rows][:, cols] * signs, y[rows]


def write_csv(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    """Headered CSV with X1..Xm then Y; repr keeps every float exact."""
    header = [f"X{i + 1}" for i in range(X.shape[1])] + ["Y"]
    lines = [",".join(header)]
    for row, target in zip(X.tolist(), y.tolist()):
        lines.append(",".join(map(repr, row + [target])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def lstsq_r2(X: np.ndarray, y: np.ndarray) -> float:
    """R^2 of the least-squares fit of y on X with an intercept."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    coef = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    resid = yc - Xc @ coef
    return 1.0 - float(resid @ resid) / float(yc @ yc)


def best_r2_upto(X: np.ndarray, y: np.ndarray, k: int) -> float:
    """Largest R^2 over all subsets of at most k features, from the correlations."""
    Z = X - X.mean(axis=0)
    Z /= np.linalg.norm(Z, axis=0)
    yz = y - y.mean()
    yz /= np.linalg.norm(yz)
    C = Z.T @ Z
    r = Z.T @ yz
    best = 0.0
    for size in range(1, k + 1):
        idx = np.array(list(combinations(range(X.shape[1]), size)))
        gram = C[idx[:, :, None], idx[:, None, :]]
        rhs = r[idx]
        sol = np.linalg.solve(gram, rhs[..., None])[..., 0]
        best = max(best, float((rhs * sol).sum(axis=1).max()))
    return best


class CsvWorkload:
    """A workload whose operation reads one generated CSV."""

    n = 0
    m = 0
    setup_code = (
        "import sys, r2audit\n"
        "from r2audit.regress import load_csv, standardize\n"
        "X, y, names = load_csv(sys.argv[1], 'Y')\n"
        "standardize(X, y, names)\n"
    )

    def __init__(self, m: int | None = None):
        if m is not None:
            self.m = m

    def prepare(self, work: Path, seed: int) -> list[Path]:
        """Write the input files for this seed and return them."""
        self.X, self.y = gaussian_design(self.n, self.m, seed)
        self.input = work / "in.csv"
        write_csv(self.input, self.X, self.y)
        return [self.input]

    def names(self) -> list[str]:
        return [f"X{i + 1}" for i in range(self.m)]

    def subset_r2(self, subset: list[str]) -> float:
        idx = [self.names().index(f) for f in subset]
        return lstsq_r2(self.X[:, idx], self.y)


class AuditGauss(CsvWorkload):
    name = "audit-gauss"
    n, m = 200, 11

    def cli_args(self, out: Path) -> list[str]:
        return ["audit", str(self.input), "--response", "Y", "--k", "3", "--alpha", "3",
                "--out", str(out / "report.json")]

    def check(self, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_bytes())
        gamma = report["gamma"]
        nwf = report["selection"]["nwf"]
        best = report["selection"]["best_subset"]
        fails = []
        if report["partial"] is not False:
            fails.append("report is partial")
        if not float(gamma["gamma_s"]["value"]) <= float(gamma["gamma_s2"]["value"]):
            fails.append("gamma_s > gamma_s2")
        if not nwf["optimal_r2"] >= nwf["greedy_r2"]:
            fails.append("nwf optimal_r2 < greedy_r2")
        lam = float(report["spectral"]["lambda_min"])
        if not float(gamma["gamma_sr"]["at_most_k"]["value"]) >= lam - TOL:
            fails.append("gamma_sr.at_most_k < spectral lambda_min")
        if not abs(self.subset_r2(best["subset"]) - best["r_squared"]) <= TOL:
            fails.append("best subset R^2 differs from lstsq")
        return fails


class SelectBestWide(CsvWorkload):
    name = "select-best-wide"
    n, m = 2000, 24
    k = 4

    def cli_args(self, out: Path) -> list[str]:
        return ["select", str(self.input), "--response", "Y", "--algo", "best", "--k", str(self.k),
                "--max-enum", "24", "--out", str(out / "out.jsonl")]

    def check(self, out: Path) -> list[str]:
        lines = (out / "out.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != 1:
            return [f"expected one JSON line, got {len(lines)}"]
        result = json.loads(lines[0])
        fails = []
        if not 1 <= len(result["subset"]) <= self.k:
            fails.append(f"subset size {len(result['subset'])} outside 1..{self.k}")
        if not abs(self.subset_r2(result["subset"]) - result["r_squared"]) <= TOL:
            fails.append("best subset R^2 differs from lstsq")
        if best_r2_upto(self.X, self.y, self.k) > result["r_squared"] + TOL:
            fails.append("an independent search found a better subset")
        return fails


GRID_COLUMNS = ["theta", "v", "tau", "r12", "r_y1", "r_y2", "b", "gamma1", "gamma2",
                "gamma_s2", "sum_bound", "gamma_sr", "t_ratio_bound"]
SVG_FIELDS = ["gamma1", "gamma2", "gamma_s2", "sum_bound", "gamma_sr", "t_ratio_bound"]


def feasible_cells(theta_steps: int, v_steps: int) -> int:
    """Grid cells with 0 < tau < pi - theta, by the grid's own float recipe."""
    theta = math.pi * (np.arange(1, theta_steps)[:, None] / theta_steps)
    v = math.pi * (np.arange(1, v_steps)[None, :] / v_steps)
    tau = v - theta / 2.0
    return int(((0.0 < tau) & (tau < math.pi - theta)).sum())


class GridAtlas:
    """The two-feature atlas: no input file, so the seed changes nothing."""

    name = "grid-atlas"
    steps = 300
    setup_code = "import r2audit\n"

    def __init__(self, m: int | None = None):
        if m is not None:
            raise ValueError("grid-atlas has no feature count")

    def prepare(self, work: Path, seed: int) -> list[Path]:
        return []

    def cli_args(self, out: Path) -> list[str]:
        steps = str(self.steps)
        return ["grid", "--theta-steps", steps, "--v-steps", steps, "--r2-full", "0.5",
                "--out", str(out / "grid.csv"), "--svg", str(out / "svg")]

    def check(self, out: Path) -> list[str]:
        lines = (out / "grid.csv").read_text(encoding="utf-8").splitlines()
        cells = feasible_cells(self.steps, self.steps)
        fails = []
        if lines[0].split(",") != GRID_COLUMNS:
            fails.append(f"CSV header is {lines[0]!r}")
        if len(lines) - 1 != cells:
            fails.append(f"{len(lines) - 1} CSV rows, expected {cells} feasible cells")
        if any(line.count(",") != len(GRID_COLUMNS) - 1 for line in lines):
            fails.append("a CSV row has the wrong number of fields")
        svgs = sorted(p.name for p in (out / "svg").iterdir())
        if svgs != sorted(f"{f}.svg" for f in SVG_FIELDS):
            fails.append(f"SVG files are {svgs}")
            return fails
        for field in SVG_FIELDS:
            doc = (out / "svg" / f"{field}.svg").read_bytes()
            if not (doc.startswith(b"<svg") and doc.endswith(b"</svg>\n")):
                fails.append(f"{field}.svg is not a whole SVG document")
            elif doc.count(b"<rect") != cells + 1:
                fails.append(f"{field}.svg does not draw one rect per feasible cell")
        return fails


WORKLOADS = {w.name: w for w in (AuditGauss, SelectBestWide, GridAtlas)}
