"""Run one r2audit CLI operation in-process with spans at layer boundaries.

Usage: python3 bench/tracer.py SPANS_JSON OP_ID CLI_ARG...

Every call the CLI makes into a layer's public function is wrapped, from this
file only, in a span: name, start, end, parent span id and operation id. Fits
are spanned where the kernels request them (``setfun.fit_entry``), so each
mask the operation needs is fitted once, cold, inside a ``regress.fit_entry``
span, and a kernel's self time is its warm walk over the filled cache. Spans
stay in memory and are written to SPANS_JSON when the operation ends. The
program's source is not edited; module attributes are replaced for the life of
this process only, and an attribute the program no longer has is skipped.

``layer_metrics`` turns the spans of one operation into the per-layer metrics
of the benchmark; ``bench/run.py`` takes their median over traced operations.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Attribute of r2audit.cli -> span name. nwf_check's own calls into stepwise,
# best subset and the second-order check stay inside the nwf span on purpose:
# that rerun is part of what selection.nwf_s measures.
CLI_CALLS = {
    "load_csv": "regress.load_csv",
    "standardize": "regress.standardize",
    "build_audit_report": "cli.build_audit_report",
    "forward_stepwise": "selection.forward_stepwise",
    "best_subset": "selection.best_subset",
    "nwf_check": "selection.nwf_check",
    "empirical_gamma_s2": "setfun.empirical_gamma_s2",
    "empirical_gamma_s": "setfun.empirical_gamma_s",
    "check_submodular": "setfun.check_submodular",
    "find_suppressors": "setfun.find_suppressors",
    "submodularity_ratio": "gamma.submodularity_ratio",
    "sparse_min_eigenvalue": "spectral.sparse_min_eigenvalue",
    "restricted_eigenvalue": "spectral.restricted_eigenvalue",
}
GEOMETRY_CALLS = {
    "grid_evaluate": "geometry2d.grid_evaluate",
    "grid_csv_lines": "geometry2d.grid_csv_lines",
    "svg_heatmap": "geometry2d.svg_heatmap",
}

# Counts recorded at the span boundary from the value a call returns.
RESULT_COUNTS = {
    "setfun.empirical_gamma_s2": lambda r: {"skipped": getattr(r, "skipped_s2", 0) or 0},
    "setfun.empirical_gamma_s": lambda r: {"skipped": getattr(r, "skipped_s", 0) or 0},
    "setfun.check_submodular": lambda r: {"certificates": len(r)},
    "setfun.find_suppressors": lambda r: {"certificates": len(r)},
    "geometry2d.grid_evaluate": lambda r: {"cells": len(r)},
}

# Per-layer metric -> span names whose self times it sums.
SELF_TIMES = {
    "regress.load_s": ("regress.load_csv", "regress.standardize"),
    "regress.fill_s": ("regress.fit_entry",),
    "setfun.gamma_s2_s": ("setfun.empirical_gamma_s2",),
    "setfun.gamma_s_s": ("setfun.empirical_gamma_s",),
    "setfun.second_order_s": ("setfun.check_submodular",),
    "setfun.suppressors_s": ("setfun.find_suppressors",),
    "gamma.ratio_s": ("gamma.submodularity_ratio",),
    "selection.nwf_s": ("selection.nwf_check",),
    "selection.best_subset_s": ("selection.best_subset",),
    "selection.stepwise_s": ("selection.forward_stepwise",),
    "spectral.sparse_min_eig_s": ("spectral.sparse_min_eigenvalue",),
    "spectral.restricted_eig_s": ("spectral.restricted_eigenvalue",),
    "geometry2d.grid_eval_s": ("geometry2d.grid_evaluate",),
    "geometry2d.csv_s": ("geometry2d.grid_csv_lines",),
    "geometry2d.svg_s": ("geometry2d.svg_heatmap",),
    "cli.build_report_s": ("cli.build_audit_report",),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    """In-memory span recorder for one operation on one thread."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def call(self, name, fn, args, kwargs):
        span = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "op": self.op_id,
            "name": name,
        }
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        counter = RESULT_COUNTS.get(name)
        if counter is not None:
            span["counts"] = counter(result)
        return result

    def count(self, key: str, amount: int) -> None:
        """Add to a count on the innermost open span."""
        if self._open:
            counts = self._open[-1].setdefault("counts", {})
            counts[key] = counts.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        setattr(module, attr, traced)


class _Overlay:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    import numpy
    from r2audit import cli, geometry2d, setfun, spectral

    for attr, name in CLI_CALLS.items():
        tracer.wrap(cli, attr, name)
    for attr, name in GEOMETRY_CALLS.items():
        tracer.wrap(geometry2d, attr, name)
    tracer.wrap(setfun, "fit_entry", "regress.fit_entry")

    # spectral.submatrices counts the symmetric eigenproblems solved, one per
    # principal submatrix, whether passed one at a time or stacked.
    def eigvalsh(a, *args, **kwargs):
        tracer.count("matrices", int(numpy.prod(numpy.shape(a)[:-2])))
        return numpy.linalg.eigvalsh(a, *args, **kwargs)

    spectral.np = _Overlay(numpy, linalg=_Overlay(numpy.linalg, eigvalsh=eigvalsh))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts of one traced operation.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap because the program is single-threaded.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        name = span["name"]
        self_time[name] += span["end"] - span["start"] - covered[span["id"]]
        calls[name] += 1
        for key, value in span.get("counts", {}).items():
            counts[name, key] += value

    out = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIMES.items()}
    fits = calls["regress.fit_entry"]
    out["regress.fits"] = fits
    out["regress.fit_us"] = 1e6 * out["regress.fill_s"] / fits if fits else 0.0
    second = counts["setfun.check_submodular", "certificates"]
    suppressors = counts["setfun.find_suppressors", "certificates"]
    out["setfun.certificates"] = second + suppressors
    out["setfun.cert_mismatch"] = abs(suppressors - second)
    out["setfun.skipped"] = (
        counts["setfun.empirical_gamma_s2", "skipped"] + counts["setfun.empirical_gamma_s", "skipped"]
    )
    out["spectral.submatrices"] = counts["spectral.sparse_min_eigenvalue", "matrices"]
    out["geometry2d.cells"] = counts["geometry2d.grid_evaluate", "cells"]
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        sys.stderr.write(__doc__.splitlines()[2] + "\n")
        return 1
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    from r2audit import cli

    tracer = Tracer(op_id)
    install(tracer)
    code = tracer.call("cli.main", cli.main, (cli_args,), {})
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"op": op_id, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
