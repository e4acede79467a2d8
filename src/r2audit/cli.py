"""Command-line front door: audit, grid, select, gen.

Every command is a pure function of its arguments and input files; rerunning
with identical inputs yields byte-identical outputs. Exit codes: 0 success,
1 usage or I/O error, 2 partial diagnostics (an exhaustive section was
skipped because the feature count exceeds the enumeration budget).

The audit report (schema "2") has a size set by the feature count, not by
the number of violation certificates: each violation list appears as its
count, its top 10 certificates, and its counts by conditioning-set size and
by feature pair. ``audit --certificates PATH`` writes both whole lists to
PATH as JSON lines, second-order first, then suppression.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import AuditError, TooManyFeatures

# The library names the commands call, by the module that defines them. None
# is imported with this module, so a command loads only the modules it runs:
# it binds their names here when it starts (_bind). Before that, reading one
# of them from this module binds it (PEP 562). A name already bound stays
# bound, so a caller that replaces cli.load_csv and the like, as the
# benchmark's tracer and the tests do, replaces what the commands call.
_LIBRARY = {
    "bitsets": ("indices_of",),
    "gamma": ("RatioQuery", "submodularity_ratio"),
    "jsonsafe": ("float_texts", "json_line", "report_text", "string_text"),
    "regress": ("StandardizedDesign", "fit_table", "gram_rows", "load_csv", "standardize"),
    "selection": ("best_subset", "forward_stepwise", "isis", "nwf_verdict", "sis_screen", "table_best_subset"),
    "setfun": ("TOP_CERTIFICATES", "VIOLATION_TOL", "Certificates", "_second_order_summary", "empirical_gamma_s"),
    "spectral": ("ConeSpec", "_check_alpha", "restricted_eigenvalue", "sparse_min_eigenvalue"),
}
_MODULE_OF = {name: module for module, names in _LIBRARY.items() for name in names}
# The modules build_audit_report calls; its certificate renderer binds bitsets.
_AUDIT_MODULES = ("regress", "selection", "setfun", "gamma", "spectral")


def _bind(*modules: str) -> None:
    """Import the modules and bind each of their library names not yet bound."""
    namespace = globals()
    for module in modules:
        # the import statement's path, which -X importtime logs
        __import__(f"{__package__}.{module}")
        source = sys.modules[f"{__package__}.{module}"]
        for name in _LIBRARY[module]:
            if name not in namespace:
                namespace[name] = getattr(source, name)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_MODULE_OF[name])
    return globals()[name]


REPORT_SCHEMA = "2"
# Certificates rendered at a time into the --certificates stream.
STREAM_CHUNK = 1 << 16


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (2 means partial here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


@contextmanager
def _output(out_path: str | None) -> Iterator[TextIO]:
    """Standard output, or the file at out_path opened for UTF-8 text with LF
    endings and closed on exit."""
    if out_path is None:
        yield sys.stdout
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_text(out_path: str | None, text: str) -> None:
    with _output(out_path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def build_audit_report(
    design: StandardizedDesign,
    source: str,
    response_name: str,
    k: int,
    max_enum: int,
    mode: str | None = None,
    alpha: float | None = None,
    certificates: str | None = None,
) -> tuple[dict, int]:
    """Assemble the full diagnostic report; returns (report, exit_code).

    The report holds only JSON values; ``jsonsafe.report_text`` writes it.
    Each violation list is summarized by ``_violation_summary`` from
    setfun's one walk over the pairs, which keeps no whole list. Given a
    ``certificates`` path, the same walk keeps both whole lists, and
    ``write_certificates`` writes them there; each top list is the first
    lines of its part of that stream, parsed back.
    """
    _bind(*_AUDIT_MODULES)
    # the arguments are checked before the enumeration, not after it
    if k < 1:
        raise ValueError(f"k must lie in 1..{design.m}")
    if alpha is not None:
        _check_alpha(alpha)
    names = design.names
    corr = design.marginal_correlations()
    report: dict = {
        "schema": REPORT_SCHEMA,
        "input": {
            "path": source,
            "response": response_name,
            "n": design.n,
            "m": design.m,
            "features": list(names),
        },
        "standardization": {
            "marginal_correlations": {names[i]: float(corr[i]) for i in range(design.m)},
        },
    }

    k = min(k, design.m)
    # The fit table is the run's one value of record: stepwise, the best
    # subset and every set-function kernel read it. A design over the cap
    # gets a partial report.
    try:
        table = fit_table(design, max_enum)
    except TooManyFeatures:
        table = None
    stepwise = forward_stepwise(design, k, table=table)
    report["selection"] = {
        "forward_stepwise": {
            "steps": [
                {
                    "feature": names[s.feature],
                    "delta_r2": s.delta_r2,
                    "cumulative_r2": s.cumulative_r2,
                    "marginal_t": s.marginal_t,
                }
                for s in stepwise.steps
            ],
            "stopping_reason": stepwise.stopping_reason,
        }
    }
    ranking = sis_screen(design, design.m)
    report["sis"] = {
        "ranking": [
            {"feature": names[i], "abs_correlation": abs(float(corr[i]))} for i in ranking
        ]
    }

    if table is None:
        report["partial"] = True
        report["skipped_diagnostics"] = [
            "gamma",
            "violations",
            "best_subset",
            "nwf",
            "spectral",
        ]
        return report, 2
    report["partial"] = False
    report["skipped_diagnostics"] = []

    # One walk over the feature pairs gives gamma_s2 and both violation
    # summaries; for the certificate stream it also keeps both whole lists.
    top = TOP_CERTIFICATES if certificates is None else None
    summary = _second_order_summary(table, VIOLATION_TOL, top)
    est2 = summary.gamma
    est1 = empirical_gamma_s(design, table=table)
    gamma_block: dict = {
        "gamma_s2": {
            "value": est2.gamma_s2,
            "witness": None
            if est2.witness_s2 is None
            else {
                "A": [names[f] for f in est2.witness_s2[0]],
                "i": names[est2.witness_s2[1]],
                "j": names[est2.witness_s2[2]],
            },
            "skipped": est2.skipped_s2,
        },
        "gamma_s": {
            "value": est1.gamma_s,
            "witness": None
            if est1.witness_s is None
            else {
                "A": [names[f] for f in est1.witness_s[0]],
                "B": [names[f] for f in est1.witness_s[1]],
                "i": names[est1.witness_s[2]],
            },
            "skipped": est1.skipped_s,
        },
    }
    modes = {"atmost": ("at_most_k",), "exact": ("exactly_k",)}.get(mode, ("at_most_k", "exactly_k"))
    ratio_block: dict = {"base": [], "k": min(2, design.m)}
    for ratio_mode in modes:
        try:
            res = submodularity_ratio(
                design,
                RatioQuery(base=(), k=min(2, design.m), mode=ratio_mode),
                table=table,
                max_features=max_enum,
            )
            ratio_block[ratio_mode] = {
                "value": res.gamma_sr,
                "argmin": [names[f] for f in res.argmin],
                "skipped": res.skipped,
            }
        except AuditError as exc:
            ratio_block[ratio_mode] = {"error": str(exc)}
    gamma_block["gamma_sr"] = ratio_block
    report["gamma"] = gamma_block

    # The suppression rows are the second-order rows, so both lists share
    # one set of counts.
    report["violations"] = {
        form: _violation_summary(
            summary.count, getattr(summary, form)[:TOP_CERTIFICATES], summary.by_size, summary.by_pair, names
        )
        for form in ("second_order", "suppression")
    }
    if certificates is not None:
        write_certificates(certificates, (summary.second_order, summary.suppression), names)

    best = table_best_subset(table, k)
    nwf = nwf_verdict(stepwise.final_r_squared(), best.r_squared, is_submodular=summary.count == 0)
    report["selection"]["best_subset"] = {
        "subset": [names[f] for f in best.subset],
        "r_squared": best.r_squared,
    }
    report["selection"]["nwf"] = {
        "greedy_r2": nwf.greedy_r2,
        "optimal_r2": nwf.optimal_r2,
        "ratio": nwf.ratio,
        "threshold": nwf.threshold,
        "guarantee_holds": nwf.guarantee_holds,
        "is_submodular": nwf.is_submodular,
    }

    spectral_size = min(2 * k, design.m)
    lam = sparse_min_eigenvalue(design.correlation_matrix(), spectral_size, max_features=max_enum)
    report["spectral"] = {
        "size": spectral_size,
        "lambda_min": lam.value,
        "witness": [names[f] for f in lam.support],
    }
    if alpha is not None and best.subset:
        cone = ConeSpec(best.subset, alpha)
        re = restricted_eigenvalue(design.correlation_matrix(), cone)
        report["spectral"]["restricted_eigenvalue"] = {
            "alpha": alpha,
            "subset": [names[f] for f in cone.subset],
            "value": re.value,
            "is_heuristic": re.is_heuristic,
        }
    return report, 0


def _violation_summary(count: int, head: Certificates, by_size, by_pair, names) -> dict:
    """A certificate list's count; its head, as its stream lines parse; its
    counts by set size, and the nonzero by_pair[i, j] in index order."""
    import json  # only the audit's summaries parse JSON

    return {
        "count": count,
        "top": [json.loads(text) for text in _certificate_texts(head, names)],
        "by_size": by_size.tolist(),
        "by_pair": [
            {"i": names[i], "j": names[j], "count": int(by_pair[i, j])} for i, j in np.argwhere(by_pair).tolist()
        ],
    }


def _certificate_texts(certs: Certificates, names, sets: dict[int, str] | None = None) -> list[str]:
    """The json_line text of each certificate's {"deficit", "form", "lhs",
    "rhs", "sets"} object, of a list stored in its order (a head or a slice):
    one format for the list. ``sets`` maps a mask to its name list's text; a
    mask it lacks is rendered once and added, so the lists and chunks that
    share it render each mask once."""
    _bind("bitsets", "jsonsafe")
    roles = sorted(zip(certs.roles, certs.columns), key=lambda pair: pair[0])
    template = (
        f'{{"deficit": %s, "form": {string_text(certs.form)}, "lhs": %s, "rhs": %s, "sets": {{'
        + ", ".join(f"{string_text(role)}: %s" for role, _ in roles)
        + "}}"
    )
    encoded = [string_text(name) for name in names]
    sets = {} if sets is None else sets
    role_texts = []
    for role, values in roles:
        values = values.tolist()
        if role in ("i", "j"):
            lookup = encoded
        else:
            lookup = sets
            for mask in set(values).difference(sets):
                sets[mask] = f"[{', '.join(encoded[f] for f in indices_of(mask))}]"
        role_texts.append(map(lookup.__getitem__, values))
    rows = zip(float_texts(certs.deficit), float_texts(certs.lhs), float_texts(certs.rhs), *role_texts)
    return [template % row for row in rows]


def write_certificates(path: str | Path, lists, names) -> None:
    """Write every certificate of the lists, in order, one json_line each."""
    sets: dict[int, str] = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for certs in lists:
            for lo in range(0, len(certs), STREAM_CHUNK):
                texts = _certificate_texts(certs[lo : lo + STREAM_CHUNK], names, sets)
                fh.write("".join(text + "\n" for text in texts))


def _cmd_audit(args) -> int:
    _bind("regress", "jsonsafe")
    design = standardize(*load_csv(args.csv, args.response))
    report, code = build_audit_report(
        design, str(args.csv), args.response, args.k, args.max_enum,
        mode=args.mode, alpha=args.alpha, certificates=args.certificates,
    )
    _write_text(args.out, report_text(report))
    return code


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

# About this many feasible cells are evaluated at a time, in blocks of whole
# theta lines, and at most GRID_CHUNK_CELLS of a block's cells are rendered
# into each output at a time: the largest block's columns and the chunk's
# text, not the grid, set the memory of each process that renders.
GRID_BLOCK_CELLS = 4096
GRID_CHUNK_CELLS = 512
SVG_FIELDS = ("gamma1", "gamma2", "gamma_s2", "sum_bound", "gamma_sr", "t_ratio_bound")


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork workers."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") and hasattr(os, "fork") else 1


def _grid_spans(blocks: list[range], weights: list[float], workers: int) -> list[list[range]]:
    """The blocks in at most ``workers`` contiguous nonempty spans of about
    equal weight: each block joins the span its weight's midpoint is in."""
    total, before = sum(weights), 0.0
    spans: list[list[range]] = [[] for _ in range(workers)]
    for rows, weight in zip(blocks, weights):
        spans[min(workers - 1, int(workers * (before + weight / 2) / total))].append(rows)
        before += weight
    return [span for span in spans if span]


def _render_grid(args, span: list[range], outputs: list[TextIO]) -> None:
    """Evaluate the span a block at a time and write each chunk of a block's
    cells, as its CSV lines to outputs[0] and its heatmap parts to the rest.
    A block with no cell is one empty chunk: it may still open or close a
    document."""
    from . import geometry2d

    for rows in span:
        block = geometry2d.grid_evaluate(args.theta_steps, args.v_steps, args.r2_full, rows)
        for start in range(0, max(len(block), 1), GRID_CHUNK_CELLS):
            chunk = range(start, min(start + GRID_CHUNK_CELLS, len(block)))
            lines = geometry2d.grid_csv_lines(block, chunk)
            if lines:
                outputs[0].write("\n".join(lines) + "\n")
            if len(outputs) > 1:
                parts = geometry2d.svg_heatmap(block, SVG_FIELDS, args.theta_steps, args.v_steps, cell_range=chunk)
                for doc, part in zip(outputs[1:], parts):
                    doc.write(part)
        del block  # freed before the next block is evaluated


def _grid_part(directory: Path | None) -> TextIO:
    """An unlinked temporary text file in ``directory``, or in the default
    temporary directory where that takes no new file (as /dev, for a user
    who writes the grid to /dev/null or /dev/stdout)."""
    try:
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n", dir=directory)
    except OSError:
        return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def _append_part(part: TextIO, out: TextIO) -> None:
    """Append a worker's whole part to an output as bytes, below both text
    layers: the text is ASCII, so its bytes are the same in the part's UTF-8
    and in any encoding the output has. An output with no byte layer below
    it, as io.StringIO, takes the text."""
    target = getattr(out, "buffer", None)
    if target is None:
        part.seek(0)
        shutil.copyfileobj(part, out)
        return
    out.flush()
    part.buffer.seek(0)
    shutil.copyfileobj(part.buffer, target)


def _fork_grid_worker(args, span: list[range], parts: list[TextIO]) -> int:
    """Fork a process that renders the span into the parts and leaves only
    through os._exit; return its pid."""
    # Python 3.12 warns on forking a process with threads, here numpy's idle
    # BLAS pool. The worker runs only elementwise ufuncs and text formatting,
    # never BLAS, so no lock those threads hold is ever taken.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*use of fork\\(\\) may lead to deadlocks", DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _render_grid(args, span, parts)
        for part in parts:
            part.flush()
        code = 0
    except BaseException as exc:
        os.write(2, f"error: {exc}\n".encode())
    finally:
        os._exit(code)


def _cmd_grid(args) -> int:
    from . import geometry2d  # only grid needs it

    geometry2d.check_grid(args.theta_steps, args.v_steps, args.r2_full)
    blocks = list(geometry2d.theta_line_blocks(args.theta_steps, args.v_steps, GRID_BLOCK_CELLS))
    weights = [geometry2d.estimated_cells(args.theta_steps, args.v_steps, rows) for rows in blocks]
    spans = _grid_spans(blocks, weights, min(_usable_cores(), len(blocks)))
    # One worker per span after the first renders it into unlinked temporary
    # parts beside the outputs; this process renders span 0 straight into the
    # outputs, then appends each worker's parts in span order. The workers
    # are forked before any byte is written, so none can flush one.
    with _output(args.out) as fh, ExitStack() as stack:
        outputs, part_dirs = [fh], [None if args.out is None else Path(args.out).parent]
        if args.svg is not None:
            svg_dir = Path(args.svg)
            svg_dir.mkdir(parents=True, exist_ok=True)
            for field in SVG_FIELDS:
                outputs.append(stack.enter_context(open(svg_dir / f"{field}.svg", "w", encoding="utf-8", newline="\n")))
                part_dirs.append(svg_dir)
        # (pid, span, parts) of each worker not yet reaped, reaped on every path
        workers: list[tuple[int, list[range], list[TextIO]]] = []
        stack.callback(lambda: [os.waitpid(pid, 0) for pid, _, _ in workers])
        for span in spans[1:]:
            parts = [stack.enter_context(_grid_part(d)) for d in part_dirs]
            workers.append((_fork_grid_worker(args, span, parts), span, parts))
        _render_grid(args, spans[0], outputs)
        while workers:
            pid, span, parts = workers[0]
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status:
                raise ChildProcessError(
                    f"grid worker for theta lines {span[0].start}..{span[-1].stop - 1} "
                    f"exited with status {os.waitstatus_to_exitcode(status)}"
                )
            for part, out in zip(parts, outputs):
                _append_part(part, out)
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    _bind("regress", "selection", "jsonsafe")
    design = standardize(*load_csv(args.csv, args.response))
    if args.algo == "stepwise":
        trace = forward_stepwise(design, min(args.k, design.m))
        _write_text(args.out, trace.to_json_lines(design.names))
    elif args.algo == "best":
        if args.k < 1:  # as stepwise and the audit refuse it
            raise ValueError(f"k must lie in 1..{design.m}")
        result = best_subset(design, min(args.k, design.m), max_features=args.max_enum)
        record = {
            "algorithm": "best_subset",
            "subset": [design.names[f] for f in result.subset],
            "r_squared": result.r_squared,
        }
        _write_text(args.out, json_line(record) + "\n")
    elif args.algo == "sis":
        picked = sis_screen(design, min(args.d, design.m))
        corr = design.marginal_correlations()
        lines = [
            json_line({"rank": pos + 1, "feature": design.names[i], "abs_correlation": abs(float(corr[i]))})
            for pos, i in enumerate(picked)
        ]
        _write_text(args.out, "\n".join(lines) + "\n")
    else:  # isis
        result = isis(design, args.d, args.rounds)
        lines = [
            json_line(
                {
                    "round": number,
                    "picked": [design.names[i] for i in rnd.picked],
                    "scores": {design.names[i]: s for i, s in rnd.scores},
                }
            )
            for number, rnd in enumerate(result.rounds, start=1)
        ]
        lines.append(
            json_line({"selected": [design.names[i] for i in result.selected], "skipped": result.skipped})
        )
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _check_finite(flag: str, *values: float) -> None:
    """Refuse a NaN or infinite value of a gen option before generating."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{flag} must be finite")


def _cmd_gen(args) -> int:
    from . import datasets  # only gen needs it

    if args.generator == "miller":
        X, y, names = datasets.miller_table()
    elif args.generator == "suppressor":
        _check_finite("--sz", args.sz)
        _check_finite("--se", args.se)
        _bind("regress")
        gram = datasets.suppressor_population(args.p, args.sz, args.se)
        X, y, names = gram_rows(gram, args.n if args.n is not None else args.p + 4)
    else:  # gaussian
        _check_finite("--sigma-noise", args.sigma_noise)
        if args.sigma_noise < 0:
            raise ValueError("--sigma-noise must be nonnegative")
        beta = None
        if args.beta is not None:
            beta = [float(p) for p in args.beta.split(",")]
            _check_finite("--beta", *beta)
        X, y = datasets.random_gaussian(
            args.n, args.m, beta=beta, sigma_noise=args.sigma_noise, seed=args.seed
        )
        names = None
    with _output(args.out) as fh:
        datasets.write_csv(fh, X, y, names)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="r2audit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="full diagnostic report for a CSV dataset")
    audit.add_argument("csv")
    audit.add_argument("--response", required=True, help="response column name")
    audit.add_argument("--k", type=int, default=2, help="selection budget")
    audit.add_argument("--mode", choices=("atmost", "exact"), default=None,
                       help="report only one submodularity-ratio mode")
    audit.add_argument("--alpha", type=float, default=None,
                       help="also report the restricted eigenvalue on the best subset's cone")
    audit.add_argument("--max-enum", type=int, default=20, dest="max_enum")
    audit.add_argument("--out", default=None)
    audit.add_argument("--certificates", default=None,
                       help="also write every second-order, then suppression certificate here as JSON lines")
    audit.set_defaults(func=_cmd_audit)

    grid = sub.add_parser("grid", help="two-feature diagnostic grid as CSV")
    grid.add_argument("--theta-steps", type=int, default=100, dest="theta_steps")
    grid.add_argument("--v-steps", type=int, default=100, dest="v_steps")
    grid.add_argument("--r2-full", type=float, default=0.5, dest="r2_full")
    grid.add_argument("--out", default=None)
    grid.add_argument("--svg", default=None, help="directory for per-diagnostic heatmaps")
    grid.set_defaults(func=_cmd_grid)

    select = sub.add_parser("select", help="run one selection algorithm, JSON lines out")
    select.add_argument("csv")
    select.add_argument("--response", required=True)
    select.add_argument("--algo", required=True, choices=("stepwise", "best", "sis", "isis"))
    select.add_argument("--k", type=int, default=2)
    select.add_argument("--d", type=int, default=1)
    select.add_argument("--rounds", type=int, default=1)
    select.add_argument("--max-enum", type=int, default=20, dest="max_enum")
    select.add_argument("--out", default=None)
    select.set_defaults(func=_cmd_select)

    gen = sub.add_parser("gen", help="emit a benchmark dataset as CSV")
    gen.add_argument("generator", choices=("miller", "suppressor", "gaussian"))
    gen.add_argument("--p", type=int, default=3)
    gen.add_argument("--sz", type=float, default=1.0)
    gen.add_argument("--se", type=float, default=3.0)
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--m", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sigma-noise", type=float, default=1.0, dest="sigma_noise")
    gen.add_argument("--beta", default=None, help="comma-separated coefficients")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "gen" and args.generator == "gaussian" and args.n is None:
        sys.stderr.write("error: gen gaussian requires --n\n")
        return 1
    # A process started with standard output closed (`>&-`) has none: refused
    # before a command reads its input, draws a row or forks a grid worker.
    if args.out is None and sys.stdout is None:
        sys.stderr.write("error: standard output is closed\n")
        return 1
    try:
        return args.func(args)
    except (AuditError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entrypoint() -> None:
    """Run main, flush standard output and error, and end the process with
    os._exit, skipping the interpreter's teardown (about 25 ms once numpy is
    loaded): every command has closed its own files, and reaped its workers,
    before main returns. A failed flush of standard output is an I/O error,
    exit 1. An exception that escapes main takes the interpreter's own path:
    a traceback, and exit 1."""
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk
            sys.stderr.write(f"error: {exc}\n")
            code = 1
    if sys.stderr is not None:
        with suppress(OSError):  # nowhere left to report it
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
