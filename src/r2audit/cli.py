"""Command-line front door: audit, grid, select, gen.

Every command is a pure function of its arguments and input files; rerunning
with identical inputs yields byte-identical outputs. Exit codes: 0 success,
1 usage or I/O error, 2 partial diagnostics (an exhaustive section was
skipped because the feature count exceeds the enumeration budget).

The audit report (schema "2") has a size set by the feature count, not by
the number of violation certificates: each violation list appears as its
count, its top 10 certificates, and its counts by conditioning-set size and
by feature pair. ``audit --certificates PATH`` writes both whole lists to
PATH as JSON lines, second-order first, then suppression, each in the order
of setfun's pair walk, which hands them over a chunk at a time.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

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
    "gamma": ("submodularity_ratio",),
    "jsonsafe": ("float_texts", "json_line", "report_text", "string_text"),
    "regress": ("fit_table", "gram_rows", "load_csv", "standardize"),
    "selection": ("best_subset", "forward_stepwise", "isis", "nwf_verdict", "sis_screen"),
    "setfun": ("VIOLATION_TOL", "_second_order_summary", "empirical_gamma_s"),
    "spectral": ("_check_alpha", "restricted_eigenvalue", "sparse_min_eigenvalue"),
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
# The report's sections that enumerate subsets: a design over the cap gets a
# partial report without them, whose skipped_diagnostics names them.
EXHAUSTIVE_SECTIONS = ("gamma", "violations", "best_subset", "nwf", "spectral")
# The default --max-enum of audit and select. It stays below
# regress.DEFAULT_MAX_FEATURES (24): above 20 features the fill keeps no gain
# table, and the reported gamma is not resolved there (ROADMAP item 3).
DEFAULT_MAX_ENUM = 20
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


@contextmanager
def _byte_output(out_path: str | None) -> Iterator[BinaryIO]:
    """For ASCII bytes: the file at out_path, closed on exit, or standard
    output's byte layer, its text layer flushed first; one with no byte
    layer, as io.StringIO, takes them decoded once, on a normal exit."""
    if out_path is not None:
        with open(out_path, "wb") as fh:
            yield fh
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        yield sys.stdout.buffer
    else:
        fh = io.BytesIO()
        yield fh
        sys.stdout.write(fh.getvalue().decode("ascii"))


def _write_text(out_path: str | None, text: str) -> None:
    with _output(out_path) as fh:
        fh.write(text)


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one regular file (a hard or symbolic link to
    it counts), or one path that does not exist yet. A device such as
    /dev/null is not one file: it takes any number of outputs."""
    if os.path.exists(path) and os.path.exists(other):
        return os.path.samefile(path, other) and os.path.isfile(other)
    return os.path.realpath(path) == os.path.realpath(other)


def _check_run(args) -> None:
    """Refuse before a CSV is read, a row drawn or a grid worker forked: gen
    gaussian without --n, standard output closed (`>&-`) without --out, an
    --out or --certificates at the input CSV, and an --out at the regular
    file or new path of another output of the run."""
    if args.command == "gen" and args.generator == "gaussian" and args.n is None:
        raise ValueError("gen gaussian requires --n")
    if args.out is None and sys.stdout is None:
        raise ValueError("standard output is closed")
    source = getattr(args, "csv", None)
    if source is not None:
        for flag in ("out", "certificates"):
            path = getattr(args, flag, None)
            if path is not None and _same_file(path, source):
                raise ValueError(f"--{flag} would overwrite the input {source}")
    other = {"audit": "certificates", "grid": "svg"}.get(args.command)
    if args.out is None or other is None or getattr(args, other) is None:
        return
    paths = [os.path.join(args.svg, f"{field}.svg") for field in SVG_FIELDS] if other == "svg" else [args.certificates]
    for path in paths:
        if _same_file(args.out, path):
            raise ValueError(f"--out and --{other} both write {path}")


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
    Its stepwise, best-subset and screening records are the ones select
    writes. A design over the cap gets a partial report (exit 2) without the
    EXHAUSTIVE_SECTIONS, which it names. Each violation list is summarized
    by ``_violation_summary`` from setfun's one walk over the pairs, which
    keeps only each list's head. Given a ``certificates`` path, the same
    walk hands its violating rows to ``_certificate_stream`` as it goes,
    which writes them there in walk order; the path is opened once the fit
    table is filled, before the walk.
    """
    _bind(*_AUDIT_MODULES)
    # the arguments are checked before the enumeration, not after it
    if k < 1:
        raise ValueError(f"k must lie in 1..{design.m}")
    if alpha is not None:
        _check_alpha(alpha)
    names = design.names
    corr = design.marginal_correlations()
    k = min(k, design.m)
    # The fit table is the value of record of the kernels that read every
    # mask: gamma_s2, gamma_s and the certificates. Stepwise, the best subset
    # and the ratio are the calls select and the library make.
    try:
        table = fit_table(design, max_enum)
    except TooManyFeatures:
        table = None
    stepwise = forward_stepwise(design, k)
    report: dict = {
        "schema": REPORT_SCHEMA,
        "input": {"path": source, "response": response_name, "n": design.n, "m": design.m, "features": list(names)},
        "standardization": {"marginal_correlations": {names[i]: float(corr[i]) for i in range(design.m)}},
        "selection": {
            "forward_stepwise": {"steps": _step_records(stepwise, names), "stopping_reason": stepwise.stopping_reason}
        },
        "sis": {"ranking": _ranking_records(sis_screen(design, design.m), corr, names)},
        "partial": table is None,
        "skipped_diagnostics": list(EXHAUSTIVE_SECTIONS) if table is None else [],
    }
    if table is None:
        return report, 2

    # One walk over the feature pairs gives gamma_s2 and both violation
    # summaries, and writes the certificate stream as it goes.
    with _certificate_stream(certificates, names) as sink:
        summary = _second_order_summary(table, VIOLATION_TOL, sink)
    report["gamma"] = _gamma_section(design, table, summary.gamma, mode, max_enum)
    # The suppression rows are the second-order rows, so both lists share
    # one set of counts.
    report["violations"] = {
        form: _violation_summary(summary.count, getattr(summary, form), summary.by_size, summary.by_pair, names)
        for form in ("second_order", "suppression")
    }
    best = best_subset(design, k, max_features=max_enum)
    nwf = nwf_verdict(stepwise.final_r_squared(), best.r_squared, is_submodular=summary.count == 0)
    report["selection"].update(best_subset=_best_record(best, names), nwf=nwf._asdict())
    report["spectral"] = _spectral_section(design, k, best.subset, alpha, max_enum)
    return report, 0


def _names(indices, names) -> list[str]:
    return [names[f] for f in indices]


def _step_records(trace, names) -> list[dict]:
    """Each step of a stepwise trace, as the audit and select write it."""
    return [{**step._asdict(), "feature": names[step.feature]} for step in trace.steps]


def _best_record(best, names) -> dict:
    return {"subset": _names(best.subset, names), "r_squared": best.r_squared}


def _ranking_records(ranking, corr: np.ndarray, names) -> list[dict]:
    """Each screened feature in rank order, with its |marginal correlation|."""
    return [{"feature": names[i], "abs_correlation": abs(float(corr[i]))} for i in ranking]


def _witness(witness, roles: str, names) -> dict | None:
    """A gamma witness by role, one letter of ``roles`` per part: the names
    of an index tuple, the name of an index."""
    if witness is None:
        return None
    return {role: names[part] if isinstance(part, int) else _names(part, names) for role, part in zip(roles, witness)}


def _gamma_section(design, table, e2, mode: str | None, max_enum: int) -> dict:
    """gamma_s2 from the summary pass, gamma_s from the table, and the
    submodularity ratio at k = 2 in the modes asked for."""
    names = design.names
    e1 = empirical_gamma_s(table)
    ratio_k = min(2, design.m)
    ratio: dict = {"base": [], "k": ratio_k}
    for ratio_mode in {"atmost": ("at_most_k",), "exact": ("exactly_k",)}.get(mode, ("at_most_k", "exactly_k")):
        try:
            res = submodularity_ratio(design, ratio_k, mode=ratio_mode, max_features=max_enum)
            ratio[ratio_mode] = {"value": res.gamma_sr, "argmin": _names(res.argmin, names), "skipped": res.skipped}
        except AuditError as exc:
            ratio[ratio_mode] = {"error": str(exc)}
    return {
        "gamma_s2": {"value": e2.gamma_s2, "witness": _witness(e2.witness_s2, "Aij", names), "skipped": e2.skipped_s2},
        "gamma_s": {"value": e1.gamma_s, "witness": _witness(e1.witness_s, "ABi", names), "skipped": e1.skipped_s},
        "gamma_sr": ratio,
    }


def _spectral_section(design, k: int, best: tuple[int, ...], alpha: float | None, max_enum: int) -> dict:
    """The sparse minimum eigenvalue at size 2k and, given alpha, the
    restricted eigenvalue on the best subset's cone."""
    size = min(2 * k, design.m)
    lam = sparse_min_eigenvalue(design.correlation_matrix(), size, max_features=max_enum)
    section = {"size": size, "lambda_min": lam.value, "witness": _names(lam.support, design.names)}
    if alpha is not None and best:
        re = restricted_eigenvalue(design.correlation_matrix(), best, alpha)
        section["restricted_eigenvalue"] = {
            "alpha": alpha,
            "subset": _names(best, design.names),
            "value": re.value,
            "is_heuristic": re.is_heuristic,
        }
    return section


def _violation_summary(count: int, head: Certificates, by_size, by_pair, names) -> dict:
    """A certificate list's count; its head, as stream lines parse; its
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


def _certificate_texts(
    certs: Certificates, names, sets: dict[int, str] | None = None, rows: slice = slice(None)
) -> list[str]:
    """The json_line text of each certificate's {"deficit", "form", "lhs",
    "rhs", "sets"} object among ``rows``, in order: one format for a head and
    for the stream. ``sets`` maps a mask to its name list's text; a mask it
    lacks is rendered once and added, so the lists and chunks that share it
    render each mask once."""
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
        values = values[rows].tolist()
        if role in ("i", "j"):
            lookup = encoded
        else:
            lookup = sets
            for mask in set(values).difference(sets):
                sets[mask] = f"[{', '.join(encoded[f] for f in indices_of(mask))}]"
        role_texts.append(map(lookup.__getitem__, values))
    floats = (float_texts(values[rows]) for values in (certs.deficit, certs.lhs, certs.rhs))
    return [template % row for row in zip(*floats, *role_texts)]


@contextmanager
def _certificate_stream(path: str | None, names) -> Iterator[Callable | None]:
    """None without a path; otherwise a sink for setfun._second_order_summary
    that writes each chunk of rows it is handed, STREAM_CHUNK rows at a time:
    second-order rows into the file at ``path``, suppression rows into an
    unlinked part beside it, appended to the file on a normal exit. Both
    share one cache of rendered sets."""
    if path is None:
        yield None
        return
    sets: dict[int, str] = {}
    with open(path, "wb") as stream, _part(Path(path).parent) as part:

        def write(out: BinaryIO, certs: Certificates) -> None:
            for lo in range(0, len(certs), STREAM_CHUNK):
                texts = _certificate_texts(certs, names, sets, slice(lo, lo + STREAM_CHUNK))
                out.write("".join(text + "\n" for text in texts).encode("ascii"))

        def sink(second: Certificates, suppression: Certificates) -> None:
            write(stream, second)
            write(part, suppression)

        yield sink
        _append_part(part, stream)


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


def _render_grid(args, span: list[range], outputs: list[BinaryIO]) -> None:
    """Evaluate the span a block at a time and write each chunk of a block's
    cells, as its CSV text to outputs[0] and its heatmap parts to the rest.
    A block with no cell is one empty chunk: it may still open or close a
    document."""
    from . import geometry2d

    for rows in span:
        block = geometry2d.grid_evaluate(args.theta_steps, args.v_steps, args.r2_full, rows)
        for start in range(0, max(len(block), 1), GRID_CHUNK_CELLS):
            chunk = range(start, min(start + GRID_CHUNK_CELLS, len(block)))
            outputs[0].write(geometry2d.grid_csv_text(block, chunk))
            if len(outputs) > 1:
                parts = geometry2d.svg_heatmap(block, SVG_FIELDS, args.theta_steps, args.v_steps, cell_range=chunk)
                for doc, part in zip(outputs[1:], parts):
                    doc.write(part)
        del block  # freed before the next block is evaluated


def _part(directory: Path | None) -> BinaryIO:
    """An unlinked temporary byte file in ``directory``, or in the default
    temporary directory where that takes no new file (as /dev, for a user
    who writes to /dev/null or /dev/stdout)."""
    try:
        return tempfile.TemporaryFile("w+b", dir=directory)
    except OSError:
        return tempfile.TemporaryFile("w+b")


def _append_part(part: BinaryIO, out: BinaryIO) -> None:
    """Append a whole part to a byte output; the seek flushes the part."""
    part.seek(0)
    shutil.copyfileobj(part, out)


def _fork_grid_worker(args, span: list[range], parts: list[BinaryIO]) -> int:
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
    # The heatmap directory is made before --out is opened, so a --svg that
    # cannot be one leaves the file at --out as it was.
    if args.svg is not None:
        svg_dir = Path(args.svg)
        svg_dir.mkdir(parents=True, exist_ok=True)
    # One worker per span after the first renders it into unlinked temporary
    # parts beside the outputs; this process renders span 0 straight into the
    # outputs, then appends each worker's parts in span order. The workers
    # are forked before any byte is written, so none can flush one.
    with _byte_output(args.out) as fh, ExitStack() as stack:
        outputs, part_dirs = [fh], [None if args.out is None else Path(args.out).parent]
        if args.svg is not None:
            for field in SVG_FIELDS:
                outputs.append(stack.enter_context(open(svg_dir / f"{field}.svg", "wb")))
                part_dirs.append(svg_dir)
        # (pid, span, parts) of each worker not yet reaped, reaped on every path
        workers: list[tuple[int, list[range], list[BinaryIO]]] = []
        stack.callback(lambda: [os.waitpid(pid, 0) for pid, _, _ in workers])
        for span in spans[1:]:
            parts = [stack.enter_context(_part(d)) for d in part_dirs]
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
    names = design.names
    if args.algo == "stepwise":
        steps = _step_records(forward_stepwise(design, min(args.k, design.m)), names)
        records = [{"step": rank, **step} for rank, step in enumerate(steps, start=1)]
    elif args.algo == "best":
        if args.k < 1:  # as stepwise and the audit refuse it
            raise ValueError(f"k must lie in 1..{design.m}")
        best = best_subset(design, min(args.k, design.m), max_features=args.max_enum)
        records = [{"algorithm": "best_subset", **_best_record(best, names)}]
    elif args.algo == "sis":
        ranking = _ranking_records(sis_screen(design, min(args.d, design.m)), design.marginal_correlations(), names)
        records = [{"rank": rank, **line} for rank, line in enumerate(ranking, start=1)]
    else:  # isis
        result = isis(design, args.d, args.rounds)
        records = [
            {"round": number, "picked": _names(rnd.picked, names), "scores": {names[i]: s for i, s in rnd.scores}}
            for number, rnd in enumerate(result.rounds, start=1)
        ]
        records.append({"selected": _names(result.selected, names), "skipped": result.skipped})
    _write_text(args.out, "".join(json_line(record) + "\n" for record in records))
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
    audit.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM, dest="max_enum")
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
    select.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM, dest="max_enum")
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
    try:
        _check_run(args)
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
