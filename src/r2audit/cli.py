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
import json
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .bitsets import indices_of
from .errors import AuditError
from .gamma import RatioQuery, submodularity_ratio
from .jsonsafe import float_texts, json_line, report_text, string_text
from .regress import FitCache, StandardizedDesign, gram_factory, load_csv, standardize
from .selection import best_subset, forward_stepwise, isis, nwf_verdict, sis_screen, table_best_subset
from .setfun import (
    TOP_CERTIFICATES,
    VIOLATION_TOL,
    Certificates,
    _second_order_summary,
    _table,
    empirical_gamma_s,
    empirical_gamma_s2,
)
from .spectral import ConeSpec, restricted_eigenvalue, sparse_min_eigenvalue

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
    names = design.names
    cache = FitCache()
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
    exhaustive = design.m <= max_enum
    if exhaustive:
        # The fit table is the run's one value of record: stepwise, the best
        # subset and every set-function kernel read it.
        table = _table(design, cache, max_enum)
    stepwise = forward_stepwise(design, k, cache=cache)
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

    if not exhaustive:
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
    # summaries. For the certificate stream it also keeps both whole lists,
    # and runs first, so that gamma_s2 reads it from the cache.
    top = TOP_CERTIFICATES if certificates is None else None
    if top is None:
        _second_order_summary(cache, design.m, VIOLATION_TOL, top)
    est2 = empirical_gamma_s2(design, cache=cache, max_features=max_enum)
    est1 = empirical_gamma_s(design, cache=cache, max_features=max_enum)
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
                cache=cache,
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
    summary = _second_order_summary(cache, design.m, VIOLATION_TOL, top)
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
    return {
        "count": count,
        "top": [json.loads(text) for text in _certificate_texts(head, names)],
        "by_size": by_size.tolist(),
        "by_pair": [
            {"i": names[i], "j": names[j], "count": int(by_pair[i, j])} for i, j in np.argwhere(by_pair).tolist()
        ],
    }


def _certificate_texts(certs: Certificates, names) -> list[str]:
    """The json_line text of each certificate's {"deficit", "form", "lhs",
    "rhs", "sets"} object, of a list stored in its order (a head or a slice):
    one format for the list, each mask's name list rendered once."""
    roles = sorted(zip(certs.roles, certs.columns), key=lambda pair: pair[0])
    template = (
        f'{{"deficit": %s, "form": {string_text(certs.form)}, "lhs": %s, "rhs": %s, "sets": {{'
        + ", ".join(f"{string_text(role)}: %s" for role, _ in roles)
        + "}}"
    )
    encoded = [string_text(name) for name in names]
    role_texts = []
    for role, values in roles:
        values = values.tolist()
        if role in ("i", "j"):
            lookup = encoded
        else:
            lookup = {mask: f"[{', '.join(encoded[f] for f in indices_of(mask))}]" for mask in set(values)}
        role_texts.append(map(lookup.__getitem__, values))
    rows = zip(float_texts(certs.deficit), float_texts(certs.lhs), float_texts(certs.rhs), *role_texts)
    return [template % row for row in rows]


def write_certificates(path: str | Path, lists, names) -> None:
    """Write every certificate of the lists, in order, one json_line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for certs in lists:
            for lo in range(0, len(certs), STREAM_CHUNK):
                texts = _certificate_texts(certs[lo : lo + STREAM_CHUNK], names)
                fh.write("".join(text + "\n" for text in texts))


def _cmd_audit(args) -> int:
    raw, response, names = load_csv(args.csv, args.response)
    design = standardize(raw, response, names)
    report, code = build_audit_report(
        design, str(args.csv), args.response, args.k, args.max_enum,
        mode=args.mode, alpha=args.alpha, certificates=args.certificates,
    )
    _write_text(args.out, report_text(report))
    return code


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

# About this many feasible cells are evaluated and rendered at a time, in
# blocks of whole theta lines: the largest block, not the grid, sets the
# command's memory.
GRID_BLOCK_CELLS = 4096
SVG_FIELDS = ("gamma1", "gamma2", "gamma_s2", "sum_bound", "gamma_sr", "t_ratio_bound")


def _cmd_grid(args) -> int:
    from . import geometry2d  # only grid needs it

    theta_steps, v_steps = args.theta_steps, args.v_steps
    geometry2d.check_grid(theta_steps, v_steps, args.r2_full)
    # evaluated, rendered and written a block of theta lines at a time, so no
    # whole-grid column, layout or text ever exists
    with _output(args.out) as fh, ExitStack() as svgs:
        docs = []
        if args.svg is not None:
            svg_dir = Path(args.svg)
            svg_dir.mkdir(parents=True, exist_ok=True)
            docs = [
                svgs.enter_context(open(svg_dir / f"{field}.svg", "w", encoding="utf-8", newline="\n"))
                for field in SVG_FIELDS
            ]
        for rows in geometry2d.theta_line_blocks(theta_steps, v_steps, GRID_BLOCK_CELLS):
            block = geometry2d.grid_evaluate(theta_steps, v_steps, args.r2_full, rows)
            lines = geometry2d.grid_csv_lines(block)
            if lines:
                fh.writelines(("\n".join(lines), "\n"))
            for field, doc in zip(SVG_FIELDS, docs):
                doc.write(geometry2d.svg_heatmap(block, field, theta_steps, v_steps))
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    raw, response, names = load_csv(args.csv, args.response)
    design = standardize(raw, response, names)
    if args.algo == "stepwise":
        trace = forward_stepwise(design, min(args.k, design.m))
        _write_text(args.out, trace.to_json_lines(design.names))
    elif args.algo == "best":
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


def _cmd_gen(args) -> int:
    from . import datasets  # only gen needs it

    if args.generator == "miller":
        X, y, names = datasets.miller_table()
    elif args.generator == "suppressor":
        gram = datasets.suppressor_population(args.p, args.sz, args.se)
        n = args.n if args.n is not None else args.p + 4
        design = gram_factory(gram, n)
        X, y, names = design.features, design.response, design.names
    else:  # gaussian
        beta = None
        if args.beta is not None:
            beta = [float(p) for p in args.beta.split(",")]
        X, y = datasets.random_gaussian(
            args.n, args.m, beta=beta, sigma_noise=args.sigma_noise, seed=args.seed
        )
        names = None
    text = datasets.csv_text(X, y, names)
    _write_text(args.out, text)
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
    try:
        return args.func(args)
    except (AuditError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
