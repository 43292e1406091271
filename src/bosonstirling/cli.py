"""Command-line front end.

One binary, one subcommand per operation: ``no`` and ``dd`` for normal
ordering and the double-dot form, ``stirling``/``bell``/``classify`` for the
matrices attached to a word, ``check-subst``/``build-subst`` for the
substitution condition on finite matrices, and ``montecarlo``/``bound`` for
the random-matrix experiment.  Data goes to stdout, diagnostics to stderr.

Exit codes are a stable contract: 0 for success (and a true verdict), 1
when the substitution test reports false, 2 for usage or parse errors.
Table output uses fixed-width columns; ``--format json`` is lossless (exact
rationals as strings) and round-trips through the package's parsers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import zip_longest

from . import __version__
from .boson import double_dot, normal_order, parse_word
from .errors import ValidationError
from .montecarlo import (
    ExperimentConfig,
    count_free_parameters,
    probability_bound,
    range_sweep,
    run_experiment,
)
from .series import TruncatedSeries, parse_rational
from .stirling import (
    bell_numbers,
    bell_polynomial,
    classify_word,
    stirling_matrix,
)
from .substitution import (
    FiniteMatrix,
    build_substitution_matrix,
    is_approximate_substitution,
    truncate_rn,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


def dumps_canonical(obj) -> str:
    """Canonical JSON: two-space indent, insertion key order, trailing newline."""
    return json.dumps(obj, indent=2) + "\n"


def load_matrix_file(path: str) -> FiniteMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValidationError("matrix file is nested too deeply") from None
    return FiniteMatrix.from_json_obj(obj)


def dump_matrix_file(path: str, matrix: FiniteMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(matrix.to_json_obj()))


def format_columns(rows: list[list[str]]) -> str:
    """Right-justified fixed-width columns, two spaces apart, no trailing blanks."""
    widths = [max(map(len, col)) for col in zip_longest(*rows, fillvalue="")]
    lines = []
    for row in rows:
        cells = [cell.rjust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _approx(value: Fraction) -> str:
    try:
        return format(float(value), ".6g")
    except OverflowError:
        return str(value)


def _emit(args, text: str) -> None:
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------------------
# subcommands

def _render_normal_form(nf, fmt: str) -> str:
    if fmt == "json":
        return dumps_canonical(nf.to_json_obj())
    if fmt == "csv":
        return "\n".join(f"{j};{l};{c}" for (j, l), c in nf.sorted_terms())
    return str(nf)


def cmd_no(args) -> int:
    nf = normal_order(parse_word(args.word))
    _emit(args, _render_normal_form(nf, args.format))
    return EXIT_OK


def cmd_dd(args) -> int:
    nf = double_dot(parse_word(args.word))
    _emit(args, _render_normal_form(nf, args.format))
    return EXIT_OK


def cmd_stirling(args) -> int:
    w = parse_word(args.word)
    m = stirling_matrix(w, args.rows)
    if args.format == "json":
        text = dumps_canonical(m.to_json_obj())
    elif args.format == "csv":
        text = "\n".join(";".join(str(v) for v in row) for row in m.rows)
    else:
        width = m.n_max * m.s_tot + 1
        padded = [
            [str(v) for v in row] + ["0"] * (width - len(row)) for row in m.rows
        ]
        text = format_columns(padded)
    _emit(args, text)
    code = EXIT_OK
    if args.check_subst:
        if m.s_tot != 1:
            print(
                f"substitution check skipped: word has {m.s_tot} annihilators, "
                "need exactly 1 for a unitriangular matrix",
                file=sys.stderr,
            )
        elif args.rows < 1:
            print(
                "substitution check skipped: need at least rows 0..1",
                file=sys.stderr,
            )
        else:
            try:
                report = is_approximate_substitution(truncate_rn(m, args.rows))
            except ValidationError as exc:
                print(f"substitution check skipped: {exc}", file=sys.stderr)
            else:
                verdict = "PASS" if report.verdict else "FAIL"
                print(f"substitution check (order {args.rows}): {verdict}")
                if not report.verdict:
                    code = EXIT_FALSE
    return code


def cmd_bell(args) -> int:
    m = stirling_matrix(parse_word(args.word), args.rows)
    if args.x is None:
        values = bell_numbers(m)
    else:
        x = parse_rational(args.x)
        values = [bell_polynomial(m, n, x) for n in range(m.n_max + 1)]
    if args.format == "json":
        text = dumps_canonical([str(v) for v in values])
    elif args.format == "csv":
        text = "\n".join(f"{n};{v}" for n, v in enumerate(values))
    else:
        text = format_columns([[str(n), str(v)] for n, v in enumerate(values)])
    _emit(args, text)
    return EXIT_OK


def cmd_classify(args) -> int:
    c = classify_word(parse_word(args.word))
    if args.format == "json":
        text = dumps_canonical(c.to_json_obj())
    else:
        lines = [f"kind: {c.kind}"]
        if c.r is not None:
            lines.append(f"r: {c.r}")
            lines.append(f"p: {c.p}")
        lines.append(f"ends_with_a: {'true' if c.ends_with_a else 'false'}")
        lines.append(f"first_column_unit: {'true' if c.first_column_unit else 'false'}")
        text = "\n".join(lines)
    _emit(args, text)
    return EXIT_OK


def _render_report(report, fmt: str) -> str:
    if fmt == "json":
        return dumps_canonical(report.to_json_obj())
    lines = [f"verdict: {'true' if report.verdict else 'false'}"]
    if report.failing_columns:
        lines.append(f"failing columns: {', '.join(str(f.k) for f in report.failing_columns)}")
        for f in report.failing_columns:
            lines.append(f"  k={f.k}")
            lines.append(f"    expected: {f.expected}")
            lines.append(f"    actual:   {f.actual}")
    lines.append(f"g: {report.extracted_g}")
    lines.append(f"phi: {report.extracted_phi}")
    return "\n".join(lines)


def cmd_check_subst(args) -> int:
    matrix = load_matrix_file(args.matrix_file)
    report = is_approximate_substitution(matrix)
    _emit(args, _render_report(report, args.format))
    return EXIT_OK if report.verdict else EXIT_FALSE


def _parse_series_arg(text: str, order: int) -> TruncatedSeries:
    coeffs = [parse_rational(part.strip()) for part in text.split(",")]
    if len(coeffs) > order + 1:
        coeffs = coeffs[: order + 1]
    return TruncatedSeries.from_coeffs(coeffs, order)


def cmd_build_subst(args) -> int:
    order = args.size - 1
    g = _parse_series_arg(args.g, order)
    phi = _parse_series_arg(args.phi, order)
    matrix = build_substitution_matrix(g, phi, args.size)
    if args.out:
        dump_matrix_file(args.out, matrix)
        return EXIT_OK
    if args.format == "json":
        text = dumps_canonical(matrix.to_json_obj())
    else:
        text = format_columns([[str(v) for v in row] for row in matrix.entries])
    print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


_MC_HEADER = [
    "size", "draws", "range", "seed", "successes",
    "estimate", "wilson95_lo", "wilson95_hi", "bound",
]


def _mc_table_row(result) -> list[str]:
    c = result.config
    return [
        str(c.size), str(c.draws), str(c.range_r), str(c.seed),
        str(result.successes), _approx(result.estimate),
        _approx(result.wilson_95[0]), _approx(result.wilson_95[1]),
        str(result.bound),
    ]


def cmd_montecarlo(args) -> int:
    jobs = args.jobs
    if args.sweep_range:
        ranges = [int(part) for part in args.sweep_range.split(",")]
        results = range_sweep(args.size, args.draws, ranges, args.seed, jobs=jobs)
        if args.format == "json":
            rows = []
            for r in results:
                obj = r.to_json_obj()
                obj["ratio"] = str(r.ratio_to_bound)
                rows.append(obj)
            text = dumps_canonical(rows)
        elif args.format == "csv":
            lines = [";".join(_MC_HEADER)]
            lines += [r.to_csv_row() for r in results]
            text = "\n".join(lines)
        else:
            table = [_MC_HEADER + ["ratio"]]
            table += [_mc_table_row(r) + [str(r.ratio_to_bound)] for r in results]
            text = format_columns(table)
        _emit(args, text)
        return EXIT_OK
    cfg = ExperimentConfig(
        size=args.size, draws=args.draws, range_r=args.range,
        seed=args.seed, jobs=jobs,
    )
    result = run_experiment(cfg)
    if args.format == "json":
        text = dumps_canonical(result.to_json_obj())
    elif args.format == "csv":
        text = "\n".join([";".join(_MC_HEADER), result.to_csv_row()])
    else:
        text = format_columns([_MC_HEADER, _mc_table_row(result)])
    _emit(args, text)
    return EXIT_OK


def cmd_bound(args) -> int:
    value = probability_bound(args.size, args.range)
    if args.format == "json":
        determined, total = count_free_parameters(args.size)
        obj = {
            "size": args.size,
            "range": args.range,
            "determined": determined,
            "total": total,
            "bound": str(value),
        }
        text = dumps_canonical(obj)
    else:
        text = str(value)
    _emit(args, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_format(sp, *, csv: bool = True) -> None:
    choices = ["table", "json", "csv"] if csv else ["table", "json"]
    sp.add_argument(
        "--format", choices=choices, default="table",
        help="output format (default: table)",
    )


def _add_out(sp) -> None:
    sp.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonstirling",
        description="Exact normal ordering, generalized Stirling/Bell matrices, "
        "and approximate-substitution tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = sub.add_parser("no", help="normally order a word")
    sp.add_argument("word", help="word text, e.g. \"a a+ a\" or \"rs:[1,1]\"")
    _add_format(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_no)

    sp = sub.add_parser("dd", help="double-dot form of a word")
    sp.add_argument("word")
    _add_format(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_dd)

    sp = sub.add_parser("stirling", help="generalized Stirling matrix of a word")
    sp.add_argument("word")
    sp.add_argument("--rows", type=int, required=True, help="materialize rows 0..N")
    sp.add_argument(
        "--check-subst", action="store_true",
        help="also test the truncated matrix for the substitution condition "
        "(single-annihilator words)",
    )
    _add_format(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_stirling)

    sp = sub.add_parser("bell", help="Bell numbers (or polynomial values) of a word")
    sp.add_argument("word")
    sp.add_argument("--rows", type=int, required=True)
    sp.add_argument(
        "--x",
        help="evaluate the Bell polynomials at this rational; "
        "write a negative value as --x=-3/2",
    )
    _add_format(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_bell)

    sp = sub.add_parser("classify", help="substitution classification of a word")
    sp.add_argument("word")
    _add_format(sp, csv=False)
    _add_out(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("check-subst", help="test a matrix file for the substitution condition")
    sp.add_argument("matrix_file")
    _add_format(sp, csv=False)
    _add_out(sp)
    sp.set_defaults(func=cmd_check_subst)

    sp = sub.add_parser("build-subst", help="build the matrix of g·f(φ) from series coefficients")
    sp.add_argument("--g", required=True, help="comma-separated rationals, constant term first")
    sp.add_argument("--phi", required=True, help="comma-separated rationals, constant term first")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--out", metavar="FILE", help="write the matrix JSON to FILE")
    _add_format(sp, csv=False)
    sp.set_defaults(func=cmd_build_subst)

    sp = sub.add_parser("montecarlo", help="random unipotent matrix experiment")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--draws", type=int, required=True)
    sp.add_argument("--range", type=int, required=True, help="entries drawn from {1..RANGE}")
    sp.add_argument("--seed", type=int, required=True, help="64-bit reproducibility seed")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers (deterministic)")
    sp.add_argument(
        "--sweep-range", metavar="R1,R2,...",
        help="run once per range cardinality and report estimate/bound ratios",
    )
    _add_format(sp)
    _add_out(sp)
    sp.set_defaults(func=cmd_montecarlo)

    sp = sub.add_parser("bound", help="upper bound on the substitution probability")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--range", type=int, required=True)
    _add_format(sp, csv=False)
    _add_out(sp)
    sp.set_defaults(func=cmd_bound)

    return parser


@cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call and then reused.

    Parsing leaves the parser as it was: every call fills a fresh namespace.
    """
    return build_arg_parser()


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = _arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, KeyError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
