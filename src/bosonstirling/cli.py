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
        ends_with_a = "true" if c.ends_with_a else "false"
        lines.append(f"ends_with_a: {ends_with_a}")
        lines.append(f"first_column_unit: {ends_with_a}")
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
    if args.size < 2:
        # Checked before the series are read: their order comes from the size.
        raise ValidationError(f"matrix size must be at least 2, got {args.size}")
    order = args.size - 1
    g = _parse_series_arg(args.g, order)
    phi = _parse_series_arg(args.phi, order)
    matrix = build_substitution_matrix(g, phi, args.size)
    # A matrix file is always JSON, whatever --format says.
    if args.format == "json" or args.out:
        text = dumps_canonical(matrix.to_json_obj())
    else:
        text = format_columns([[str(v) for v in row] for row in matrix.entries])
    _emit(args, text)
    return EXIT_OK


_MC_HEADER = [
    "size", "draws", "range", "seed", "successes",
    "estimate", "wilson95_lo", "wilson95_hi", "bound",
]


def _mc_fields(result) -> list:
    """The exact values of an experiment's row, one per ``_MC_HEADER`` name."""
    c = result.config
    return [
        c.size, c.draws, c.range_r, c.seed, result.successes,
        result.estimate, *result.wilson_95, result.bound,
    ]


def _mc_csv_row(result) -> str:
    return ";".join(map(str, _mc_fields(result)))


def _mc_table_row(result) -> list[str]:
    """The CSV values, with the estimate and Wilson interval as decimals."""
    fields = _mc_fields(result)
    cells = list(map(str, fields))
    cells[5:8] = map(_approx, fields[5:8])
    return cells


def _parse_sweep_range(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(
            f"--sweep-range needs comma-separated integers, got {text!r}"
        ) from None


def _require_printable_bound(size: int, range_r: int) -> None:
    """ValidationError, before any work, if the bound 1/r^e is too long to print.

    Python refuses to convert an integer of more than
    ``sys.get_int_max_str_digits()`` digits to text (0: no limit), so r^e
    cannot be printed exactly when r^e ≥ 10^limit.  With b the bit length
    of r, 2^(b−1) ≤ r < 2^b, and 3.3 < log₂10 < 10/3: so r^e prints when
    10·b·e ≤ 33·limit and does not when 3·(b−1)·e ≥ 10·limit.  Only in the
    narrow band between, where r^e has fewer than 7·limit bits, is it
    computed and compared.  A range below 2 is left to the usual checks.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or range_r < 2:
        return
    determined, total = count_free_parameters(size)
    exponent = total - determined
    bits = range_r.bit_length()
    if 10 * bits * exponent <= 33 * limit:
        return
    if 3 * (bits - 1) * exponent >= 10 * limit or range_r**exponent >= 10**limit:
        raise ValidationError(
            f"the bound's denominator {range_r}^{exponent} has more than "
            f"{limit} digits, too many to print"
        )


def cmd_montecarlo(args) -> int:
    sweep = args.sweep_range is not None
    ranges = _parse_sweep_range(args.sweep_range) if sweep else [args.range]
    configs = [
        ExperimentConfig(
            size=args.size, draws=args.draws, range_r=r, seed=args.seed, jobs=args.jobs
        )
        for r in ranges
    ]
    for cfg in configs:
        _require_printable_bound(cfg.size, cfg.range_r)
    results = [run_experiment(cfg) for cfg in configs]
    # A sweep is a list with each estimate/bound ratio (none in CSV); a
    # single run is one JSON object.
    if args.format == "json":
        objs = [r.to_json_obj() for r in results]
        if sweep:
            for obj, r in zip(objs, results):
                obj["ratio"] = str(r.ratio_to_bound)
        text = dumps_canonical(objs if sweep else objs[0])
    elif args.format == "csv":
        text = "\n".join([";".join(_MC_HEADER), *map(_mc_csv_row, results)])
    elif sweep:
        table = [_MC_HEADER + ["ratio"]]
        table += [_mc_table_row(r) + [str(r.ratio_to_bound)] for r in results]
        text = format_columns(table)
    else:
        text = format_columns([_MC_HEADER, *map(_mc_table_row, results)])
    _emit(args, text)
    return EXIT_OK


def cmd_bound(args) -> int:
    _require_printable_bound(args.size, args.range)
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

def _add_command(sub, name, func, help, *, csv=True,
                 out_help="write output to FILE instead of stdout"):
    """A subcommand running `func`, with ``--format`` (CSV only if `csv`) and ``--out``."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument(
        "--format", choices=["table", "json", "csv"] if csv else ["table", "json"],
        default="table", help="output format (default: table)",
    )
    sp.add_argument("--out", metavar="FILE", help=out_help)
    sp.set_defaults(func=func)
    return sp


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonstirling",
        description="Exact normal ordering, generalized Stirling/Bell matrices, "
        "and approximate-substitution tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sp = _add_command(sub, "no", cmd_no, "normally order a word")
    sp.add_argument("word", help="word text, e.g. \"a a+ a\" or \"rs:[1,1]\"")

    sp = _add_command(sub, "dd", cmd_dd, "double-dot form of a word")
    sp.add_argument("word")

    sp = _add_command(sub, "stirling", cmd_stirling, "generalized Stirling matrix of a word")
    sp.add_argument("word")
    sp.add_argument("--rows", type=int, required=True, help="materialize rows 0..N")
    sp.add_argument(
        "--check-subst", action="store_true",
        help="also test the truncated matrix for the substitution condition "
        "(single-annihilator words)",
    )

    sp = _add_command(sub, "bell", cmd_bell, "Bell numbers (or polynomial values) of a word")
    sp.add_argument("word")
    sp.add_argument("--rows", type=int, required=True)
    sp.add_argument(
        "--x",
        help="evaluate the Bell polynomials at this rational; "
        "write a negative value as --x=-3/2",
    )

    sp = _add_command(
        sub, "classify", cmd_classify, "substitution classification of a word", csv=False
    )
    sp.add_argument("word")

    sp = _add_command(
        sub, "check-subst", cmd_check_subst,
        "test a matrix file for the substitution condition", csv=False,
    )
    sp.add_argument("matrix_file")

    sp = _add_command(
        sub, "build-subst", cmd_build_subst,
        "build the matrix of g·f(φ) from series coefficients", csv=False,
        out_help="write the matrix JSON to FILE",
    )
    sp.add_argument("--g", required=True, help="comma-separated rationals, constant term first")
    sp.add_argument("--phi", required=True, help="comma-separated rationals, constant term first")
    sp.add_argument("--size", type=int, required=True)

    sp = _add_command(sub, "montecarlo", cmd_montecarlo, "random unipotent matrix experiment")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--draws", type=int, required=True)
    sp.add_argument("--range", type=int, required=True, help="entries drawn from {1..RANGE}")
    sp.add_argument("--seed", type=int, required=True, help="64-bit reproducibility seed")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers (deterministic)")
    sp.add_argument(
        "--sweep-range", metavar="R1,R2,...",
        help="run once per range cardinality and report estimate/bound ratios",
    )

    sp = _add_command(
        sub, "bound", cmd_bound, "upper bound on the substitution probability", csv=False
    )
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--range", type=int, required=True)

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
