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
from contextlib import nullcontext
from dataclasses import replace
from functools import cache
from itertools import chain, repeat, zip_longest

from . import __version__
from .boson import double_dot, normal_order, parse_word
from .errors import ValidationError, require_int
from .montecarlo import (
    ExperimentConfig,
    _require_printable_bound,
    count_free_parameters,
    probability_bound,
    run_experiment,
    run_sweep,
)
from .series import TruncatedSeries, parse_integer, parse_rational, parse_rationals
from .stirling import (
    bell_numbers,
    bell_polynomial,
    classify_word,
    stirling_matrix,
)
from .substitution import (
    MAX_REPORT_ORDER,
    FiniteMatrix,
    build_substitution_matrix,
    is_approximate_substitution,
    truncate_rn,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


def dumps_canonical(obj) -> str:
    """Canonical JSON: two-space indent, insertion key order, trailing newline.

    The text is ``json.dumps(obj, indent=2) + "\\n"``, made by joins: with an
    indent, ``json`` writes through its pure-Python encoder, one generator
    step per matrix entry.
    """
    return _dumps_indented(obj, "") + "\n"


def _dumps_indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value nested at indent `pad`."""
    text, inner = json.encoder.encode_basestring_ascii, pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        items = (map(text, obj) if {str}.issuperset(map(type, obj))
                 else [_dumps_indented(v, inner) for v in obj])
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, dict) and obj and {str}.issuperset(map(type, obj)):
        items = [f"{text(k)}: {_dumps_indented(v, inner)}" for k, v in obj.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    # A scalar, an empty container or a dict with keys other than text.  JSON
    # text holds no raw newline but the indent's, so each takes the pad.
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def load_matrix_file(path: str) -> FiniteMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValidationError("matrix file is nested too deeply") from None
    return FiniteMatrix.from_json_obj(obj)


def format_columns(rows, widths=None):
    """Right-justified columns, two spaces apart, one line at a time.

    Each row has a non-empty cell per column.  Without `widths`, `rows` is a
    list of rows of ``str`` cells and each column is as wide as its widest
    cell; a caller that knows the widths may give any iterable of rows.
    """
    if widths is None:
        widths = [max(map(len, col)) for col in zip(*rows)]
    for row in rows:
        yield "  ".join(map(str.rjust, row, widths))


def format_csv(rows):
    """One line per row: its values as text, ``;`` between them.

    Each line is made as it is read, so a value too long for ``str`` fails
    after the lines before it were written; commands with few rows make the
    list of lines in full first.
    """
    for row in rows:
        yield ";".join(map(str, row))


def _stirling_table(rows):
    """The table of a Stirling matrix's rows, zero-padded to the last row.

    Entries are non-negative, so a column's widest cell is its largest
    entry, and no padding zero is wider: one ``str`` per column gives the
    widths, and the cells are made a line at a time.
    """
    maxima = list(map(max, zip_longest(*rows, fillvalue=0)))
    width = len(maxima)
    return format_columns(
        (chain(map(str, row), repeat("0", width - len(row))) for row in rows),
        [len(str(v)) for v in maxima],
    )


def _emit(args, lines) -> None:
    """Write each of `lines`, with a newline if it has none, to ``--out`` or stdout.

    The first line is made before ``--out`` is opened, so a writer that
    fails its checks before its first line leaves no file behind.
    """
    lines = iter(lines)
    first = next(lines, "")
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        for line in chain((first,), lines):
            fh.write(line)
            if not line.endswith("\n"):
                fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_normal_form(args) -> int:
    # Looked up on each call, not bound when the parser is built, so that a
    # wrapper patched over the module global (as a tracer does) is called.
    order = normal_order if args.command == "no" else double_dot
    nf = order(parse_word(args.word))
    if args.format == "json":
        lines = [dumps_canonical(nf.to_json_obj())]
    elif args.format == "csv":
        lines = list(format_csv((j, l, c) for (j, l), c in nf.sorted_terms()))
    else:
        lines = [str(nf)]
    _emit(args, lines)
    return EXIT_OK


def cmd_stirling(args) -> int:
    w = parse_word(args.word)
    m = stirling_matrix(w, args.rows)
    if args.format == "json":
        lines = [dumps_canonical(m.to_json_obj())]
    elif args.format == "csv":
        # An entry too long for str fails here, before the first line, as
        # the whole text did: the last row holds the largest entry (see
        # stirling_matrix), and str's error names no value.
        str(max(m.rows[-1]))
        lines = format_csv(m.rows)
    else:
        lines = _stirling_table(m.rows)
    _emit(args, lines)
    if not args.check_subst:
        return EXIT_OK
    if w.annihilator_count != 1:
        reason = (
            f"word has {w.annihilator_count} annihilators, "
            "need exactly 1 for a unitriangular matrix"
        )
    elif args.rows < 1:
        reason = "need at least rows 0..1"
    else:
        try:
            report = is_approximate_substitution(truncate_rn(m, args.rows))
        except ValidationError as exc:
            reason = str(exc)
        else:
            verdict = "PASS" if report.verdict else "FAIL"
            # JSON and CSV stdout must stay parseable as data.
            print(
                f"substitution check (order {args.rows}): {verdict}",
                file=sys.stdout if args.format == "table" else sys.stderr,
            )
            return EXIT_OK if report.verdict else EXIT_FALSE
    print(f"substitution check skipped: {reason}", file=sys.stderr)
    return EXIT_OK


def cmd_bell(args) -> int:
    m = stirling_matrix(parse_word(args.word), args.rows)
    if args.x is None:
        values = bell_numbers(m)
    else:
        x = parse_rational(args.x)
        values = [bell_polynomial(m, n, x) for n in range(m.n_max + 1)]
    if args.format == "json":
        lines = [dumps_canonical([str(v) for v in values])]
    else:
        cells = [[str(n), str(v)] for n, v in enumerate(values)]
        lines = format_csv(cells) if args.format == "csv" else format_columns(cells)
    _emit(args, lines)
    return EXIT_OK


def cmd_classify(args) -> int:
    c = classify_word(parse_word(args.word))
    if args.format == "json":
        lines = [dumps_canonical(c.to_json_obj())]
    else:
        lines = [
            f"{key}: {json.dumps(value) if type(value) is bool else value}"
            for key, value in c.to_json_obj().items()
            if value is not None
        ]
    _emit(args, lines)
    return EXIT_OK


def cmd_check_subst(args) -> int:
    report = is_approximate_substitution(load_matrix_file(args.matrix_file))
    if args.format == "json":
        lines = [dumps_canonical(report.to_json_obj())]
    else:
        failing = report.failing_columns
        lines = [f"verdict: {'true' if report.verdict else 'false'}"]
        if failing:
            lines.append(f"failing columns: {', '.join(str(f.k) for f in failing)}")
        for f in failing:
            lines += [f"  k={f.k}", f"    expected: {f.expected}", f"    actual:   {f.actual}"]
        lines += [f"g: {report.extracted_g}", f"phi: {report.extracted_phi}"]
    _emit(args, lines)
    return EXIT_OK if report.verdict else EXIT_FALSE


def _parse_series_arg(text: str, order: int) -> TruncatedSeries:
    coeffs, d = parse_rationals([part.strip() for part in text.split(",")])
    return TruncatedSeries.from_coeffs(coeffs[: order + 1], order, d)


def cmd_build_subst(args) -> int:
    # Checked before the series are read: they are padded to the size.  The
    # cap is the largest matrix whose report SubstitutionReport reads back.
    order = require_int(args.size, "matrix size", 2, MAX_REPORT_ORDER + 1) - 1
    g = _parse_series_arg(args.g, order)
    phi = _parse_series_arg(args.phi, order)
    matrix = build_substitution_matrix(g, phi, args.size)
    # A matrix file is always JSON, whatever --format says.
    if args.format == "json" or args.out:
        lines = [dumps_canonical(matrix.to_json_obj())]
    else:
        lines = format_columns(matrix.entry_texts())
    _emit(args, lines)
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


def _mc_table_row(result, sweep: bool) -> list[str]:
    """The table's cells: the exact values with the estimate and Wilson interval
    as decimals, and for a sweep the estimate/bound ratio."""
    fields = _mc_fields(result)
    cells = list(map(str, fields))
    cells[5:8] = (format(float(v), ".6g") for v in fields[5:8])
    if sweep:
        cells.append(str(result.ratio_to_bound))
    return cells


def _integer_flag(text: str) -> int:
    """`parse_integer` for argparse, whose usage message is then the grammar's own."""
    try:
        return parse_integer(text)
    except ValidationError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_sweep_range(text: str) -> list[int]:
    try:
        return [parse_integer(part.strip()) for part in text.split(",")]
    except ValidationError:
        raise ValidationError(
            f"--sweep-range needs comma-separated integers, got {text!r}"
        ) from None


def cmd_montecarlo(args) -> int:
    sweep = args.sweep_range is not None
    ranges = _parse_sweep_range(args.sweep_range) if sweep else [args.range]
    base = ExperimentConfig(
        size=args.size, draws=args.draws, range_r=args.range, seed=args.seed, jobs=args.jobs
    )
    configs = [replace(base, range_r=r) for r in ranges]
    for cfg in configs:
        _require_printable_bound(cfg.size, cfg.range_r)
    results = run_sweep(base, ranges) if sweep else [run_experiment(base)]
    # A sweep is a list with each estimate/bound ratio (none in CSV); a
    # single run is one JSON object.
    if args.format == "json":
        objs = [r.to_json_obj() for r in results]
        if sweep:
            for obj, r in zip(objs, results):
                obj["ratio"] = str(r.ratio_to_bound)
        lines = [dumps_canonical(objs if sweep else objs[0])]
    elif args.format == "csv":
        lines = list(format_csv([_MC_HEADER, *map(_mc_fields, results)]))
    else:
        header = _MC_HEADER + ["ratio"] if sweep else _MC_HEADER
        lines = format_columns([header, *(_mc_table_row(r, sweep) for r in results)])
    _emit(args, lines)
    return EXIT_OK


def cmd_bound(args) -> int:
    _require_printable_bound(args.size, args.range)
    value = probability_bound(args.size, args.range)
    if args.format == "json":
        text = dumps_canonical({
            "size": args.size,
            "range": args.range,
            **count_free_parameters(args.size)._asdict(),
            "bound": str(value),
        })
    else:
        text = str(value)
    _emit(args, [text])
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
    integer = {"type": _integer_flag, "required": True}

    sp = _add_command(sub, "no", cmd_normal_form, "normally order a word")
    sp.add_argument("word", help="word text, e.g. \"a a+ a\" or \"rs:[1,1]\"")

    sp = _add_command(sub, "dd", cmd_normal_form, "double-dot form of a word")
    sp.add_argument("word")

    sp = _add_command(sub, "stirling", cmd_stirling, "generalized Stirling matrix of a word")
    sp.add_argument("word")
    sp.add_argument("--rows", **integer, help="materialize rows 0..N")
    sp.add_argument(
        "--check-subst", action="store_true",
        help="also test the truncated matrix for the substitution condition "
        "(single-annihilator words)",
    )

    sp = _add_command(sub, "bell", cmd_bell, "Bell numbers (or polynomial values) of a word")
    sp.add_argument("word")
    sp.add_argument("--rows", **integer)
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
    sp.add_argument("--size", **integer)

    sp = _add_command(sub, "montecarlo", cmd_montecarlo, "random unipotent matrix experiment")
    sp.add_argument("--size", **integer)
    sp.add_argument("--draws", **integer)
    sp.add_argument("--range", **integer, help="entries drawn from {1..RANGE}")
    sp.add_argument("--seed", **integer, help="64-bit reproducibility seed")
    sp.add_argument("--jobs", type=_integer_flag, default=1,
                    help="parallel workers (deterministic)")
    sp.add_argument(
        "--sweep-range", metavar="R1,R2,...",
        help="run once per range cardinality and report estimate/bound ratios",
    )

    sp = _add_command(
        sub, "bound", cmd_bound, "upper bound on the substitution probability", csv=False
    )
    sp.add_argument("--size", **integer)
    sp.add_argument("--range", **integer)

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
