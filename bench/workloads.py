"""The benchmark's workloads: one round of CLI ops each, made from a seed.

An op is one ``bosonstirling.cli.main(argv)`` call together with its
expected exit code, the work it does in the workload's unit, and a checker
that compares the op's output with an exact reference from
:mod:`reference`.  A checker raises :class:`Mismatch` (or any parse error)
on a wrong output and returns normally on a right one.

A round has 15 or 25 ops, one per kind and size, so that in a run made of
whole rounds the median and the 90th percentile of op latency fall in the
middle of one op's group of repeats, never on the edge between two ops.
The seed moves values (Philox keys, word letters, series coefficients),
never sizes, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("mc-random", "subst-passing", "stirling-words")


class Mismatch(Exception):
    """An op's output differs from the reference."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


@dataclass
class Op:
    kind: str
    argv: list[str]
    items: int
    code: int
    check: Callable[[str], None]
    out_file: Path | None = None


@dataclass(frozen=True)
class Calibration:
    """A fixed task of the benchmark's own, timed after every op.

    The host's speed swings by up to 2x over tens of seconds, and the op
    and a task doing the same kind of work swing together.  Times are
    therefore reported at the speed where `task` takes `seconds`.
    """

    task: Callable[[], object]
    seconds: float


_G = [Fraction(1), Fraction(-2, 3), Fraction(5, 7), Fraction(1, 2)]
_PHI = [Fraction(0), Fraction(1), Fraction(3, 4), Fraction(-1, 5)]


def _calibrate_mc() -> None:
    ref.count_successes(7, 5, 10, 20)
    ref.substitution_matrix(_G, _PHI, 8)


def _calibrate_subst() -> None:
    ref.substitution_matrix(_G, _PHI, 14)


def _calibrate_stirling() -> None:
    "\n".join(";".join(map(str, row)) for row in ref.stirling_rows("dad", 30))


#: Philox draws with small-integer recurrences, Fraction series products, and
#: big-integer rows rendered as text: the work each workload's ops do.
CALIBRATIONS = {
    "mc-random": Calibration(_calibrate_mc, 1.7e-3),
    "subst-passing": Calibration(_calibrate_subst, 5.0e-3),
    "stirling-words": Calibration(_calibrate_stirling, 1.75e-3),
}


def build_round(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mc-random":
        return _mc_round(rng)
    if workload == "subst-passing":
        return _subst_round(rng, workdir)
    if workload == "stirling-words":
        return _stirling_round(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# mc-random

_MC_HEADER = "size draws range seed successes estimate wilson95_lo wilson95_hi bound".split()


def _mc_fields(size: int, draws: int, range_r: int, seed: int) -> tuple[list[str], Fraction]:
    successes = ref.count_successes(seed, size, range_r, draws)
    estimate = Fraction(successes, draws)
    bound = ref.probability_bound(size, range_r)
    return [
        str(size), str(draws), str(range_r), str(seed), str(successes),
        format(float(estimate), ".6g"),
    ], estimate / bound


def _check_mc_row(cells: list[str], fields: list[str], size: int, range_r: int) -> None:
    expect(cells[:6] == fields, f"run fields {cells[:6]} != {fields}")
    expect(cells[8] == str(ref.probability_bound(size, range_r)), "bound")


def _mc_op(size: int, draws: int, range_r: int, seed: int) -> Op:
    fields, _ = _mc_fields(size, draws, range_r, seed)

    def check(text: str) -> None:
        lines = text.splitlines()
        expect(len(lines) == 2 and lines[0].split() == _MC_HEADER, "table shape")
        _check_mc_row(lines[1].split(), fields, size, range_r)

    argv = ["montecarlo", "--size", str(size), "--draws", str(draws),
            "--range", str(range_r), "--seed", str(seed), "--jobs", "1"]
    return Op(f"mc-{size}", argv, draws, 0, check)


def _sweep_op(size: int, draws: int, ranges: tuple[int, ...], seed: int) -> Op:
    expected = [_mc_fields(size, draws, r, seed) for r in ranges]

    def check(text: str) -> None:
        lines = text.splitlines()
        expect(lines[0].split() == _MC_HEADER + ["ratio"], "sweep header")
        expect(len(lines) == 1 + len(ranges), "one row per range")
        for line, r, (fields, ratio) in zip(lines[1:], ranges, expected):
            cells = line.split()
            _check_mc_row(cells, fields, size, r)
            expect(cells[9] == str(ratio), f"ratio at range {r}")

    argv = ["montecarlo", "--size", str(size), "--draws", str(draws), "--range", "10",
            "--seed", str(seed), "--jobs", "1",
            "--sweep-range", ",".join(map(str, ranges))]
    return Op("mc-sweep", argv, draws * len(ranges), 0, check)


def _mc_round(rng: random.Random) -> list[Op]:
    # Draw counts give the single runs about the same time at the seed
    # commit, and the sweeps clearly more, so the 90th percentile of latency
    # is the sweeps' median rather than the edge of the single runs' group.
    ops = []
    for _ in range(4):
        for size, draws in ((4, 150), (5, 100), (8, 40)):
            ops.append(_mc_op(size, draws, 10, rng.getrandbits(64)))
    for _ in range(3):
        ops.append(_sweep_op(5, 40, (2, 3, 5, 10), rng.getrandbits(64)))
    return ops


# ---------------------------------------------------------------------------
# subst-passing

# a†a, a†aa† and a†a†a: single-annihilator words, so their truncated
# Stirling matrices are unipotent and pass.
STIRLING_WORDS = ("da", "dad", "dda")

# Magnitudes of the free coefficients of g and φ.  Only the signs are seeded,
# so the entries, and the work, have the same size for every seed.
_MAGNITUDES = {
    "int": ([2, 1, 3, 1], [1, 2, 1]),
    "rat": ([Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(1, 7)],
            [Fraction(3, 4), Fraction(1, 3), Fraction(2, 5)]),
}


def _pair(rng: random.Random, kind: str) -> tuple[list[Fraction], list[Fraction]]:
    """Seeded g = 1 + O(x) and φ = x + O(x²)."""
    g_mag, phi_mag = _MAGNITUDES[kind]
    g = [Fraction(1)] + [rng.choice((1, -1)) * Fraction(c) for c in g_mag]
    phi = [Fraction(0), Fraction(1)] + [rng.choice((1, -1)) * Fraction(c) for c in phi_mag]
    return g, phi


def _pad(coeffs: list[Fraction], size: int) -> list[Fraction]:
    return (coeffs + [Fraction(0)] * size)[:size]


def _write_matrix(path: Path, m) -> None:
    path.write_text(json.dumps(
        {"size": len(m), "entries": [[str(v) for v in row] for row in m]}
    ))


def _check_subst_op(path: Path, m, g, phi, fmt: str, source=None, bad_k=None) -> Op:
    """check-subst on matrix m, the copy of `source` whose column bad_k fails."""
    failing = [] if bad_k is None else [
        (bad_k, ref.column_egf(source, bad_k), ref.column_egf(m, bad_k))
    ]

    def check_table(text: str) -> None:
        want = [f"verdict: {'false' if failing else 'true'}"]
        for k, expected, actual in failing:
            want += [f"failing columns: {k}", f"  k={k}",
                     f"    expected: {ref.render_series(expected)}",
                     f"    actual:   {ref.render_series(actual)}"]
        want += [f"g: {ref.render_series(g)}", f"phi: {ref.render_series(phi)}"]
        expect(text.splitlines() == want, "report differs from reference")

    def series_obj(coeffs) -> dict:
        return {"order": len(m) - 1, "coeffs": [str(c) for c in coeffs]}

    def check_json(text: str) -> None:
        obj = json.loads(text)
        expect(obj["verdict"] is (not failing), "verdict")
        expect(obj["g"] == series_obj(g), "g")
        expect(obj["phi"] == series_obj(phi), "phi")
        expect(obj["failing_columns"] == [
            {"k": k, "expected": series_obj(e), "actual": series_obj(a)}
            for k, e, a in failing
        ], "failing columns")

    argv = ["check-subst", str(path)] + (["--format", "json"] if fmt == "json" else [])
    kind = f"check-{'fail' if failing else 'pass'}-{path.stem.rsplit('-', 1)[0]}"
    return Op(kind, argv, len(m) ** 2, 1 if failing else 0,
              check_json if fmt == "json" else check_table)


def _build_subst_op(path: Path, g, phi, m, label: str) -> Op:
    size = len(m)
    want = {"size": size, "entries": [[str(v) for v in row] for row in m]}

    def check(text: str) -> None:
        expect(json.loads(text) == want, "built matrix differs from reference")

    argv = ["build-subst", "--g", ",".join(str(c) for c in g),
            "--phi", ",".join(str(c) for c in phi), "--size", str(size), "--out", str(path)]
    return Op(f"build-{label}", argv, size * size, 0, check, out_file=path)


def _late_failing(m, rng: random.Random) -> tuple[list, int]:
    """Copy of m with one last-row entry off by one, in a column k ≥ 2.

    Columns 0 and 1 fix g and φ, so only column k fails, and only at the
    last coefficient: every column is compared before the verdict is known.
    """
    k = rng.randint(2, len(m) - 2)
    bad = [list(row) for row in m]
    bad[-1][k] += 1
    return bad, k


# Ops per size: (Stirling words checked, pair kinds checked, sources given a
# late-failing copy, pair kinds built).  Size 61 is the slow end, so it gets
# fewer ops; 25 ops in all.
_SUBST_PLAN = {
    21: (("da", "dad", "dda"), ("int", "rat"), ("da", "int", "rat"), ("int", "rat")),
    41: (("da", "dad", "dda"), ("int", "rat"), ("dad", "int", "rat"), ("int", "rat")),
    61: (("dad",), ("rat",), ("int",), ("int", "rat")),
}


def _format(source: str) -> str:
    """Stirling-matrix reports are read as text, pair reports as JSON."""
    return "table" if source in STIRLING_WORDS else "json"


def _subst_round(rng: random.Random, workdir: Path) -> list[Op]:
    stirling = {w: ref.stirling_rows(w, max(_SUBST_PLAN) - 1) for w in STIRLING_WORDS}
    ops = []
    for size, (words, checked, failed, built) in _SUBST_PLAN.items():
        sources = {}
        for word in set(words + failed) & set(STIRLING_WORDS):
            m = [row + [0] * (size - len(row)) for row in stirling[word][:size]]
            g = ref.column_egf(m, 0)
            sources[word] = (m, g, ref.series_divide(ref.column_egf(m, 1), g))
        for kind in _MAGNITUDES:
            g, phi = _pair(rng, kind)
            m = ref.substitution_matrix(g, phi, size)
            sources[kind] = (m, _pad(g, size), _pad(phi, size))
            if kind in built:
                ops.append(_build_subst_op(workdir / f"built-{kind}-{size}.json",
                                           g, phi, m, kind))
        for name in words + checked:
            m, g, phi = sources[name]
            path = workdir / f"{name}-{size}.json"
            _write_matrix(path, m)
            ops.append(_check_subst_op(path, m, g, phi, _format(name)))
        for name in failed:
            m, g, phi = sources[name]
            bad, k = _late_failing(m, rng)
            path = workdir / f"{name}-late-{size}.json"
            _write_matrix(path, bad)
            ops.append(_check_subst_op(path, bad, g, phi, _format(name), source=m, bad_k=k))
    return ops


# ---------------------------------------------------------------------------
# stirling-words

# (letters, text given to the CLI, rows): a†a, a†aa†, a†aaa†a† and an rs: word.
_TABLE_WORDS = (
    ("da", "a+ a", 200),
    ("dad", "a+ a a+", 100),
    ("daadd", "a+ a a a+ a+", 80),
    (ref.word_letters([(2, 1), (1, 2)]), "rs:[2,1;1,2]", 60),
)


def _stirling_op(text: str, want: list[list[int]], fmt: str) -> Op:
    rows = len(want) - 1
    width = len(want[-1])

    def check(out: str) -> None:
        lines = out.splitlines()
        expect(len(lines) == rows + 1, "row count")
        for line, row in zip(lines, want):
            cells = line.split(";") if fmt == "csv" else line.split()
            padded = row if fmt == "csv" else row + [0] * (width - len(row))
            expect(cells == [str(v) for v in padded], "Stirling row differs")

    return Op(f"stirling-{fmt}", ["stirling", text, "--rows", str(rows), "--format", fmt],
              rows + 1, 0, check)


def _bell_op(text: str, want: list[list[int]], x: Fraction | None) -> Op:
    rows = len(want) - 1
    values = [ref.bell_value(row, x if x is not None else Fraction(1)) for row in want]
    fmt = "table" if x is None else "csv"

    def check(out: str) -> None:
        lines = out.splitlines()
        expect(len(lines) == rows + 1, "row count")
        for n, (line, value) in enumerate(zip(lines, values)):
            cells = line.split() if fmt == "table" else line.split(";")
            expect(cells == [str(n), str(value)], f"Bell row {n} differs")

    argv = ["bell", text, "--rows", str(rows), "--format", fmt]
    if x is not None:
        argv += ["--x", str(x)]
    return Op("bell" if x is None else "bell-x", argv, rows + 1, 0, check)


def _parse_normal_form(out: str) -> dict[tuple[int, int], int]:
    terms = {}
    for part in out.strip().split(" + "):
        cells = part.split()
        if len(cells) == 1:
            key = (0, 0)
        else:
            expect(cells[1].startswith("(a†)^") and cells[2].startswith("a^"), "term shape")
            key = (int(cells[1][5:]), int(cells[2][2:]))
        expect(key not in terms, "repeated term")
        terms[key] = int(cells[0])
    return terms


def _no_op(letters: str, text: str, kind: str) -> Op:
    want = ref.normal_form(letters)

    def check(out: str) -> None:
        expect(_parse_normal_form(out) == want, "normal form differs")

    return Op(kind, ["no", text], 1, 0, check)


def _stirling_round(rng: random.Random) -> list[Op]:
    ops = []
    for letters, text, rows in _TABLE_WORDS:
        want = ref.stirling_rows(letters, rows)
        ops.append(_stirling_op(text, want, "csv"))
        ops.append(_stirling_op(text, want, "table"))
        ops.append(_bell_op(text, want, None))
        # Two-digit primes, so every seed's x costs the same.
        x = Fraction(rng.choice((11, 13)), rng.choice((17, 19, 23)))
        ops.append(_bell_op(text, want, x))
    for length in (40, 50, 60, 70, 80):
        letters = list("a" * (length // 2) + "d" * (length // 2))
        rng.shuffle(letters)
        text = " ".join("a+" if c == "d" else "a" for c in letters)
        ops.append(_no_op("".join(letters), text, "no"))
    for _ in range(3):
        pairs = [(rng.randint(10, 30), rng.randint(10, 30)) for _ in range(3)]
        text = "rs:[" + ";".join(f"{r},{s}" for r, s in pairs) + "]"
        ops.append(_no_op(ref.word_letters(pairs), text, "no-rs"))
    # The worked example whose coefficient at (a†)^1 a^3 is 4.
    ops.append(_no_op("adaada", "a a+ a a a+ a", "no-example"))
    return ops
