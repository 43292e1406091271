"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs one op of each kind of every workload and checks its output, shows
that every checker rejects a deliberately perturbed output, that the
references agree with the program where both apply, and that a traced op
records the layers it passes through.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
import reference as ref
from spans import TARGETS, Tracer
from workloads import WORKLOADS, build_round

cli = run.load_cli()
from bosonstirling import (  # noqa: E402
    is_approximate_substitution, normal_order, parse_word, random_unipotent,
    stirling_matrix, trial_stream,
)

problems: list[str] = []


def require(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        problems.append(what)


def bump_last_number(text: str) -> str:
    """A changed Stirling row, Bell value or normal-form term."""
    m = list(re.finditer(r"\d+", text))[-1]
    return text[:m.start()] + str(int(m.group()) + 1) + text[m.end():]


def bump_successes(text: str) -> str:
    """An off-by-one success count in the first result row."""
    lines = text.splitlines()
    cells = lines[1].split()
    cells[4] = str(int(cells[4]) + 1)
    lines[1] = "  ".join(cells)
    return "\n".join(lines) + "\n"


def wrong_g(text: str) -> str:
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        obj["g"]["coeffs"][1] = str(Fraction(obj["g"]["coeffs"][1]) + 1)
        return json.dumps(obj, indent=2) + "\n"
    return re.sub(r"^g: 1", "g: 2", text, flags=re.M)


def bump_entry(text: str) -> str:
    obj = json.loads(text)
    obj["entries"][-1][0] = str(Fraction(obj["entries"][-1][0]) + 1)
    return json.dumps(obj, indent=2) + "\n"


def perturb(kind: str, text: str) -> str:
    if kind.startswith("mc-"):
        return bump_successes(text)
    if kind.startswith("check-"):
        return wrong_g(text)
    if kind.startswith("build-"):
        return bump_entry(text)
    return bump_last_number(text)


def first_of_each_kind(ops):
    seen = set()
    for index, op in enumerate(ops):
        if op.kind not in seen:
            seen.add(op.kind)
            yield index, op


def check_ops(workdir: Path) -> None:
    for workload in WORKLOADS:
        ops = build_round(workload, 1, workdir)
        (workdir / "other").mkdir(exist_ok=True)
        other = build_round(workload, 2, workdir / "other")
        require([(o.kind, o.items) for o in ops] == [(o.kind, o.items) for o in other],
                f"{workload}: the seed changes values, not op kinds or sizes")
        for index, op in first_of_each_kind(ops):
            _, code, text, _ = run.run_op(cli, op)
            verify = run.Verifier()
            require(verify(index, op, code, text), f"{workload} {op.kind}: output checks")
            require(not verify(index, op, code, perturb(op.kind, text)),
                    f"{workload} {op.kind}: perturbed output is flagged")
            require(not verify(index, op, 1 - op.code, text),
                    f"{workload} {op.kind}: wrong exit code is flagged")


def check_references() -> None:
    rng = random.Random(0)
    verdicts = set()
    agree = True
    for trial in range(2000):
        size, range_r = rng.randint(3, 8), rng.randint(1, 3)
        m = ref.draw_matrix(99, trial, size, range_r)
        lib = random_unipotent(size, range_r, trial_stream(99, trial))
        agree &= lib.entries == tuple(tuple(map(Fraction, row)) for row in m)
        verdict = is_approximate_substitution(lib).verdict
        agree &= verdict == ref.passes(m)
        verdicts.add(verdict)
    require(agree and verdicts == {True, False},
            "Philox draws and verdicts agree with the program on 2000 matrices")
    words = ["".join(w) for n in range(1, 8) for w in itertools.product("ad", repeat=n)]
    require(all(normal_order(parse_word(w)).terms == ref.normal_form(w) for w in words),
            f"normal forms agree with the program on all {len(words)} words up to length 7")
    require(all([list(r) for r in stirling_matrix(parse_word(w), 12).rows]
                == ref.stirling_rows(w, 12) for w in ("da", "dad", "daadd", "aad", "dda")),
            "Stirling rows agree with the program, d < 0 included")
    require(ref.normal_form("adaada").get((1, 3)) == 4,
            "a a† a a a† a has coefficient 4 at (a†)^1 a^3")


def check_tracer(workdir: Path) -> None:
    tracer = Tracer()
    original = cli.main
    tracer.install()
    try:
        for workload in WORKLOADS:
            for _, op in first_of_each_kind(build_round(workload, 1, workdir)):
                run.run_op(cli, op)
    finally:
        tracer.uninstall()
    require(cli.main is original, "uninstall restores the originals")
    require({span[2] for span in tracer.spans} == {name for _, _, name in TARGETS},
            "every wrapped layer records spans")
    parents = {tracer.spans[s[1]][2] for s in tracer.spans
               if s[2] == "substitution.verdict" and s[1] >= 0}
    require(parents == {"montecarlo.run_experiment", "cli"},
            "verdicts called by name from montecarlo are traced")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        check_ops(Path(tmp))
        check_references()
        check_tracer(Path(tmp))
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
