"""Mutation gate: each row breaks one piece of src/ and names the tests that must notice.

For each row, the whole working tree except ``.git`` is copied to a
temporary directory outside the repository.  The row's source text, which
must occur exactly once in its file, is replaced there, and the row's
pytest selector runs with the copy as working directory, so that
``pyproject.toml`` puts the copy's ``src/`` on the path.  A row expected to
be "killed" holds when those tests fail; one expected to be "survives"
holds when they pass.  First the selectors all run on an unmutated copy
and must pass, so a kill is never a test that fails anyway.

The script uses the standard library only and runs pytest in a
subprocess.  Run it from any directory::

    python3 tests/mutation.py

It exits 1 if any row does not behave as expected or its source text does
not match exactly once, and leaves the working tree as it was.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/bosonstirling/"
READERS = "tests/test_cli.py::TestJsonReaders::"
DERIVED = READERS + "test_derived_value_contradiction_rejected"
SIZE_CAP = "tests/test_cli.py::TestBuildSubstCommand::"

# (file, exact source text, replacement, pytest selector, expectation)
ROWS = [
    (PACKAGE + "errors.py", "kind(value)) != derived:", "kind(value)) == derived:",
     READERS + "test_round_trip", "killed"),
    (PACKAGE + "series.py", 'json_derived(obj, "order", s.order, int)', "pass",
     DERIVED + "[TruncatedSeries-order]", "killed"),
    (PACKAGE + "substitution.py", 'json_derived(obj, "size", m.size, int)', "pass",
     DERIVED + "[FiniteMatrix-size]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "s_tot", s_tot, int)', "pass",
     DERIVED + "[GeneralizedStirlingMatrix-s_tot]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "d", excess(word), int)', "pass",
     DERIVED + "[GeneralizedStirlingMatrix-d]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "kind", c.kind)', "pass",
     DERIVED + "[WordClassification-kind]", "killed"),
    (PACKAGE + "stirling.py", 'json_derived(obj, "first_column_unit", c.ends_with_a, bool)',
     "pass", DERIVED + "[WordClassification-first_column_unit]", "killed"),
    (PACKAGE + "montecarlo.py",
     'json_derived(obj, "estimate", result.estimate, parse_rational)',
     "pass", DERIVED + "[ExperimentResult-estimate]", "killed"),
    (PACKAGE + "montecarlo.py",
     'json_derived(obj, "wilson_95", result.wilson_95, lambda pair: tuple(\n'
     '            map(parse_rational, json_list(pair, "wilson_95", length=2))))',
     "pass", DERIVED + "[ExperimentResult-wilson_95.0]", "killed"),
    (PACKAGE + "montecarlo.py", 'json_derived(obj, "bound", result.bound, parse_rational)',
     "pass", DERIVED + "[ExperimentResult-bound]", "killed"),
    (PACKAGE + "montecarlo.py",
     'json_derived(obj, "ratio", result.ratio_to_bound, parse_rational)',
     "pass", READERS + "test_experiment_result_pins[ratio-12345]", "killed"),
    (PACKAGE + "substitution.py", 'json_derived(obj, "verdict", not failing, bool)', "pass",
     DERIVED + "[SubstitutionReport-verdict]", "killed"),
    (PACKAGE + "cli.py", "<= MAX_REPORT_ORDER + 1:", "<= MAX_REPORT_ORDER + 2:",
     SIZE_CAP + "test_size_above_cap_exit_2_before_any_series[258]", "killed"),
    (PACKAGE + "cli.py", "<= MAX_REPORT_ORDER + 1:", "<= MAX_REPORT_ORDER:",
     SIZE_CAP + "test_size_at_cap_builds", "killed"),
]


def copy_tree(target: Path) -> Path:
    tree = target / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__"))
    return tree


def run_tests(tree: Path, *selectors: str) -> int:
    """pytest's exit code: 0 all passed, 1 some failed, other codes a broken run."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selectors],
        cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    problems = 0
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        code = run_tests(copy_tree(Path(scratch)), *sorted({row[3] for row in ROWS}))
        if code != 0:
            print(f"FAIL  the selectors exit {code} on the unmutated tree")
            return 1
    for path, text, replacement, selector, expected in ROWS:
        label = f"{path}: {text.splitlines()[0]!r} -> {replacement!r}"
        source = (ROOT / path).read_text(encoding="utf-8")
        if source.count(text) != 1:
            print(f"FAIL  {label}: the text occurs {source.count(text)} times, not once")
            problems += 1
            continue
        with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
            tree = copy_tree(Path(scratch))
            (tree / path).write_text(source.replace(text, replacement), encoding="utf-8")
            code = run_tests(tree, selector)
        # Exit 1 means the mutant ran and a test failed; any other nonzero
        # code is a broken run (a collection error, say), which kills nothing.
        outcome = {0: "survives", 1: "killed"}.get(code, f"broken run (exit {code})")
        ok = outcome == expected
        print(f"{'ok  ' if ok else 'FAIL'}  {label}: {outcome}")
        problems += not ok
    print(f"{problems} problem(s) in {len(ROWS)} rows")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
