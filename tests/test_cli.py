"""End-to-end CLI fixtures: golden stdout, exit codes, and format round-trips."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bosonstirling
from bosonstirling import (
    ExperimentConfig,
    ExperimentResult,
    FiniteMatrix,
    GeneralizedStirlingMatrix,
    NormalForm,
    SubstitutionReport,
    TruncatedSeries,
    ValidationError,
    WordClassification,
    build_substitution_matrix,
    classify_word,
    cli,
    is_approximate_substitution,
    normal_order,
    parse_word,
    run_experiment,
    stirling_matrix,
    truncate_rn,
)
from bosonstirling.cli import dumps_canonical, main
from bosonstirling.stirling import (
    NOT_SINGLE_ANNIHILATOR,
    PURE_SUBSTITUTION,
    SUBSTITUTION_WITH_PREFUNCTION,
)

STIRLING2_TABLE = """\
1  0   0   0   0   0  0
0  1   0   0   0   0  0
0  1   1   0   0   0  0
0  1   3   1   0   0  0
0  1   7   6   1   0  0
0  1  15  25  10   1  0
0  1  31  90  65  15  1
"""

PREFUNCTION_CSV = """\
1
1;1
2;4;1
6;18;9;1
24;96;72;16;1
120;600;600;200;25;1
720;4320;5400;2400;450;36;1
"""


# A rational matrix whose failing columns have non-integer expected
# coefficients, and its report as check-subst prints it.
FAILING_RATIONAL_ROWS = [
    ["1", "0", "0", "0", "0"],
    ["1/2", "1", "0", "0", "0"],
    ["1/3", "2/3", "1", "0", "0"],
    ["1", "1/4", "1", "1", "0"],
    ["-2", "3/5", "1/7", "2", "1"],
]

FAILING_RATIONAL_REPORT = """\
verdict: false
failing columns: 2, 3
  k=2
    expected: 1/2 x^2 + 1/12 x^3 - 1/36 x^4
    actual:   1/2 x^2 + 1/6 x^3 + 1/168 x^4
  k=3
    expected: 1/6 x^3
    actual:   1/6 x^3 + 1/12 x^4
g: 1 + 1/2 x + 1/6 x^2 + 1/6 x^3 - 1/12 x^4
phi: x - 1/6 x^2 - 1/24 x^3 - 67/720 x^4
"""

FAILING_RATIONAL_REPORT_JSON = """\
{
  "verdict": false,
  "failing_columns": [
    {
      "k": 2,
      "expected": {
        "order": 4,
        "coeffs": [
          "0",
          "0",
          "1/2",
          "1/12",
          "-1/36"
        ]
      },
      "actual": {
        "order": 4,
        "coeffs": [
          "0",
          "0",
          "1/2",
          "1/6",
          "1/168"
        ]
      }
    },
    {
      "k": 3,
      "expected": {
        "order": 4,
        "coeffs": [
          "0",
          "0",
          "0",
          "1/6",
          "0"
        ]
      },
      "actual": {
        "order": 4,
        "coeffs": [
          "0",
          "0",
          "0",
          "1/6",
          "1/12"
        ]
      }
    }
  ],
  "g": {
    "order": 4,
    "coeffs": [
      "1",
      "1/2",
      "1/6",
      "1/6",
      "-1/12"
    ]
  },
  "phi": {
    "order": 4,
    "coeffs": [
      "0",
      "1",
      "-1/6",
      "-1/24",
      "-67/720"
    ]
  }
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _process_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(bosonstirling.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-m", "bosonstirling", *argv],
        capture_output=True,
        text=True,
        env=_process_env(),
    )


def write_matrix_file(tmp_path, rows, name="matrix.json"):
    path = tmp_path / name
    obj = {
        "size": len(rows),
        "entries": [[str(v) for v in row] for row in rows],
    }
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return str(path)


class TestNormalOrderCommand:
    def test_worked_example(self, capsys):
        # The source text's printed example carries an arithmetic slip
        # (coefficient 3); the oracle-verified expansion has 4.
        code, out, _ = run_cli(capsys, "no", "a a+ a a a+ a")
        assert code == 0
        assert out == "2 (a†)^0 a^2 + 4 (a†)^1 a^3 + 1 (a†)^2 a^4\n"

    def test_empty_word(self, capsys):
        code, out, _ = run_cli(capsys, "no", "")
        assert (code, out) == (0, "1\n")

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "no", "a+ a", "--format", "json")
        assert code == 0
        nf = NormalForm.from_json_obj(json.loads(out))
        assert nf.terms == {(1, 1): 1}

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "no", "a a+", "--format", "csv")
        assert (code, out) == (0, "0;0;1\n1;1;1\n")

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "no", "a b")
        assert code == 2
        assert out == ""
        assert "offset 2" in err


class TestDoubleDotCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "dd", "a a+ a a a+ a")
        assert (code, out) == (0, "1 (a†)^2 a^4\n")

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "dd", "a a+ a a a+ a", "--format", "json")
        nf = NormalForm.from_json_obj(json.loads(out))
        assert nf.terms == {(2, 4): 1}


class TestStirlingCommand:
    def test_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "stirling", "a+ a", "--rows", "6")
        assert code == 0
        assert out == STIRLING2_TABLE

    def test_golden_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "stirling", "a+ a a+", "--rows", "6", "--format", "csv"
        )
        assert code == 0
        assert out == PREFUNCTION_CSV

    def test_rows_zero(self, capsys):
        code, out, _ = run_cli(capsys, "stirling", "a+ a", "--rows", "0")
        assert (code, out) == (0, "1\n")

    def test_empty_word_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "stirling", "", "--rows", "3")
        assert code == 2
        assert "empty word" in err

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "stirling", "a+ a a+", "--rows", "4", "--format", "json"
        )
        m = GeneralizedStirlingMatrix.from_json_obj(json.loads(out))
        assert m.rows[4] == (24, 96, 72, 16, 1)

    def test_check_subst_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "stirling", "a+ a", "--rows", "5", "--check-subst"
        )
        assert code == 0
        assert out.endswith("substitution check (order 5): PASS\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("passing", [True, False], ids=["pass", "fail"])
    def test_check_subst_verdict_on_stderr_for_data_formats(
        self, capsys, monkeypatch, fmt, passing
    ):
        if not passing:
            # No single-annihilator word fails, so the verdict is forced.
            failing = is_approximate_substitution(FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS))
            monkeypatch.setattr(cli, "is_approximate_substitution", lambda m: failing)
        code, out, err = run_cli(
            capsys, "stirling", "a+ a", "--rows", "3", "--format", fmt, "--check-subst"
        )
        verdict = "PASS" if passing else "FAIL"
        assert (code, err) == (0 if passing else 1, f"substitution check (order 3): {verdict}\n")
        m = stirling_matrix(parse_word("a+ a"), 3)
        if fmt == "json":
            assert GeneralizedStirlingMatrix.from_json_obj(json.loads(out)) == m
        else:
            assert out.splitlines() == [";".join(map(str, row)) for row in m.rows]

    def test_check_subst_skipped_for_wide_words(self, capsys):
        code, out, err = run_cli(
            capsys, "stirling", "a+ a a a+ a+", "--rows", "3", "--check-subst"
        )
        assert code == 0
        assert "substitution check" not in out
        assert "skipped" in err

    def test_check_subst_skipped_for_non_unipotent_truncation(self, capsys):
        # single annihilator, no creators: truncations have zero diagonal
        code, out, err = run_cli(
            capsys, "stirling", "a", "--rows", "3", "--check-subst"
        )
        assert code == 0
        assert "substitution check" not in out
        assert "skipped" in err

    @pytest.mark.parametrize(
        "word,rows,out,reason",
        [
            ("a+ a a a+ a+", "3",
             "  1     0     0     0    0   0  0\n"
             "  2     4     1     0    0   0  0\n"
             " 12    60    54    14    1   0  0\n"
             "144  1296  2232  1296  306  30  1\n",
             "word has 2 annihilators, need exactly 1 for a unitriangular matrix"),
            ("a+ a", "0", "1\n", "need at least rows 0..1"),
            ("a", "3", "1  0  0  0\n" * 4,
             "the substitution condition is defined for unipotent matrices "
             "(lower triangular, unit diagonal)"),
        ],
        ids=["wide-word", "rows-0", "non-unipotent"],
    )
    def test_check_subst_skip_messages(self, capsys, word, rows, out, reason):
        assert run_cli(capsys, "stirling", word, "--rows", rows, "--check-subst") == (
            0, out, f"substitution check skipped: {reason}\n"
        )

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.txt"
        code, out, _ = run_cli(
            capsys, "stirling", "a+ a", "--rows", "6", "--out", str(target)
        )
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == STIRLING2_TABLE


class TestBellCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "a+ a", "--rows", "3")
        assert (code, out) == (0, "0  1\n1  1\n2  2\n3  5\n")

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "a+ a", "--rows", "6", "--format", "csv")
        assert out.splitlines() == ["0;1", "1;1", "2;2", "3;5", "4;15", "5;52", "6;203"]

    def test_polynomial_evaluation(self, capsys):
        code, out, _ = run_cli(
            capsys, "bell", "a+ a", "--rows", "2", "--x", "1/2", "--format", "json"
        )
        values = [Fraction(v) for v in json.loads(out)]
        assert values == [1, Fraction(1, 2), Fraction(3, 4)]

    def test_negative_x_in_equals_form(self, capsys):
        # B(n, x) = 1, x, x + x², x + 3x² + x³ at x = −3/2.
        code, out, _ = run_cli(capsys, "bell", "a+ a", "--rows", "3", "--x=-3/2")
        assert (code, out) == (0, "0     1\n1  -3/2\n2   3/4\n3  15/8\n")

    def test_negative_x_as_separate_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bell", "a+ a", "--rows", "3", "--x", "-3/2"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--x: expected one argument" in err and "Traceback" not in err


class TestClassifyCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a+ a")
        assert code == 0
        assert out == (
            "kind: pure-substitution\nr: 1\np: 0\n"
            "ends_with_a: true\nfirst_column_unit: true\n"
        )

    def test_not_single_annihilator_omits_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a a+ a")
        assert code == 0
        assert out.startswith("kind: not-single-annihilator\n")
        assert "\nr:" not in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "a+ a a+", "--format", "json")
        c = WordClassification.from_json_obj(json.loads(out))
        assert (c.kind, c.r, c.p) == ("substitution-with-prefunction", 2, 1)


class TestCheckSubstCommand:
    def test_identity_file_exit_0(self, capsys, tmp_path):
        path = write_matrix_file(tmp_path, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, out, _ = run_cli(capsys, "check-subst", path)
        assert code == 0
        assert out.startswith("verdict: true\n")

    def test_any_3x3_unipotent_exit_0(self, capsys, tmp_path):
        path = write_matrix_file(tmp_path, [[1, 0, 0], [987, 1, 0], [123456, 42, 1]])
        code, out, _ = run_cli(capsys, "check-subst", path)
        assert code == 0

    def test_pinned_counterexample_exit_1(self, capsys, tmp_path):
        path = write_matrix_file(
            tmp_path, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        )
        code, out, _ = run_cli(capsys, "check-subst", path)
        assert code == 1
        assert "verdict: false" in out
        assert "failing columns: 2" in out

    def test_report_json_round_trips(self, capsys, tmp_path):
        path = write_matrix_file(
            tmp_path, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        )
        code, out, _ = run_cli(capsys, "check-subst", path, "--format", "json")
        assert code == 1
        report = SubstitutionReport.from_json_obj(json.loads(out))
        assert [f.k for f in report.failing_columns] == [2]

    def test_golden_failing_rational_report(self, capsys, tmp_path):
        path = write_matrix_file(tmp_path, FAILING_RATIONAL_ROWS)
        assert run_cli(capsys, "check-subst", path) == (1, FAILING_RATIONAL_REPORT, "")
        assert run_cli(capsys, "check-subst", path, "--format", "json") == (
            1, FAILING_RATIONAL_REPORT_JSON, ""
        )

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "check-subst", str(bad))
        assert code == 2 and err

    @pytest.mark.parametrize(
        "text",
        [
            '{"size": 2, "entries": 5}',
            '[[1, 0], [0, 1]]',
            '{"size": 2, "entries": [[1, 0], [null, 1]]}',
            '{"size": 2, "entries": [[1, 0], [0.5, 1]]}',
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["entries-not-list", "top-level-list", "null-entry", "float-entry", "deep-nesting"],
    )
    def test_schema_violation_exit_2_without_traceback(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        proc = run_cli_process("check-subst", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_file_not_utf8_exit_2_without_traceback(self, tmp_path):
        # Decoding raises UnicodeDecodeError: a ValueError, not a ValidationError.
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff")
        proc = run_cli_process("check-subst", str(bad))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_non_unipotent_file_exit_2(self, capsys, tmp_path):
        path = write_matrix_file(tmp_path, [[1, 0], [1, 2]])
        code, _, err = run_cli(capsys, "check-subst", path)
        assert code == 2 and "unipotent" in err

    def test_matrix_file_byte_stable(self, tmp_path):
        path = write_matrix_file(
            tmp_path, [[1, 0], [Fraction(1, 3), 1]], name="canonical.json"
        )
        original = Path(path).read_text(encoding="utf-8")
        reloaded = FiniteMatrix.from_json_obj(json.loads(original))
        assert dumps_canonical(reloaded.to_json_obj()) == original


class TestBuildSubstCommand:
    def test_identity_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "build-subst", "--g", "1", "--phi", "0,1", "--size", "3"
        )
        assert (code, out) == (0, "1  0  0\n0  1  0\n0  0  1\n")

    def test_geometric_pair_matches_prefunction_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "build-subst", "--g", "1,1,1,1", "--phi", "0,1,1,1", "--size", "4"
        )
        assert code == 0
        assert out == "1   0  0  0\n1   1  0  0\n2   4  1  0\n6  18  9  1\n"

    def test_out_file_reads_back_through_check(self, capsys, tmp_path):
        target = tmp_path / "built.json"
        code, out, _ = run_cli(
            capsys,
            "build-subst", "--g", "1,2,3,4,5", "--phi", "0,1,-1,2,-2",
            "--size", "5", "--out", str(target),
        )
        assert (code, out) == (0, "")
        content = target.read_text(encoding="utf-8")
        matrix = FiniteMatrix.from_json_obj(json.loads(content))
        assert dumps_canonical(matrix.to_json_obj()) == content
        code, out, _ = run_cli(capsys, "check-subst", str(target))
        assert code == 0

    def test_each_series_built_once(self, capsys, count_series):
        built = count_series()
        code, _, _ = run_cli(
            capsys, "build-subst", "--g", "1,1/2", "--phi", "0,1", "--size", "6"
        )
        assert (code, built) == (0, [2])

    def test_decimal_and_ratio_values_build_the_same_bytes(self, capsys):
        outs = [run_cli(capsys, "build-subst", "--g", g, "--phi", phi, "--size", "6",
                        "--format", "json")
                for g, phi in [("1,0.5,-0.25", "0,1,0.75"), ("1,1/2,-1/4", "0,1,3/4")]]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "build-subst", "--g", "1,1", "--phi", "0,1,1",
            "--size", "3", "--format", "json",
        )
        assert code == 0
        m = FiniteMatrix.from_json_obj(json.loads(out))
        assert m.is_unipotent() and m.size == 3

    @pytest.mark.parametrize("size", ["-5", "0", "1"])
    @pytest.mark.parametrize("g", ["1,2,3", "1,x"], ids=["valid-g", "malformed-g"])
    def test_size_below_two_exit_2(self, capsys, size, g):
        code, out, err = run_cli(
            capsys, "build-subst", "--g", g, "--phi", "0,1,1", "--size", size
        )
        assert (code, out) == (2, "")
        assert err == f"error: matrix size must be at least 2, got {size}\n"

    @pytest.mark.parametrize("flag,text,bad", [
        ("--g", "1,x", "'x'"),
        ("--phi", "0,1,1/2/3", "'1/2/3'"),
        ("--g", "x,1/0", "'x'"),
    ], ids=["not-a-number", "two-slashes", "first-bad-value-named"])
    def test_malformed_value_message(self, capsys, flag, text, bad):
        values = {"--g": "1", "--phi": "0,1", flag: text}
        code, out, err = run_cli(capsys, "build-subst", "--g", values["--g"],
                                 "--phi", values["--phi"], "--size", "3")
        assert (code, out) == (2, "")
        assert err == f"error: not a rational (integer, p/q or decimal; no exponent): {bad}\n"

    def test_bad_normalization_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "build-subst", "--g", "2", "--phi", "0,1", "--size", "3"
        )
        assert code == 2 and "constant term 1" in err

    @pytest.mark.parametrize("size", ["258", "1000000000"])
    def test_size_above_cap_exit_2_before_any_series(self, capsys, monkeypatch, size):
        monkeypatch.setattr(cli, "_parse_series_arg", _refuse)
        monkeypatch.setattr(cli, "build_substitution_matrix", _refuse)
        code, out, err = run_cli(
            capsys, "build-subst", "--g", "1,1", "--phi", "0,1,1", "--size", size
        )
        assert (code, out) == (2, "")
        assert err == f"error: matrix size must be at most 257, got {size}\n"

    def test_size_at_cap_builds(self, capsys):
        code, out, _ = run_cli(
            capsys, "build-subst", "--g", "1,1", "--phi", "0,1,1",
            "--size", "257", "--format", "json",
        )
        assert code == 0 and FiniteMatrix.from_json_obj(json.loads(out)).size == 257


class TestMonteCarloCommand:
    def test_size3_golden_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "300",
            "--range", "10", "--seed", "1",
        )
        assert code == 0
        assert out == (
            "size  draws  range  seed  successes  estimate  wilson95_lo  "
            "wilson95_hi  bound\n"
            "   3    300     10     1        300         1     0.987357  "
            "          1      1\n"
        )

    def test_size4_estimate_within_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "275",
            "--range", "10", "--seed", "1", "--format", "json",
        )
        assert code == 0
        result = ExperimentResult.from_json_obj(json.loads(out))
        assert result.estimate <= result.bound == Fraction(1, 10)

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--size", "2", "--draws", "10",
            "--range", "5", "--seed", "4", "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == (
            "size;draws;range;seed;successes;estimate;wilson95_lo;wilson95_hi;bound"
        )
        assert lines[1].startswith("2;10;5;4;10;1;")

    def test_size_above_cap_is_usage_error(self, capsys, monkeypatch):
        # The config is rejected before any trial: nothing is drawn.
        def fail(*args):
            raise AssertionError("experiment ran")

        monkeypatch.setattr(cli, "run_experiment", fail)
        monkeypatch.setattr(cli, "run_sweep", fail)
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "100000", "--draws", "1",
            "--range", "10", "--seed", "1",
        )
        assert (code, out) == (2, "") and "at most" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "range_text,message",
        [
            ("0", "range must be at least 1, got 0"),
            ("9223372036854775808",
             "range must be at most 9223372036854775807, got 9223372036854775808"),
        ],
        ids=["zero", "above-int64"],
    )
    def test_sweep_checks_range(self, capsys, monkeypatch, range_text, message):
        # --range is required in a sweep too, and checked as in a single run.
        def fail(*args):
            raise AssertionError("experiment ran")

        monkeypatch.setattr(cli, "run_sweep", fail)
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "10", "--seed", "1",
            "--range", range_text, "--sweep-range", "2,3",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "seed,message",
        [
            ("-1", "seed must be non-negative, got -1"),
            (str(2**64), f"seed must be at most {2**64 - 1}, got {2**64}"),
        ],
        ids=["negative", "above-64-bits"],
    )
    def test_seed_outside_64_bits(self, capsys, seed, message):
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "10", "--range", "3", "--seed", seed,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_seed_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--size", "3", "--draws", "10", "--range", "5"])
        assert exc.value.code == 2

    def test_sweep_emits_ratios(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "40", "--range", "10",
            "--seed", "3", "--sweep-range", "2,3,5,10", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["range"] for r in rows] == [2, 3, 5, 10]
        for row in rows:
            result = ExperimentResult.from_json_obj(row)
            assert Fraction(row["ratio"]) == result.estimate / result.bound

    def test_sweep_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "15", "--range", "10",
            "--seed", "3", "--sweep-range", "2,5", "--format", "csv",
        )
        lines = out.splitlines()
        assert len(lines) == 3 and lines[1].startswith("3;15;2;3;15;1;")

    def test_jobs_flag_deterministic(self, capsys):
        base = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "120", "--range", "10",
            "--seed", "8", "--format", "csv",
        )
        par = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "120", "--range", "10",
            "--seed", "8", "--jobs", "2", "--format", "csv",
        )
        assert base[1] == par[1]

    @pytest.mark.parametrize("ranges", ["", " ", "3,,4", ",", "3,", "2,x"])
    def test_empty_sweep_range_is_usage_error(self, capsys, ranges):
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "5", "--range", "2",
            "--seed", "1", "--sweep-range", ranges, "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --sweep-range needs comma-separated integers, got {ranges!r}\n"

    @pytest.mark.parametrize("ranges", ["2,٣", "2,+3", "2,3_0"])
    def test_sweep_range_reads_ascii_integers(self, capsys, ranges):
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "5", "--range", "2",
            "--seed", "1", "--sweep-range", ranges, "--format", "json",
        )
        assert (code, out) == (2, "")
        assert err == f"error: --sweep-range needs comma-separated integers, got {ranges!r}\n"

    def test_sweep_checks_every_range_against_the_cap_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _refuse)
        monkeypatch.setattr(cli, "run_sweep", _refuse)
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "4", "--draws", "3", "--range", "10",
            "--seed", "1", "--sweep-range", f"10,{2**63}",
        )
        assert (code, out) == (2, "")
        assert err == f"error: range must be at most {2**63 - 1}, got {2**63}\n"

    def _runs(self, capsys, fmt):
        """Output of the sweep 2,3,5,10 and of the four single runs, in `fmt`."""
        common = ["montecarlo", "--size", "5", "--draws", "60", "--seed", "3", "--format", fmt]
        code, sweep, _ = run_cli(capsys, *common, "--range", "10", "--sweep-range", "2,3,5,10")
        assert code == 0
        singles = []
        for r in ("2", "3", "5", "10"):
            code, out, _ = run_cli(capsys, *common, "--range", r)
            assert code == 0
            singles.append(out)
        return sweep, singles

    def test_sweep_table_rows_are_the_single_runs(self, capsys):
        sweep, singles = self._runs(capsys, "table")
        header, *rows = [line.split() for line in sweep.splitlines()]
        assert header == [*singles[0].splitlines()[0].split(), "ratio"]
        for cells, single in zip(rows, singles, strict=True):
            (one,) = single.splitlines()[1:]
            assert cells[:-1] == one.split()
            result = run_experiment(ExperimentConfig(
                size=5, draws=60, range_r=int(cells[2]), seed=3))
            assert cells[-1] == str(result.ratio_to_bound)

    def test_sweep_json_rows_are_the_single_runs(self, capsys):
        sweep, singles = self._runs(capsys, "json")
        objs = json.loads(sweep)
        ratios = [obj.pop("ratio") for obj in objs]
        assert objs == [json.loads(single) for single in singles]
        assert sweep == dumps_canonical(
            [{**json.loads(single), "ratio": r} for single, r in zip(singles, ratios)]
        )
        for obj, ratio in zip(objs, ratios):
            result = ExperimentResult.from_json_obj(obj)
            assert ratio == str(result.estimate / result.bound)

    def test_sweep_csv_rows_are_the_single_runs(self, capsys):
        sweep, singles = self._runs(capsys, "csv")
        header, *rows = sweep.splitlines()
        assert [header, *rows] == [
            singles[0].splitlines()[0], *(s.splitlines()[1] for s in singles)
        ]
        assert all(len(s.splitlines()) == 2 for s in singles)

    def test_sweep_range_parts_may_have_spaces(self, capsys):
        spaced = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "5", "--range", "2",
            "--seed", "1", "--sweep-range", "2, 3", "--format", "csv",
        )
        plain = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "5", "--range", "2",
            "--seed", "1", "--sweep-range", "2,3", "--format", "csv",
        )
        assert spaced == plain and spaced[0] == 0


class TestBoundCommand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--size", "4", "--range", "100")
        assert (code, out) == (0, "1/100\n")

    def test_size3_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--size", "3", "--range", "10")
        assert (code, out) == (0, "1\n")

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--size", "4", "--range", "10", "--format", "json"
        )
        obj = json.loads(out)
        assert Fraction(obj["bound"]) == Fraction(1, 10)
        assert (obj["determined"], obj["total"]) == (5, 6)

    # A range of 1 returns from the printable-bound check before any power.
    @pytest.mark.parametrize(
        "size,range_r,want",
        [("1", "10", (2, "", "error: size must be at least 2, got 1\n")),
         ("0", "10", (2, "", "error: size must be at least 2, got 0\n")),
         ("-3", "10", (2, "", "error: size must be at least 2, got -3\n")),
         ("5", "0", (2, "", "error: range must be at least 1, got 0\n")),
         ("5", "-5", (2, "", "error: range must be at least 1, got -5\n")),
         ("4", "1", (0, "1\n", ""))],
    )
    def test_size_and_range_edges(self, capsys, size, range_r, want):
        assert run_cli(capsys, "bound", "--size", size, "--range", range_r) == want


_MC = ["montecarlo", "--size", "4", "--draws", "50", "--range", "3", "--seed", "5"]


class TestOutputLayer:
    """Every column table is rectangular, and `no`/`dd` call their function by name."""

    @pytest.mark.parametrize(
        "argv,lines,columns",
        [
            (["stirling", "d d", "--rows", "5"], 6, 1),
            (["stirling", "a+ a a+", "--rows", "6"], 7, 7),
            (["stirling", "d a a d", "--rows", "5"], 6, 11),
            (["bell", "d a d", "--rows", "7"], 8, 2),
            (["bell", "d a d", "--rows", "7", "--x=-3/2"], 8, 2),
            (["build-subst", "--g", "1,1", "--phi", "0,1,1", "--size", "6"], 6, 6),
            (["build-subst", "--g", "1,3/4", "--phi", "0,1,-1/3", "--size", "6"], 6, 6),
            (_MC, 2, 9),
            ([*_MC, "--sweep-range", "2,3,10"], 4, 10),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_tables_are_rectangular(self, capsys, argv, lines, columns):
        # format_columns expects rectangular rows without empty cells: a
        # ragged row would lose cells and an empty one leave trailing blanks.
        code, out, _ = run_cli(capsys, *argv)
        table = out.splitlines()
        assert code == 0
        assert [len(line.split()) for line in table] == [columns] * lines
        assert len({len(line) for line in table}) == 1
        assert not any(line.endswith(" ") for line in table)

    @pytest.mark.parametrize("command", ["no", "dd"])
    def test_patched_functions_are_called(self, capsys, monkeypatch, command):
        # A tracer wraps normal_order and double_dot in the cli module after
        # the parser may have been built, so the command must look them up
        # on each call.
        cli._arg_parser()
        calls = []
        for name in ("normal_order", "double_dot"):
            def wrapper(word, _name=name, _fn=getattr(cli, name)):
                calls.append(_name)
                return _fn(word)
            monkeypatch.setattr(cli, name, wrapper)
        code, out, _ = run_cli(capsys, command, "a a+ a")
        assert calls == ["normal_order" if command == "no" else "double_dot"]
        expected = {"no": "1 (a†)^0 a^1 + 1 (a†)^1 a^2\n", "dd": "1 (a†)^1 a^2\n"}
        assert (code, out) == (0, expected[command])


# Text with non-ASCII characters, quotes, backslashes and control characters.
_json_strings = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'),
                                  st.characters()), max_size=6)
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), _json_strings),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(_json_strings, max_size=4),
                               st.dictionaries(_json_strings, children, max_size=4)),
    max_leaves=20,
)


class TestCanonicalJson:
    """dumps_canonical writes the text of json.dumps(obj, indent=2) and a newline."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_json_values)
    def test_agrees_with_json_dumps(self, obj):
        assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [[], {}, [[], {}, [[]]], {"a": {}, "b": []}, ["x", ["y"], "z"], ("a", ("b", 1)),
         {"b": 1, "a": 2}, {1: "int", None: "null", True: {"k": [1]}}, [{"a": {2: [3]}}],
         {"s": "é\"\\\n"}],
        ids=repr,
    )
    def test_pinned(self, obj):
        assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"

    def test_built_matrix(self):
        g = TruncatedSeries.from_coeffs([1, Fraction(1, 2), Fraction(2, 3)], 20)
        phi = TruncatedSeries.from_coeffs([0, 1, Fraction(3, 4)], 20)
        obj = build_substitution_matrix(g, phi, 21).to_json_obj()
        assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"


class _ByteCounter:
    """A stdout that keeps only the number of bytes written to it."""

    def __init__(self):
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


@cache
def _traced_size_of_rows(text: str, rows: int) -> int:
    """Bytes that tracemalloc counts for a Stirling matrix's rows and word."""
    tracemalloc.start()
    try:
        m = stirling_matrix(parse_word(text), rows)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestStreamedOutput:
    """Stirling and Bell text is written a line at a time."""

    # The byte counts are those of the whole texts: lines change no byte.
    @pytest.mark.parametrize(
        "argv,size",
        [
            (["stirling", "a+ a", "--rows", "400"], 70_876_750),
            (["stirling", "a+ a", "--rows", "400", "--format", "csv"], 22_082_636),
            (["bell", "a+ a", "--rows", "400"], 261_051),
            (["bell", "a+ a", "--rows", "400", "--x", "13/19"], 666_061),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_peak_memory_is_the_rows(self, monkeypatch, argv, size):
        # The table's text is 5.5 times the size of the rows; written a line
        # at a time, the peak is the rows and one line.
        rows = _traced_size_of_rows("a+ a", 400)
        sink = _ByteCounter()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, sink.bytes) == (0, size)
        assert peak < 3 * rows

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_entry_too_long_to_print_writes_nothing(self, capsys, tmp_path, fmt):
        # Rows 81 to 90 of rs:[5,5] have entries of more than 640 digits, the
        # least limit Python allows; the error comes before any line.
        target = tmp_path / "out.txt"
        argv = ["stirling", "rs:[5,5]", "--rows", "90", "--format", fmt]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for extra in ([], ["--out", str(target)]):
                code, out, err = run_cli(capsys, *argv, *extra)
                assert (code, out) == (2, "")
                assert err.startswith("error: Exceeds the limit (640 digits)")
        finally:
            sys.set_int_max_str_digits(limit)
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_closed_pipe_exit_2(self, fmt):
        # The reader takes one line and closes the pipe, as `| head -n 1`
        # does, while megabytes are still to be written.
        proc = subprocess.Popen(
            [sys.executable, "-m", "bosonstirling",
             "stirling", "a+ a", "--rows", "200", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_process_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert first.split()[0] == b"1"
        assert err == b"error: [Errno 32] Broken pipe\n"


def _refuse(*args):
    raise AssertionError("work done before the input was checked")


class TestUnprintableBoundRejectedEarly:
    """A bound too long to print exits 2 before it or any trial is computed."""

    @pytest.mark.parametrize(
        "argv,exponent",
        [
            (["bound", "--size", "64", "--range", str(2**32 - 1)], 1891),
            (["bound", "--size", "100000", "--range", "10", "--format", "json"], 4999750003),
            (["montecarlo", "--size", "64", "--draws", "300", "--range", str(2**32 - 1),
              "--seed", "3", "--format", "json"], 1891),
            (["montecarlo", "--size", "64", "--draws", "300", "--range", "10",
              "--seed", "3", "--sweep-range", "10,1000"], 1891),
        ],
        ids=["bound", "bound-huge-size", "montecarlo", "montecarlo-sweep"],
    )
    def test_exit_2_before_any_work(self, capsys, monkeypatch, argv, exponent):
        monkeypatch.setattr(cli, "probability_bound", _refuse)
        monkeypatch.setattr(cli, "run_experiment", _refuse)
        monkeypatch.setattr(cli, "run_sweep", _refuse)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"^{exponent} has more than 4300 digits" in err

    def test_largest_printed_bounds_unchanged(self, capsys):
        assert run_cli(capsys, "bound", "--size", "100", "--range", "2") == (
            0, f"{Fraction(2**197, 2**4950)}\n", ""
        )
        code, out, _ = run_cli(capsys, "bound", "--size", "64", "--range", "10")
        assert code == 0 and out == f"1/1{'0' * 1891}\n"

    # 187^1891 has 4,297 digits and 188^1891 4,301; 1000^1431 has 4,294 and
    # 1023^1431 4,307, where only the direct comparison decides.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 120), st.integers(2, 2**40))
    @example(64, 187)
    @example(64, 188)
    @example(56, 1000)
    @example(56, 1023)
    def test_rejects_exactly_what_cannot_print(self, size, range_r):
        exponent = (size - 2) * (size - 3) // 2
        printable = range_r**exponent < 10 ** sys.get_int_max_str_digits()
        try:
            cli._require_printable_bound(size, range_r)
        except ValidationError:
            assert not printable
        else:
            assert printable

    def test_limit_zero_rejects_nothing(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run_cli(capsys, "bound", "--size", "64", "--range", str(2**32 - 1))
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and len(out) > 18_000

    def test_limit_zero_keeps_a_digit_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "probability_bound", _refuse)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out, err = run_cli(capsys, "bound", "--size", "3000", "--range", "10")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert "10^4492503 has more than 100000 digits" in err

    def test_limit_zero_budget_edge(self):
        # 10^99681 has 99,682 digits and 10^100128 has 100,129.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            cli._require_printable_bound(449, 10)
            with pytest.raises(ValidationError, match="100000 digits"):
                cli._require_printable_bound(450, 10)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_sweep_checks_every_range_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _refuse)
        monkeypatch.setattr(cli, "run_sweep", _refuse)
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "12", "--draws", "200000", "--range", "10",
            "--seed", "1", "--sweep-range", "10,0",
        )
        assert (code, out, err) == (2, "", "error: range must be at least 1, got 0\n")


# Each integer flag in a command that runs at once for every value below;
# None marks the flag's value.
INTEGER_FLAGS = {
    "stirling --rows": ["stirling", "a+ a", "--rows", None],
    "bell --rows": ["bell", "a+ a", "--rows", None],
    "build-subst --size": ["build-subst", "--g", "1", "--phi", "0,1", "--size", None],
    "montecarlo --size": ["montecarlo", "--size", None, "--draws", "1", "--range", "2",
                          "--seed", "1"],
    "montecarlo --draws": ["montecarlo", "--size", "3", "--draws", None, "--range", "2",
                           "--seed", "1"],
    "montecarlo --range": ["montecarlo", "--size", "3", "--draws", "1", "--range", None,
                           "--seed", "1"],
    "montecarlo --seed": ["montecarlo", "--size", "3", "--draws", "1", "--range", "2",
                          "--seed", None],
    "montecarlo --jobs": ["montecarlo", "--size", "3", "--draws", "1", "--range", "2",
                          "--seed", "1", "--jobs", None],
    "bound --size": ["bound", "--size", None, "--range", "2"],
    "bound --range": ["bound", "--size", "5", "--range", None],
}

# Texts that Python's int() reads and the number grammar does not: an
# underscore, a '+', whitespace and Arabic-Indic digits.  --jobs gets values
# of 1, so that no worker process would start where they were read.
OUTSIDE_GRAMMAR = ["1_0", "+5", " 5", "٤"]
OUTSIDE_GRAMMAR_JOBS = ["0_1", "+1", " 1", "١"]


def _flag_argv(flag: str, text: str) -> list[str]:
    return [text if part is None else part for part in INTEGER_FLAGS[flag]]


class TestIntegerFlagGrammar:
    """Every integer flag reads the number grammar, and nothing else."""

    @pytest.mark.parametrize(
        "flag,text",
        [
            (flag, text)
            for flag in INTEGER_FLAGS
            for text in (OUTSIDE_GRAMMAR_JOBS if flag.endswith("--jobs") else OUTSIDE_GRAMMAR)
        ],
    )
    def test_text_outside_grammar_is_usage_error(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(_flag_argv(flag, text))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"argument {flag.split()[1]}: " in captured.err
        assert repr(text) in captured.err
        assert f"expected an integer in ASCII digits, got {text!r}" in captured.err
        assert "parse_integer" not in captured.err

    @pytest.mark.parametrize("text", ["5.0", "1e3"])
    @pytest.mark.parametrize("flag", INTEGER_FLAGS)
    def test_decimal_and_exponent_stay_usage_errors(self, capsys, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(_flag_argv(flag, text))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"expected an integer in ASCII digits, got {text!r}" in captured.err
        assert "parse_integer" not in captured.err

    @pytest.mark.parametrize(
        "flag,text,plain", [("bound --size", "007", "7"), ("montecarlo --seed", "-0", "0")]
    )
    def test_leading_zeros_and_minus_zero_read_as_before(self, capsys, flag, text, plain):
        assert run_cli(capsys, *_flag_argv(flag, text)) == run_cli(
            capsys, *_flag_argv(flag, plain)
        )

    def test_no_flag_is_read_by_int(self):
        parser = cli.build_arg_parser()
        (commands,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        types = [a.type for sp in commands.choices.values() for a in sp._actions]
        assert not any(t is int for t in types)
        assert sum(t is cli._integer_flag for t in types) == len(INTEGER_FLAGS)


class TestNoFractionOnTheIntegerPath:
    """From argv or a matrix file to the report's text, check-subst and
    build-subst work on integers over one denominator: a count of the
    Fractions they construct, not a timing, shows it."""

    PAIRS = {
        "int": ("1,2,-1,3,-1", "0,1,1,-2,1"),
        "rat": ("1,1/2,-2/3,3/5,-1/7", "0,1,-3/4,1/3,2/5"),
    }

    @pytest.fixture
    def count_fractions(self, monkeypatch):
        """A call that starts counting the Fractions constructed; the list it
        returns holds the count so far."""
        count = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return new(cls, *args, **kwargs)

        def start():
            monkeypatch.setattr(Fraction, "__new__", counting)
            return count

        return start

    @pytest.mark.parametrize("kind", PAIRS)
    def test_build_subst(self, capsys, tmp_path, count_fractions, kind):
        g, phi = self.PAIRS[kind]
        made = count_fractions()
        assert run_cli(capsys, "build-subst", "--g", g, "--phi", phi, "--size", "12",
                       "--out", str(tmp_path / "m.json")) == (0, "", "")
        assert made == [0]

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("late_failing", [False, True], ids=["passing", "late-failing"])
    @pytest.mark.parametrize("kind", PAIRS)
    def test_check_subst(self, capsys, tmp_path, count_fractions, kind, late_failing, fmt):
        g, phi = (TruncatedSeries.from_coeffs(list(map(Fraction, text.split(","))), 11)
                  for text in self.PAIRS[kind])
        m = build_substitution_matrix(g, phi, 12)
        rows = [list(row) for row in m.numerators]
        rows[-1][5] += m.denominator * late_failing
        path = tmp_path / "m.json"
        path.write_text(dumps_canonical(FiniteMatrix(rows, m.denominator).to_json_obj()),
                        encoding="utf-8")
        made = count_fractions()
        code, out, _ = run_cli(capsys, "check-subst", str(path), "--format", fmt)
        assert (code, made) == (int(late_failing), [0])
        assert ("failing columns: 5" in out) == (late_failing and fmt == "table")

    def test_failing_report_reader(self, count_fractions):
        g, phi = (TruncatedSeries.from_coeffs(list(map(Fraction, text.split(","))), 11)
                  for text in self.PAIRS["rat"])
        m = build_substitution_matrix(g, phi, 12)
        rows = [list(row) for row in m.numerators]
        rows[-1][5] += m.denominator
        report = is_approximate_substitution(FiniteMatrix(rows, m.denominator))
        obj = json.loads(dumps_canonical(report.to_json_obj()))
        assert [f["k"] for f in obj["failing_columns"]] == [5]
        made = count_fractions()
        assert (SubstitutionReport.from_json_obj(obj), made) == (report, [0])

    def test_series_reader(self, count_fractions):
        want = TruncatedSeries.from_coeffs([1, Fraction(-1, 2), Fraction(2, 3), 0, Fraction(5, 4)])
        made = count_fractions()
        read = TruncatedSeries.from_json_obj(
            {"order": 4, "coeffs": ["1", "-1/2", "2/3", "0", "5/4"]})
        assert (read, made) == (want, [0])

    def test_truncate_rn(self, count_fractions):
        m = FiniteMatrix.from_rows([[1, 0, 0], [Fraction(1, 2), 1, 0], [Fraction(2, 3), 3, 1]])
        want = FiniteMatrix([[2, 0], [1, 2]], 2)
        made = count_fractions()
        assert (truncate_rn(m, 1), made) == (want, [0])

    def test_stirling_check_subst(self, capsys, count_fractions):
        made = count_fractions()
        code, out, _ = run_cli(capsys, "stirling", "a+ a", "--rows", "12", "--check-subst")
        assert (code, made) == (0, [0])
        assert out.endswith("substitution check (order 12): PASS\n")


class TestExponentNotationRejected:
    """Exponent notation would make Fraction build 10**exponent: exit 2 instead."""

    @pytest.mark.parametrize("text", ["1e3", "2.5E1"])
    def test_matrix_file_entry(self, capsys, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"size": 2, "entries": [["1", "0"], [text, "1"]]}))
        code, out, err = run_cli(capsys, "check-subst", str(path))
        assert (code, out) == (2, "") and "exponent" in err

    @pytest.mark.parametrize("text", ["1e3", "2.5E1"])
    def test_bell_x(self, capsys, text):
        code, out, err = run_cli(capsys, "bell", "a+ a", "--rows", "2", "--x", text)
        assert (code, out) == (2, "") and "exponent" in err

    @pytest.mark.parametrize(
        "g,phi", [("1,1e3", "0,1"), ("1", "0,1,2.5E1"), ("1E0", "0,1")]
    )
    def test_build_subst_series(self, capsys, g, phi):
        code, out, err = run_cli(
            capsys, "build-subst", "--g", g, "--phi", phi, "--size", "3"
        )
        assert (code, out) == (2, "") and "exponent" in err


class TestZeroDenominatorRejected:
    """A zero denominator is a usage error that names the text read."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bell", "a+ a", "--rows", "3", "--x", "1/0"],
            ["build-subst", "--g", "1,1/0", "--phi", "0,1", "--size", "3"],
            ["build-subst", "--g", "1", "--phi", "0,1,1/0", "--size", "3"],
            ["check-subst", "MATRIX"],
        ],
        ids=["bell-x", "build-subst-g", "build-subst-phi", "matrix-file"],
    )
    def test_exit_2_with_message(self, capsys, tmp_path, argv):
        path = write_matrix_file(tmp_path, [[1, 0], ["1/0", 1]])
        argv = [path if arg == "MATRIX" else arg for arg in argv]
        assert run_cli(capsys, *argv) == (2, "", "error: zero denominator in '1/0'\n")

    def test_json_reader(self):
        with pytest.raises(ValidationError, match="zero denominator in '-3/0'"):
            TruncatedSeries.from_json_obj({"order": 0, "coeffs": ["-3/0"]})


class TestJsonReadersRejectExponent:
    """The library's JSON readers take rationals through the same parser."""

    def test_series(self):
        with pytest.raises(ValidationError, match="exponent"):
            TruncatedSeries.from_json_obj({"order": 0, "coeffs": ["1e3"]})

    def test_substitution_report(self):
        report = is_approximate_substitution(FiniteMatrix.identity(3))
        obj = report.to_json_obj()
        assert SubstitutionReport.from_json_obj(obj) == report
        obj["phi"]["coeffs"][1] = "1e3"
        with pytest.raises(ValidationError, match="exponent"):
            SubstitutionReport.from_json_obj(obj)

    @pytest.mark.parametrize("field", ["estimate", "wilson_95", "bound", "ratio"])
    def test_experiment_result(self, capsys, field):
        code, out, _ = run_cli(
            capsys, "montecarlo", "--size", "3", "--draws", "4",
            "--range", "2", "--seed", "1", "--format", "json",
        )
        obj = json.loads(out)
        if field == "wilson_95":
            obj[field][0] = "1e3"
        else:
            obj[field] = "1e3"
        with pytest.raises(ValidationError, match="exponent"):
            ExperimentResult.from_json_obj(obj)

    def test_other_types_rejected(self):
        assert TruncatedSeries.from_json_obj({"order": 1, "coeffs": [1, "1/2"]}) == (
            TruncatedSeries.from_coeffs([1, Fraction(1, 2)])
        )
        with pytest.raises(ValidationError):
            TruncatedSeries.from_json_obj({"order": 0, "coeffs": [0.5]})


COUNTEREXAMPLE_ROWS = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
_KINDS = (NOT_SINGLE_ANNIHILATOR, PURE_SUBSTITUTION, SUBSTITUTION_WITH_PREFUNCTION)

# Per reader: its class, the command whose --format json output it reads
# ("MATRIX" stands for a file holding COUNTEREXAMPLE_ROWS), the part of that
# output it reads, the same object built by the library, and the path of each
# serialized value derived from the others.
READER_CASES = {
    "NormalForm": (
        NormalForm, ["no", "a a+ a a+"], lambda obj: obj,
        lambda: normal_order(parse_word("a a+ a a+")), [],
    ),
    "GeneralizedStirlingMatrix": (
        GeneralizedStirlingMatrix, ["stirling", "a+ a a+", "--rows", "4"], lambda obj: obj,
        lambda: stirling_matrix(parse_word("a+ a a+"), 4), [("s_tot",), ("d",), ("rows", 1, 0)],
    ),
    "WordClassification": (
        WordClassification, ["classify", "a+ a a+"], lambda obj: obj,
        lambda: classify_word(parse_word("a+ a a+")), [("kind",), ("first_column_unit",)],
    ),
    "FiniteMatrix": (
        FiniteMatrix, ["build-subst", "--g", "1,1/2", "--phi", "0,1,1", "--size", "4"],
        lambda obj: obj,
        lambda: build_substitution_matrix(
            TruncatedSeries.from_coeffs([1, Fraction(1, 2)], 3),
            TruncatedSeries.from_coeffs([0, 1, 1], 3),
            4,
        ),
        [("size",)],
    ),
    "TruncatedSeries": (
        TruncatedSeries, ["check-subst", "MATRIX"], lambda obj: obj["phi"],
        lambda: is_approximate_substitution(
            FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS)
        ).extracted_phi,
        [("order",)],
    ),
    "SubstitutionReport": (
        SubstitutionReport, ["check-subst", "MATRIX"], lambda obj: obj,
        lambda: is_approximate_substitution(FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS)),
        [("verdict",)],
    ),
    "ExperimentResult": (
        ExperimentResult,
        ["montecarlo", "--size", "4", "--draws", "20", "--range", "3", "--seed", "5"],
        lambda obj: obj,
        lambda: run_experiment(ExperimentConfig(size=4, draws=20, range_r=3, seed=5)),
        [("estimate",), ("wilson_95", 0), ("wilson_95", 1), ("bound",)],
    ),
}


def _reader_input(capsys, tmp_path, case: str):
    """What READER_CASES[case]'s reader reads from its command's JSON output."""
    _, argv, select, _, _ = READER_CASES[case]
    path = write_matrix_file(tmp_path, COUNTEREXAMPLE_ROWS)
    argv = [path if arg == "MATRIX" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code in (0, 1) and err == ""
    return select(json.loads(out))


def _perturbed(value):
    """A JSON value of the same type as `value` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value in _KINDS:
        return next(kind for kind in _KINDS if kind != value)
    return str(Fraction(value) + 1)


def _mistyped(value):
    """A JSON value of another type that the lenient int() or bool() reads as `value`."""
    if isinstance(value, bool):
        return "no" if value else 0
    if value in (0, 1):
        return bool(value)
    return value + 0.5


class TestJsonReaders:
    """Every reader round-trips the CLI's JSON and rejects a contradicted derived value."""

    @pytest.mark.parametrize("case", list(READER_CASES))
    def test_round_trip(self, capsys, tmp_path, case):
        reader, _, _, build, _ = READER_CASES[case]
        obj = _reader_input(capsys, tmp_path, case)
        value = reader.from_json_obj(obj)
        assert value == build()
        assert value.to_json_obj() == obj
        assert reader.from_json_obj(value.to_json_obj()) == value

    @pytest.mark.parametrize(
        "case,path",
        [(case, path) for case, spec in READER_CASES.items() for path in spec[4]],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_derived_value_contradiction_rejected(self, capsys, tmp_path, case, path):
        reader = READER_CASES[case][0]
        obj = _reader_input(capsys, tmp_path, case)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _perturbed(parent[path[-1]])
        with pytest.raises(ValidationError, match=f"serialized {path[0]}"):
            reader.from_json_obj(obj)

    @pytest.mark.parametrize(
        "case,path",
        [
            ("NormalForm", (0, "j")), ("NormalForm", (0, "l")),
            ("GeneralizedStirlingMatrix", ("s_tot",)), ("GeneralizedStirlingMatrix", ("d",)),
            ("WordClassification", ("r",)), ("WordClassification", ("p",)),
            ("WordClassification", ("ends_with_a",)),
            ("WordClassification", ("first_column_unit",)),
            ("FiniteMatrix", ("size",)), ("TruncatedSeries", ("order",)),
            ("SubstitutionReport", ("verdict",)),
            ("SubstitutionReport", ("failing_columns", 0, "k")),
            *[("ExperimentResult", (key,))
              for key in ("size", "draws", "range", "seed", "jobs", "successes")],
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_mistyped_key_rejected(self, capsys, tmp_path, case, path):
        reader = READER_CASES[case][0]
        obj = _reader_input(capsys, tmp_path, case)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _mistyped(parent[path[-1]])
        with pytest.raises(ValidationError, match=f"{path[-1]} must be an? (integer|boolean)"):
            reader.from_json_obj(obj)

    # A sweep row adds ``ratio``; a single run's object has none.
    @pytest.mark.parametrize(
        "key,text", [("estimate", "9/10"), ("bound", "5"), ("ratio", "12345")]
    )
    def test_experiment_result_pins(self, key, text):
        cfg = ExperimentConfig(size=4, draws=10, range_r=10, seed=1)
        obj = ExperimentResult(config=cfg, successes=2).to_json_obj()
        assert ExperimentResult.from_json_obj(obj).estimate == Fraction(1, 5)
        obj[key] = text
        with pytest.raises(ValidationError, match=f"serialized {key}"):
            ExperimentResult.from_json_obj(obj)

    @pytest.mark.parametrize(
        "r,p,ends_with_a", [(None, None, True), (2, 1, True)], ids=["r-null", "p-1-ends-with-a"]
    )
    def test_word_classification_pins(self, r, p, ends_with_a):
        obj = {
            "kind": PURE_SUBSTITUTION, "r": r, "p": p,
            "ends_with_a": ends_with_a, "first_column_unit": ends_with_a,
        }
        with pytest.raises(ValidationError):
            WordClassification.from_json_obj(obj)

    @pytest.mark.parametrize(
        "rows,verdict",
        [(COUNTEREXAMPLE_ROWS, True), ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], False)],
        ids=["true-with-failing-column", "false-without-failing-column"],
    )
    def test_substitution_report_pins(self, rows, verdict):
        obj = is_approximate_substitution(FiniteMatrix.from_rows(rows)).to_json_obj()
        assert obj["verdict"] is not verdict
        obj["verdict"] = verdict
        with pytest.raises(ValidationError, match="serialized verdict"):
            SubstitutionReport.from_json_obj(obj)

    def test_stirling_rows_pin(self):
        obj = {"word": "da", "s_tot": 1, "d": 0, "rows": [["1"], ["5", "7", "9", "11"]]}
        with pytest.raises(ValidationError, match="serialized rows"):
            GeneralizedStirlingMatrix.from_json_obj(obj)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_failing_column_outside_two_to_order_rejected(self, k):
        obj = is_approximate_substitution(FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS)).to_json_obj()
        obj["failing_columns"][0]["k"] = k
        with pytest.raises(ValidationError, match=f"failing column {k} is not in"):
            SubstitutionReport.from_json_obj(obj)

    @pytest.mark.parametrize(
        "reorder", [lambda cols: cols[::-1], lambda cols: cols[:1] * 2], ids=["reversed", "repeated"]
    )
    def test_failing_columns_not_increasing_rejected(self, reorder):
        rows = [[1] * (i + 1) + [0] * (4 - i) for i in range(5)]
        obj = is_approximate_substitution(FiniteMatrix.from_rows(rows)).to_json_obj()
        assert [f["k"] for f in obj["failing_columns"]] == [2, 3]
        SubstitutionReport.from_json_obj(obj)
        obj["failing_columns"] = reorder(obj["failing_columns"])
        with pytest.raises(ValidationError, match="is not in"):
            SubstitutionReport.from_json_obj(obj)

    def test_failing_column_equal_to_expectation_rejected(self):
        obj = is_approximate_substitution(FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS)).to_json_obj()
        column = obj["failing_columns"][0]
        column["expected"] = column["actual"]
        with pytest.raises(ValidationError, match="equals its expectation"):
            SubstitutionReport.from_json_obj(obj)

    @pytest.mark.parametrize(
        "reader,obj",
        [
            (NormalForm, [{"j": 0, "l": 0, "coeff": 2.9}]),
            (NormalForm, [{"j": 0, "l": 0, "coeff": True}]),
            (NormalForm, [{"j": 0, "l": 0, "coeff": "+1"}]),
            (GeneralizedStirlingMatrix,
             {"word": "da", "s_tot": 1, "d": 0, "rows": [[1.7], [0.2, 1.9]]}),
            (GeneralizedStirlingMatrix,
             {"word": "da", "s_tot": 1, "d": 0, "rows": [[True], ["0", "1"]]}),
        ],
        ids=["coeff-float", "coeff-true", "coeff-plus", "rows-floats", "rows-true"],
    )
    def test_integer_text_rejected_unless_in_grammar(self, reader, obj):
        with pytest.raises(ValidationError, match="expected an integer"):
            reader.from_json_obj(obj)

    @pytest.mark.parametrize(
        "reader,obj,message",
        [
            (TruncatedSeries, {"order": 1, "coeffs": "12"}, "coeffs must be an array"),
            (GeneralizedStirlingMatrix, {"word": "da", "s_tot": 1, "d": 0, "rows": ["1", "01"]},
             "every item of rows must be an array"),
            (GeneralizedStirlingMatrix, {"word": "da", "s_tot": 1, "d": 0, "rows": "1"},
             "rows must be an array"),
            (SubstitutionReport,
             {**is_approximate_substitution(FiniteMatrix.identity(3)).to_json_obj(),
              "failing_columns": ""},
             "failing_columns must be an array"),
            (ExperimentResult,
             {**ExperimentResult(ExperimentConfig(size=4, draws=10, range_r=10, seed=1),
                                 successes=2).to_json_obj(), "wilson_95": ["0", "1", "1"]},
             "wilson_95 must be an array of 2 items"),
            (NormalForm, {"j": 1}, "a normal form must be an array"),
            (NormalForm, [["j", 1]], "every item of a normal form must be an object"),
        ],
        ids=["coeffs", "rows-of-strings", "rows", "failing_columns", "wilson_95",
             "normal-form", "normal-form-term"],
    )
    def test_non_array_rejected(self, reader, obj, message):
        with pytest.raises(ValidationError, match=message):
            reader.from_json_obj(obj)


    @pytest.mark.parametrize(
        "case,path,key",
        [
            ("TruncatedSeries", (), "order"),
            ("NormalForm", (0,), "coeff"),
            ("FiniteMatrix", (), "entries"),
            ("GeneralizedStirlingMatrix", (), "word"),
            ("WordClassification", (), "kind"),
            ("SubstitutionReport", (), "g"),
            ("SubstitutionReport", ("failing_columns", 0), "actual"),
            ("ExperimentResult", (), "bound"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_missing_key_rejected(self, capsys, tmp_path, case, path, key):
        reader = READER_CASES[case][0]
        obj = _reader_input(capsys, tmp_path, case)
        parent = obj
        for step in path:
            parent = parent[step]
        del parent[key]
        with pytest.raises(ValidationError, match=f"missing key '{key}'"):
            reader.from_json_obj(obj)

    @pytest.mark.parametrize(
        "case,path,key",
        [
            ("TruncatedSeries", (), "coeffs"),
            ("FiniteMatrix", (), "size"),
            ("GeneralizedStirlingMatrix", (), "rows"),
            ("WordClassification", (), "r"),
            ("SubstitutionReport", ("g",), "coeffs"),
            ("SubstitutionReport", ("failing_columns", 0, "expected"), "coeffs"),
            ("ExperimentResult", (), "size"),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_non_object_rejected(self, capsys, tmp_path, case, path, key):
        reader = READER_CASES[case][0]
        obj = _reader_input(capsys, tmp_path, case)
        if path:
            parent = obj
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = "x"
        else:
            obj = [obj]
        with pytest.raises(ValidationError, match=f"expected a JSON object with key '{key}'"):
            reader.from_json_obj(obj)

    def test_stirling_word_must_be_text(self):
        obj = {"word": 5, "s_tot": 1, "d": 0, "rows": [["1"]]}
        with pytest.raises(ValidationError, match="word must be a string"):
            GeneralizedStirlingMatrix.from_json_obj(obj)


# JSON values a matrix file may hold: well-formed entries, malformed strings,
# and every other JSON type.
_json_scalars = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-2", "1/2", "3/0", "1e3", "", "x", " 1 ", "0.5"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
_json_matrices = st.one_of(
    st.fixed_dictionaries(
        {
            "size": st.one_of(st.integers(-1, 4), _json_scalars),
            "entries": st.lists(st.lists(_json_scalars, max_size=4), max_size=4),
        }
    ),
    st.fixed_dictionaries(
        {"size": st.integers(1, 4), "entries": st.one_of(_json_scalars, st.lists(_json_scalars))}
    ),
    st.lists(st.lists(st.integers(0, 2), max_size=3), max_size=3),
    _json_scalars,
)
# rs: exponents stay at two digits, so no case asks for unbounded work.
_rs_words = st.builds(
    lambda pairs, end: "rs:[" + ";".join(f"{r},{s}" for r, s in pairs) + end,
    st.lists(st.tuples(st.integers(-1, 99), st.integers(-1, 99)), max_size=2),
    st.sampled_from(["]", "", ";]", "] x", ",1]"]),
)
_word_texts = st.one_of(st.text(alphabet="adADr s:+[],;-\t", max_size=12), _rs_words)


def _exit_code(argv) -> int:
    """Exit code of an in-process CLI call; argparse errors raise SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestFuzz:
    """Any input exits 0, 1 or 2; any other exception fails the test."""

    @settings(max_examples=150, deadline=None)
    @given(_json_matrices)
    def test_matrix_files(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("fuzz") / "m.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert _exit_code(["check-subst", str(path)]) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        _word_texts,
        st.sampled_from(["no", "dd", "classify", "stirling", "bell"]),
        st.integers(-1, 2),
    )
    def test_word_texts(self, text, command, rows):
        argv = [command, text]
        if command in ("stirling", "bell"):
            argv += ["--rows", str(rows)]
        assert _exit_code(argv) in (0, 1, 2)


class TestParserReuse:
    """One parser serves every call of a process, as a fresh one would."""

    def _argvs(self, tmp_path):
        path = write_matrix_file(tmp_path, [[1, 0, 0], [1, 1, 0], [2, 3, 1]])
        out = str(tmp_path / "built.json")
        return [
            ["no", "a a+ a", "--format", "csv"],
            ["dd", "a a+"],
            ["stirling", "a+ a", "--rows", "4", "--check-subst"],
            ["bell", "a+ a", "--rows", "3", "--x=-3/2"],
            ["bell", "a+ a", "--rows", "3", "--x", "-3/2"],
            ["classify", "a+ a a+", "--format", "json"],
            ["check-subst", path],
            ["build-subst", "--g", "1,1", "--phi", "0,1,1", "--size", "4", "--out", out],
            ["montecarlo", "--size", "4", "--draws", "30", "--range", "3", "--seed", "5",
             "--sweep-range", "2,3", "--format", "csv"],
            ["montecarlo", "--size", "4", "--draws", "30", "--range", "3", "--seed", "5"],
            ["bound", "--size", "5", "--range", "3", "--format", "json"],
            ["montecarlo", "--size", "4"],
            ["--version"],
            ["stirling", "a+ a", "--rows", "2"],
        ]

    def _run(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_mixed_sequence_matches_fresh_parsers(self, capsys, tmp_path, monkeypatch):
        argvs = self._argvs(tmp_path)
        cli._arg_parser.cache_clear()
        builds = []
        build = cli.build_arg_parser
        monkeypatch.setattr(cli, "build_arg_parser", lambda: builds.append(1) or build())
        reused = [self._run(capsys, argv) for argv in argvs]
        assert len(builds) == 1
        fresh = []
        for argv in argvs:
            cli._arg_parser.cache_clear()
            fresh.append(self._run(capsys, argv))
        assert len(builds) == 1 + len(argvs)
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0]
        assert reused[3][1] == "0     1\n1  -3/2\n2   3/4\n3  15/8\n"
        assert "expected one argument" in reused[4][2]
        assert reused[12][1] == f"bosonstirling {bosonstirling.__version__}\n"


class TestTopLevel:
    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("error", [IndexError, KeyError, ZeroDivisionError])
    def test_a_fault_is_not_a_usage_error(self, monkeypatch, error):
        """Exit 2 covers a ValueError, ValidationError among them, and an
        OSError; any other exception is a fault, left for TestFuzz to see."""
        def fault(*args):
            raise error("fault")

        monkeypatch.setattr(cli, "probability_bound", fault)
        with pytest.raises(error):
            main(["bound", "--size", "4", "--range", "100"])

    def test_console_script_runs(self):
        proc = run_cli_process("bound", "--size", "4", "--range", "10")
        assert proc.returncode == 0
        assert proc.stdout == "1/10\n"


#: Imports the CLI, runs each command of argv[1] (a JSON list) in process,
#: and writes to the file argv[2], after the import and after each command,
#: its exit code and whether numpy and the process pool are loaded.
_IMPORT_PROBE = """\
import json, sys
import bosonstirling, bosonstirling.cli
loaded = lambda: [name in sys.modules for name in ("numpy", "concurrent.futures.process")]
report = [["import", None, loaded()]]
for argv in json.loads(sys.argv[1]):
    report.append([argv[0], bosonstirling.cli.main(argv), loaded()])
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump(report, f)
"""


class TestImportsOnDemand:
    """Only `montecarlo` loads numpy; no command here loads the process pool.

    The test process has numpy loaded already, so each check runs in a
    fresh interpreter.
    """

    def test_only_montecarlo_loads_numpy(self, tmp_path):
        matrix = str(tmp_path / "matrix.json")
        commands = [
            ["no", "a a+ a"],
            ["dd", "a a+ a"],
            ["stirling", "a+ a", "--rows", "6"],
            ["bell", "a+ a", "--rows", "6"],
            ["classify", "a+ a a+"],
            ["bound", "--size", "5", "--range", "10"],
            ["build-subst", "--g", "1,1", "--phi", "0,1,1", "--size", "5", "--out", matrix],
            ["check-subst", matrix],
            [*_MC, "--jobs", "1"],
        ]
        report = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands), str(report)],
            capture_output=True, text=True, env=_process_env(),
        )
        assert proc.returncode == 0, proc.stderr
        expected = [["import", None, [False, False]]]
        expected += [[argv[0], 0, [False, False]] for argv in commands[:-1]]
        expected.append(["montecarlo", 0, [True, False]])
        assert json.loads(report.read_text(encoding="utf-8")) == expected
