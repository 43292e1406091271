"""End-to-end CLI fixtures: golden stdout, exit codes, and format round-trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
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


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter that imports this package."""
    src = str(Path(bosonstirling.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bosonstirling", *argv],
        capture_output=True,
        text=True,
        env=env,
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

    def test_bad_normalization_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "build-subst", "--g", "2", "--phi", "0,1", "--size", "3"
        )
        assert code == 2 and "constant term 1" in err


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
        def fail(cfg):
            raise AssertionError("experiment ran")

        monkeypatch.setattr(cli, "run_experiment", fail)
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "100000", "--draws", "1",
            "--range", "10", "--seed", "1",
        )
        assert (code, out) == (2, "") and "at most" in err
        assert "Traceback" not in err

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

    def test_sweep_checks_every_range_first(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _refuse)
        code, out, err = run_cli(
            capsys, "montecarlo", "--size", "12", "--draws", "200000", "--range", "10",
            "--seed", "1", "--sweep-range", "10,0",
        )
        assert (code, out, err) == (2, "", "error: range must be at least 1, got 0\n")


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

    @pytest.mark.parametrize("field", ["estimate", "wilson_95", "bound"])
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
        with pytest.raises(ValidationError):
            reader.from_json_obj(obj)

    @pytest.mark.parametrize("key,text", [("estimate", "9/10"), ("bound", "5")])
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

    def test_console_script_runs(self):
        proc = run_cli_process("bound", "--size", "4", "--range", "10")
        assert proc.returncode == 0
        assert proc.stdout == "1/10\n"
