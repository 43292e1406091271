"""The substitution condition, its builder, and the truncation operators."""

from __future__ import annotations

import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonstirling import (
    FiniteMatrix,
    RangeError,
    SubstitutionReport,
    TruncatedSeries,
    ValidationError,
    bell_polynomial,
    build_substitution_matrix,
    is_approximate_substitution,
    parse_word,
    random_unipotent,
    stirling_matrix,
    trial_stream,
    truncate_rn,
    truncate_taun,
)

from bosonstirling.cli import main as cli_main
from bosonstirling.series import parse_integer, parse_rational
from bosonstirling.substitution import _ratio_text, recurrence_failure

from oracles import (
    closed_form_pair,
    first_failing_step,
    matrix_product,
    substitution_matrix,
    substitution_report,
)
from tables import STIRLING2_ROWS


def exp_minus_one(order):
    return TruncatedSeries(
        tuple(Fraction(0) if i == 0 else Fraction(1, factorial(i)) for i in range(order + 1)),
    )


def geometric(order):
    """1/(1-x) truncated."""
    return TruncatedSeries(tuple(Fraction(1) for _ in range(order + 1)))


def x_over_one_minus_x(order):
    return TruncatedSeries(tuple(Fraction(0 if i == 0 else 1) for i in range(order + 1)))


def random_unipotent_int(rng, size, lo=1, hi=10):
    rows = [
        [rng.randint(lo, hi) if k < i else (1 if k == i else 0) for k in range(size)]
        for i in range(size)
    ]
    return FiniteMatrix.from_rows(rows)


def random_normalized_pair(rng, order, lo=-5, hi=5):
    g = TruncatedSeries.from_coeffs(
        [1] + [rng.randint(lo, hi) for _ in range(order)], order
    )
    phi = TruncatedSeries.from_coeffs(
        [0, 1] + [rng.randint(lo, hi) for _ in range(order - 1)], order
    )
    return g, phi


def sympy_condition_verdict(rows):
    """Independent symbolic evaluation of the column-EGF condition.

    Uses sympy series arithmetic end to end (no package code) and returns
    the boolean of the condition at order n = size−1.
    """
    import sympy as sp

    x = sp.Symbol("x")
    n = len(rows) - 1
    cols = [
        sum(sp.Rational(rows[i][k]) * x**i / sp.factorial(i) for i in range(n + 1))
        for k in range(n + 1)
    ]
    g = cols[0]
    phi = sp.series(cols[1] / g, x, 0, n + 1).removeO()
    for k in range(n + 1):
        rhs = sp.series(g * phi**k / sp.factorial(k), x, 0, n + 1).removeO()
        if sp.expand(rhs - cols[k]) != 0:
            return False
    return True


SMALL_FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def unipotent_rows(draw, entries):
    size = draw(st.integers(2, 9))
    return [
        [draw(entries) if k < i else int(i == k) for k in range(size)]
        for i in range(size)
    ]


@st.composite
def perturbed_integer_matrices(draw):
    """A passing integer matrix of size 2–14 with 1–3 entries below the diagonal changed.

    A change in column c ≥ 2 first fails step c−1, and one in column 0 or 1
    step 1.  Each column is drawn within three of the diagonal, so that the
    failing steps vary with the rows changed.
    """
    size = draw(st.integers(2, 14))
    g = [1] + [draw(st.integers(-3, 3)) for _ in range(size - 1)]
    phi = [0, 1] + [draw(st.integers(-3, 3)) for _ in range(size - 2)]
    rows = substitution_matrix(g, phi, size)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, size - 1))
        c = draw(st.integers(max(0, i - 3), i - 1))
        rows[i][c] += draw(st.integers(-5, 5).filter(bool))
    return rows


@st.composite
def built_matrices(draw):
    size = draw(st.integers(2, 9))
    g = TruncatedSeries.from_coeffs(
        [1] + [draw(SMALL_FRACTIONS) for _ in range(size - 1)], size - 1
    )
    phi = TruncatedSeries.from_coeffs(
        [0, 1] + [draw(SMALL_FRACTIONS) for _ in range(size - 2)], size - 1
    )
    return build_substitution_matrix(g, phi, size)


class TestFiniteMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            FiniteMatrix.from_rows([[1, 0], [0]])

    def test_identity_and_predicates(self):
        m = FiniteMatrix.identity(4)
        assert m.is_lower_triangular() and m.is_unipotent()
        tri = FiniteMatrix.from_rows([[1, 0], [5, 2]])
        assert tri.is_lower_triangular() and not tri.is_unipotent()

    def test_product(self):
        a = FiniteMatrix.from_rows([[1, 0], [1, 1]])
        b = FiniteMatrix.from_rows([[1, 0], [2, 1]])
        assert matrix_product(a, b).entries == (
            (Fraction(1), Fraction(0)), (Fraction(3), Fraction(1))
        )

    def test_entry_bounds(self):
        m = FiniteMatrix.identity(2)
        with pytest.raises(RangeError):
            m.entry(2, 0)

    def test_json_round_trip(self):
        m = FiniteMatrix.from_rows([[1, 0], [Fraction(1, 3), 1]])
        obj = m.to_json_obj()
        assert obj == {"size": 2, "entries": [["1", "0"], ["1/3", "1"]]}
        assert FiniteMatrix.from_json_obj(obj) == m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2**80), 2**80), st.integers(1, 2**70))
    def test_entry_text_is_the_fractions_text(self, v, d):
        assert _ratio_text(v, d) == str(Fraction(v, d))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.fractions(max_denominator=60), min_size=9, max_size=9))
    def test_entry_texts_are_the_entries_text(self, values):
        m = FiniteMatrix.from_rows([values[0:3], values[3:6], values[6:9]])
        assert m.entry_texts() == [[str(v) for v in row] for row in m.entries]

    def test_json_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FiniteMatrix.from_json_obj({"size": 3, "entries": [["1"]]})

    @pytest.mark.parametrize(
        "obj",
        [
            [["1"]],
            {"entries": [["1"]]},
            {"size": "1", "entries": [["1"]]},
            {"size": True, "entries": [["1"]]},
            {"size": 1, "entries": 5},
            {"size": 1, "entries": ["1"]},
            {"size": 1, "entries": [[None]]},
            {"size": 1, "entries": [[1.0]]},
            {"size": 1, "entries": [[True]]},
        ],
    )
    def test_json_schema_violations_rejected(self, obj):
        with pytest.raises(ValidationError):
            FiniteMatrix.from_json_obj(obj)

    def test_json_accepts_int_and_string_entries(self):
        m = FiniteMatrix.from_json_obj({"size": 2, "entries": [[1, 0], ["-1/2", 1]]})
        assert m.entries == ((1, 0), (Fraction(-1, 2), 1))


class TestCondition:
    def test_identity_passes_any_size(self):
        for size in (2, 3, 5, 8):
            report = is_approximate_substitution(FiniteMatrix.identity(size))
            assert report.verdict
            assert report.extracted_g == TruncatedSeries.from_coeffs([1], size - 1)
            assert report.extracted_phi == TruncatedSeries.from_coeffs([0, 1], size - 1)

    def test_every_size3_unipotent_passes(self):
        rng = random.Random(17)
        for _ in range(300):
            m = random_unipotent_int(rng, 3, 1, 10**6)
            assert is_approximate_substitution(m).verdict

    def test_size2_trivially_passes(self):
        m = FiniteMatrix.from_rows([[1, 0], [7, 1]])
        assert is_approximate_substitution(m).verdict

    def test_pinned_all_ones_4x4(self):
        # Verdict pinned from the independent symbolic oracle below: False,
        # with column 2 the only failure (c_2 misses the x³/6 term).
        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        assert sympy_condition_verdict(rows) is False
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert report.verdict is False
        assert [f.k for f in report.failing_columns] == [2]
        mismatch = report.failing_columns[0]
        assert mismatch.actual == TruncatedSeries.from_coeffs(
            [0, 0, Fraction(1, 2), Fraction(1, 6)]
        )
        assert mismatch.expected == TruncatedSeries.from_coeffs(
            [0, 0, Fraction(1, 2), 0]
        )

    def test_agrees_with_symbolic_oracle_on_random_4x4(self):
        rng = random.Random(23)
        for _ in range(12):
            m = random_unipotent_int(rng, 4, 1, 6)
            rows = [[int(v) for v in row] for row in m.entries]
            assert is_approximate_substitution(m).verdict == sympy_condition_verdict(rows)

    def test_extracted_phi_is_normalized(self):
        rng = random.Random(29)
        m = random_unipotent_int(rng, 5)
        report = is_approximate_substitution(m)
        assert report.extracted_phi.coeffs[0] == 0
        assert report.extracted_phi.coeffs[1] == 1

    def test_non_unipotent_rejected(self):
        with pytest.raises(ValidationError):
            is_approximate_substitution(FiniteMatrix.from_rows([[1, 0], [1, 2]]))
        with pytest.raises(ValidationError):
            is_approximate_substitution(FiniteMatrix.from_rows([[1, 1], [0, 1]]))

    def test_size_one_rejected(self):
        with pytest.raises(ValidationError):
            is_approximate_substitution(FiniteMatrix.identity(1))

    def test_report_json_round_trip(self):
        from bosonstirling import SubstitutionReport

        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert SubstitutionReport.from_json_obj(report.to_json_obj()) == report


class TestAgainstOracle:
    """Reports agree with the series-pipeline oracle, diagnostics included."""

    @settings(max_examples=100)
    @given(unipotent_rows(st.integers(-3, 12)))
    def test_random_integer_matrices(self, rows):
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert report.to_json_obj() == substitution_report(rows)

    @settings(max_examples=50)
    @given(unipotent_rows(SMALL_FRACTIONS))
    def test_random_rational_matrices(self, rows):
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert report.to_json_obj() == substitution_report(rows)

    @settings(max_examples=40)
    @given(built_matrices())
    def test_built_matrices_pass(self, m):
        report = is_approximate_substitution(m)
        assert report.verdict
        assert report.to_json_obj() == substitution_report(m.entries)

    @settings(max_examples=80)
    @given(built_matrices(), st.data())
    def test_one_changed_entry(self, m, data):
        # Changing M[i,c] by δ ≠ 0 in a passing matrix changes, in degree
        # order: column c alone for c ≥ 2; φ at x^i for c = 1, which moves
        # g·φ^k/k! first at x^{k−1+i}; g at x^i for c = 0, which moves
        # c_1^k·g^{1−k}/k! first at x^{k+i}.  A column fails when that
        # degree is at most n.
        n = m.n_max
        i = data.draw(st.integers(1, n), label="row")
        c = data.draw(st.integers(0, i - 1), label="column")
        delta = data.draw(SMALL_FRACTIONS.filter(bool), label="delta")
        rows = [list(row) for row in m.entries]
        rows[i][c] += delta
        if c >= 2:
            expected = [c]
        elif c == 1:
            expected = list(range(2, n + 2 - i))
        else:
            expected = list(range(2, n + 1 - i))
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert [f.k for f in report.failing_columns] == expected
        assert report.verdict == (not expected)
        assert report.to_json_obj() == substitution_report(rows)


# Pairs with the magnitudes of the benchmark's subst-passing pairs.
WORKLOAD_PAIRS = {
    "int": ([1, 2, -1, 3, 1], [0, 1, -1, 2, 1]),
    "rat": (
        [1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(1, 7)],
        [0, 1, Fraction(3, 4), Fraction(-1, 3), Fraction(2, 5)],
    ),
}


def workload_rows(source: str, size: int) -> list[list]:
    if source in WORKLOAD_PAIRS:
        return substitution_matrix(*WORKLOAD_PAIRS[source], size)
    m = truncate_rn(stirling_matrix(parse_word(source), size - 1), size - 1)
    return [list(row) for row in m.entries]


class TestDiagnosticsAtWorkloadSizes:
    """Full reports at the benchmark's sizes, where the oracle tests stop at 9."""

    @pytest.mark.parametrize("bumped", [False, True], ids=["unchanged", "bumped"])
    @pytest.mark.parametrize("source", ["int", "rat", "d a", "d a d", "d d a"])
    @pytest.mark.parametrize("size", [21, 41])
    def test_report_matches_oracle(self, size, source, bumped):
        rows = workload_rows(source, size)
        if bumped:
            rows[-1][size // 2] += 1
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert report.verdict is not bumped
        assert report.to_json_obj() == substitution_report(rows)


class TestFirstFailingStep:
    """The verdict returns the oracle's step, not only its verdict."""

    @settings(max_examples=200)
    @given(perturbed_integer_matrices())
    def test_perturbed_integer_matrices(self, rows):
        k = recurrence_failure(rows)
        assert k == first_failing_step(rows)
        report = is_approximate_substitution(FiniteMatrix(rows))
        assert [f.k for f in report.failing_columns][:1] == ([] if k is None else [k + 1])

    @pytest.mark.parametrize("source", ["int", "rat", "d a", "d a d", "d d a"])
    @pytest.mark.parametrize("size", [21, 41, 61])
    def test_least_step_of_two_bumps(self, size, source):
        # Bumping M[i,c], c ≥ 2, of a passing matrix breaks column c alone,
        # so step c−1 fails first, at row i.  Column `late` in an early row
        # fails step late−1 early in each step's scan; column 3 in the last
        # row fails step 2 at its last coefficient, and is the least step.
        n = size - 1
        rows = [list(row) for row in FiniteMatrix.from_rows(workload_rows(source, size)).numerators]
        assert recurrence_failure(rows) is None
        late = n // 3
        rows[late + 1][late] += 1
        assert recurrence_failure(rows) == first_failing_step(rows) == late - 1
        rows[n][3] += 1
        assert recurrence_failure(rows) == first_failing_step(rows) == 2


class TestLazyDiagnostics:
    def test_verdict_does_no_series_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("series arithmetic while deciding a verdict")

        monkeypatch.setattr(TruncatedSeries, "multiply", refuse)
        monkeypatch.setattr(TruncatedSeries, "invert", refuse)
        verdicts = {
            is_approximate_substitution(
                random_unipotent(4, 3, trial_stream(7, trial))
            ).verdict
            for trial in range(300)
        }
        assert verdicts == {True, False}
        rational = FiniteMatrix.from_rows(
            [[1, 0, 0, 0], [Fraction(1, 2), 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        )
        assert is_approximate_substitution(rational).verdict is False

    def test_cli_substitution_commands_do_no_series_work(self, monkeypatch, tmp_path, capsys):
        def refuse(*args):
            raise AssertionError("series product or inverse on the check/build path")

        monkeypatch.setattr(TruncatedSeries, "multiply", refuse)
        monkeypatch.setattr(TruncatedSeries, "invert", refuse)
        rat = workload_rows("rat", 9)
        bad = [list(row) for row in rat]
        bad[-1][3] += 1
        files = {}
        for name, rows in (("pass", rat), ("fail", bad), ("stirling", workload_rows("d a d", 9))):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(FiniteMatrix.from_rows(rows).to_json_obj()))
        g, phi = (",".join(map(str, c)) for c in WORKLOAD_PAIRS["rat"])
        runs = [
            (["check-subst", str(files["pass"])], 0),
            (["check-subst", str(files["fail"])], 1),
            (["check-subst", str(files["fail"]), "--format", "json"], 1),
            (["check-subst", str(files["stirling"])], 0),
            (["build-subst", "--g", g, "--phi", phi, "--size", "9"], 0),
            (["build-subst", "--g", g, "--phi", phi, "--size", "9", "--format", "json"], 0),
            (["build-subst", "--g", g, "--phi", phi, "--size", "9",
              "--out", str(tmp_path / "built.json")], 0),
        ]
        for argv, code in runs:
            assert cli_main(argv) == code, argv
        assert "expected:" in capsys.readouterr().out

    def test_verdict_is_not_stored(self):
        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert report.verdict is False
        assert {"verdict", "failing_columns", "extracted_phi"}.isdisjoint(vars(report))
        read = SubstitutionReport.from_json_obj(report.to_json_obj())
        assert "verdict" not in vars(read) and read.verdict is False

    def test_diagnostics_are_cached(self):
        rows = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        assert report.failing_columns is report.failing_columns
        assert report.extracted_phi is report.extracted_phi

    def test_report_is_immutable(self):
        report = is_approximate_substitution(FiniteMatrix.identity(3))
        with pytest.raises(AttributeError):
            report.verdict = False
        with pytest.raises(AttributeError):
            report.extracted_g = TruncatedSeries.from_coeffs([1], 2)


COUNTEREXAMPLE_ROWS = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]


def counterexample_json() -> dict:
    """The report of COUNTEREXAMPLE_ROWS: g of order 3, column 2 failing."""
    return is_approximate_substitution(FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS)).to_json_obj()


class TestReportIsItsMatrix:
    """A report stores its matrix alone, and its reader rebuilds that matrix."""

    def test_phi_of_lower_order_than_g_rejected(self):
        obj = counterexample_json()
        obj["phi"] = {"order": 1, "coeffs": ["0", "1"]}
        obj["failing_columns"][0]["actual"] = {
            "order": 5, "coeffs": ["0", "0", "1/2", "1/6", "0", "0"],
        }
        with pytest.raises(ValidationError, match="need series through order 3"):
            SubstitutionReport.from_json_obj(obj)

    def test_wrong_expected_rejected(self):
        obj = counterexample_json()
        obj["failing_columns"][0]["expected"]["coeffs"][3] = "1/3"
        with pytest.raises(ValidationError, match="does not match the matrix"):
            SubstitutionReport.from_json_obj(obj)

    def test_actual_of_wrong_order_rejected(self):
        obj = counterexample_json()
        obj["failing_columns"][0]["actual"] = {"order": 2, "coeffs": ["0", "0", "1/2"]}
        with pytest.raises(ValidationError, match="does not match the matrix"):
            SubstitutionReport.from_json_obj(obj)

    def test_actual_that_breaks_unipotence_rejected(self):
        obj = counterexample_json()
        obj["failing_columns"][0]["actual"]["coeffs"][0] = "1"
        with pytest.raises(ValidationError, match="unipotent"):
            SubstitutionReport.from_json_obj(obj)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        unipotent_rows(st.integers(-3, 12)), unipotent_rows(SMALL_FRACTIONS)
    ).filter(lambda rows: len(rows) <= 8))
    def test_round_trip(self, rows):
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        obj = report.to_json_obj()
        read = SubstitutionReport.from_json_obj(json.loads(json.dumps(obj)))
        assert read == report
        assert read.to_json_obj() == obj

    def test_equality_computes_no_diagnostic(self):
        m = FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS)
        a, b = is_approximate_substitution(m), is_approximate_substitution(m)
        assert a == b and hash(a) == hash(b)
        assert a != is_approximate_substitution(FiniteMatrix.identity(4))
        diagnostics = {"extracted_g", "extracted_phi", "_phi_entries", "failing_columns"}
        assert diagnostics.isdisjoint(vars(a)) and diagnostics.isdisjoint(vars(b))

    def test_read_report_equals_and_hashes_like_the_lazy_one(self):
        report = is_approximate_substitution(FiniteMatrix.from_rows(COUNTEREXAMPLE_ROWS))
        read = SubstitutionReport.from_json_obj(report.to_json_obj())
        assert read == report and hash(read) == hash(report)


class TestEntryTypes:
    def test_integral_inputs_become_int(self):
        m = FiniteMatrix.from_rows([[Fraction(4, 2), 0], ["6/3", 1.0]])
        assert m.entries == ((2, 0), (2, 1))
        assert all(type(v) is int for row in m.entries for v in row)

    def test_other_inputs_become_fraction(self):
        m = FiniteMatrix.from_rows([[Fraction(1, 2), "1/3"], [0.25, True]])
        assert m.entries == ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), 1))
        assert [type(v) for row in m.entries for v in row] == [
            Fraction, Fraction, Fraction, int,
        ]

    def test_entries_are_int_or_non_integral_fraction(self):
        half = TruncatedSeries.from_coeffs([1, Fraction(1, 2), 3, Fraction(-2, 3)])
        phi = TruncatedSeries.from_coeffs([0, 1, Fraction(1, 3), 2])
        a = FiniteMatrix.from_rows([[1, 0], [Fraction(1, 3), 1]])
        matrices = [
            random_unipotent(6, 10, trial_stream(3, 0)),
            build_substitution_matrix(half, phi, 4),
            FiniteMatrix.from_json_obj({"size": 2, "entries": [["1", "0"], ["4/2", "1"]]}),
            matrix_product(matrix_product(a, a), a),
            truncate_rn(stirling_matrix(parse_word("d a d"), 5), 4),
            FiniteMatrix.identity(3),
        ]
        for m in matrices:
            for v in (v for row in m.entries for v in row):
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1)

    @pytest.mark.parametrize(
        "given,value,denominator",
        [("4/2", 2, 3), (Fraction(2, 4), Fraction(1, 2), 6), (0.5, Fraction(1, 2), 6)],
    )
    def test_stored_form_is_that_of_the_reduced_value(self, given, value, denominator):
        m = FiniteMatrix.from_rows([[1, 0], [given, "1/3"]])
        reduced = FiniteMatrix.from_rows([[1, 0], [value, Fraction(1, 3)]])
        assert (m.numerators, m.denominator) == (reduced.numerators, reduced.denominator)
        assert m.denominator == denominator

    def test_direct_constructor_equals_from_rows_of_its_entries(self):
        for nums, d in [([[6, 0], [3, 2]], 6), ([[1, 0], [7, 1]], 1), ([[-4, 9], [0, 1]], 3)]:
            m = FiniteMatrix(nums, d)
            same = FiniteMatrix.from_rows(m.entries)
            assert m == same and hash(m) == hash(same)
            assert same.numerators == tuple(map(tuple, nums)) and same.denominator == d

    @pytest.mark.parametrize(
        "nums,d",
        [
            ([[1, 0], [True, 1]], 1),
            ([[1, 0], [0.0, 1]], 1),
            ([[1, 0], [Fraction(1, 2), 1]], 1),
            ([[1, 0], [0, 1]], 0),
            ([[1, 0], [0, 1]], -1),
            ([[1, 0], [0, 1]], True),
            ([[2, 0], [0, 2]], 2),
            ([[1, 0], [0]], 1),
            ([], 1),
        ],
        ids=["bool", "float", "fraction", "denominator-0", "denominator-negative",
             "denominator-bool", "not-reduced", "not-square", "empty"],
    )
    def test_direct_constructor_rejects_other_forms(self, nums, d):
        with pytest.raises(ValidationError):
            FiniteMatrix(nums, d)

    @pytest.mark.parametrize(
        "x",
        [float("nan"), float("inf"), float("-inf"), None, [1], 1 + 0j,
         Decimal("0.1"), np.int64(3)],
        ids=repr,
    )
    def test_non_exact_entry_is_a_validation_error(self, x):
        # Matrices, series coefficients and Bell points take exact values by
        # one rule, series.exact_number.
        da = stirling_matrix(parse_word("d a"), 3)
        constructors = [
            lambda v: FiniteMatrix.from_rows([[1, 0], [v, 1]]),
            lambda v: FiniteMatrix([[1, 0], [v, 1]]),
            lambda v: TruncatedSeries((1, v)),
            lambda v: bell_polynomial(da, 3, v),
        ]
        for construct in constructors:
            with pytest.raises(ValidationError):
                construct(x)


@st.composite
def builder_pairs(draw):
    """(g, φ, size): sparse g, and φ sparse or the dense e^x − 1."""
    size = draw(st.integers(2, 30))
    coeff = st.fractions(min_value=-10, max_value=10, max_denominator=10**4)
    terms = st.lists(st.tuples(st.integers(0, size - 1), coeff), max_size=4)
    g = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for i, c in draw(terms):
        if i:
            g[i] = c
    if draw(st.booleans()):
        phi = [Fraction(0), Fraction(1)] + [Fraction(0)] * (size - 2)
        for i, c in draw(terms):
            if i > 1:
                phi[i] = c
    else:
        phi = [Fraction(0)] + [Fraction(1, factorial(i)) for i in range(1, size)]
    return g, phi, size


class TestBuilderAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(builder_pairs())
    def test_entries_and_types(self, pair):
        g, phi, size = pair
        built = build_substitution_matrix(
            TruncatedSeries.from_coeffs(g), TruncatedSeries.from_coeffs(phi), size
        )
        want = substitution_matrix(g, phi, size)
        assert built.entries == tuple(map(tuple, want))
        assert [type(v) for row in built.entries for v in row] == [
            type(v) for row in want for v in row
        ]

    @pytest.mark.parametrize("source", sorted(WORKLOAD_PAIRS))
    def test_workload_pairs_at_size_41(self, source):
        g, phi = WORKLOAD_PAIRS[source]
        built = build_substitution_matrix(
            TruncatedSeries.from_coeffs(g, 40), TruncatedSeries.from_coeffs(phi, 40), 41
        )
        assert built.entries == tuple(map(tuple, substitution_matrix(g, phi, 41)))


# Each value with what parse_integer and parse_rational read from it; None
# means ValidationError.
_NUMBER_TABLE = [
    ("0", 0, 0),
    ("-0", 0, 0),
    ("007", 7, 7),
    ("-12", -12, -12),
    (5, 5, 5),
    ("3/6", None, Fraction(1, 2)),
    ("6/3", None, 2),
    ("-0/5", None, 0),
    ("007/010", None, Fraction(7, 10)),
    (".5", None, Fraction(1, 2)),
    ("5.", None, 5),
    ("-.5", None, Fraction(-1, 2)),
    ("-1.250", None, Fraction(-5, 4)),
    ("+5", None, None),
    (" 5", None, None),
    ("5\t", None, None),
    ("1_000", None, None),
    ("٣", None, None),
    ("１", None, None),
    ("²", None, None),
    ("1e3", None, None),
    ("2.5E1", None, None),
    ("3/0", None, None),
    ("/", None, None),
    ("1/", None, None),
    ("/2", None, None),
    ("1/-2", None, None),
    ("1/2/3", None, None),
    ("1/2.5", None, None),
    (".", None, None),
    ("-", None, None),
    ("--5", None, None),
    ("", None, None),
    (True, None, None),
    (2.9, None, None),
    (None, None, None),
    (Fraction(1, 2), None, None),
]


class TestEntryParsing:
    """The number grammar, read by parse_integer and parse_rational."""

    @pytest.mark.parametrize(
        "value,integer,rational",
        [pytest.param(*row, id=row[0] if type(row[0]) is str else repr(row[0]))
         for row in _NUMBER_TABLE],
    )
    def test_pinned(self, value, integer, rational):
        for read, want in ((parse_integer, integer), (parse_rational, rational)):
            if want is None:
                with pytest.raises(ValidationError):
                    read(value)
            else:
                got = read(value)
                assert got == want and type(got) is type(want)

    def test_digit_limit_still_applies(self):
        for text in ("7" * 4301, "-" + "7" * 4301):
            with pytest.raises(ValueError, match="Exceeds the limit"):
                FiniteMatrix.from_rows([[text]])
            with pytest.raises(ValueError, match="Exceeds the limit"):
                parse_rational(text)
        assert FiniteMatrix.from_rows([["7" * 4300]]).numerators == ((int("7" * 4300),),)


class TestBuilder:
    def test_identity_from_trivial_pair(self):
        one, x = TruncatedSeries.from_coeffs([1], 4), TruncatedSeries.from_coeffs([0, 1], 4)
        built = build_substitution_matrix(one, x, 5)
        assert built == FiniteMatrix.identity(5)

    def test_stirling_second_kind_from_exponential(self):
        built = build_substitution_matrix(TruncatedSeries.from_coeffs([1], 6), exp_minus_one(6), 7)
        expected = truncate_rn(stirling_matrix(parse_word("d a"), 6), 6)
        assert built == expected
        assert [int(v) for v in built.entries[4][:5]] == list(STIRLING2_ROWS[4])

    def test_prefunction_matrix_from_geometric_pair(self):
        built = build_substitution_matrix(geometric(6), x_over_one_minus_x(6), 7)
        expected = truncate_rn(stirling_matrix(parse_word("d a d"), 6), 6)
        assert built == expected

    def test_built_matrices_pass_and_extract_back(self):
        rng = random.Random(31)
        for _ in range(25):
            size = rng.randint(4, 8)
            g, phi = random_normalized_pair(rng, size - 1)
            built = build_substitution_matrix(g, phi, size)
            assert built.is_unipotent()
            report = is_approximate_substitution(built)
            assert report.verdict
            assert report.extracted_g == g
            assert report.extracted_phi == phi

    def test_normalization_enforced(self):
        one, x = TruncatedSeries.from_coeffs([1], 4), TruncatedSeries.from_coeffs([0, 1], 4)
        with pytest.raises(ValidationError):
            build_substitution_matrix(x, x, 5)
        with pytest.raises(ValidationError):
            build_substitution_matrix(one, one, 5)
        with pytest.raises(ValidationError):
            build_substitution_matrix(
                TruncatedSeries.from_coeffs([1], 2), TruncatedSeries.from_coeffs([0, 1], 2), 5
            )

    def test_determined_by_first_two_columns(self):
        # Two passing matrices of equal size with equal columns 0 and 1 are
        # equal: rebuild from the extracted pair and compare.
        rng = random.Random(37)
        for _ in range(10):
            size = rng.randint(4, 8)
            g, phi = random_normalized_pair(rng, size - 1)
            built = build_substitution_matrix(g, phi, size)
            report = is_approximate_substitution(built)
            rebuilt = build_substitution_matrix(
                report.extracted_g, report.extracted_phi, size
            )
            assert rebuilt == built


class TestShefferCheck:
    """Known Sheffer matrices pass and give back their (g, φ)."""

    def test_stirling2_truncation(self):
        report = is_approximate_substitution(
            truncate_rn(stirling_matrix(parse_word("d a"), 5), 5)
        )
        assert report.verdict
        assert report.extracted_g == TruncatedSeries.from_coeffs([1], 5)
        assert report.extracted_phi == exp_minus_one(5)

    def test_prefunction_truncation(self):
        report = is_approximate_substitution(
            truncate_rn(stirling_matrix(parse_word("d a d"), 5), 5)
        )
        assert report.verdict
        assert report.extracted_g == geometric(5)
        assert report.extracted_phi == x_over_one_minus_x(5)

    def test_identity(self):
        report = is_approximate_substitution(FiniteMatrix.identity(4))
        assert report.verdict
        assert report.extracted_g == TruncatedSeries.from_coeffs([1], 3)
        assert report.extracted_phi == TruncatedSeries.from_coeffs([0, 1], 3)


class TestSingleAnnihilatorWords:
    def test_matrices_pass_at_orders_up_to_8(self):
        words = []
        for length in (2, 3, 4):
            for pos in range(length):
                letters = ["d"] * length
                letters[pos] = "a"
                words.append(parse_word("".join(letters)))
        for w in words:
            m = stirling_matrix(w, 8)
            for order in range(2, 9):
                assert is_approximate_substitution(truncate_rn(m, order)).verdict, (
                    w,
                    order,
                )


class TestClosedFormPairs:
    """The Stirling matrix of (a†)^{r−p} a (a†)^p is the matrix of its closed-form pair."""

    @pytest.mark.parametrize(
        "r,p", [(r, p) for r in range(1, 7) for p in range(r + 1)]
    )
    def test_stirling_matrix_is_built_from_the_pair(self, r, p):
        w = parse_word(" ".join(["a+"] * (r - p) + ["a"] + ["a+"] * p))
        m = stirling_matrix(w, 25)
        for n in (1, 2, 5, 12, 25):
            g, phi = (TruncatedSeries(c) for c in closed_form_pair(r, p, n))
            assert truncate_rn(m, n) == build_substitution_matrix(g, phi, n + 1), n


class TestTruncations:
    def test_rn_of_identity(self):
        assert truncate_rn(FiniteMatrix.identity(6), 2) == FiniteMatrix.identity(3)

    def test_rn_of_stirling_matrix_pads_square(self):
        m = truncate_rn(stirling_matrix(parse_word("d a"), 3), 3)
        assert m == FiniteMatrix.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 1, 3, 1]]
        )

    def test_rn_nesting_is_idempotent(self):
        m = stirling_matrix(parse_word("d a d"), 6)
        assert truncate_rn(truncate_rn(m, 5), 3) == truncate_rn(m, 3)

    def test_rn_clips_wide_staircase(self):
        m = truncate_rn(stirling_matrix(parse_word("d a a d d"), 2), 2)
        assert m == FiniteMatrix.from_rows([[1, 0, 0], [2, 4, 1], [12, 60, 54]])

    def test_rn_insufficient_materialization(self):
        with pytest.raises(RangeError):
            truncate_rn(FiniteMatrix.identity(3), 3)
        with pytest.raises(RangeError):
            truncate_rn(stirling_matrix(parse_word("d a"), 2), 3)

    def test_taun_is_a_morphism_on_lower_triangular(self):
        rng = random.Random(41)
        for _ in range(40):
            size = rng.randint(3, 6)
            n = rng.randint(1, size - 1)
            a = FiniteMatrix.from_rows(
                [
                    [
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if k <= i else 0
                        for k in range(size)
                    ]
                    for i in range(size)
                ]
            )
            b = FiniteMatrix.from_rows(
                [
                    [
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if k <= i else 0
                        for k in range(size)
                    ]
                    for i in range(size)
                ]
            )
            assert truncate_taun(matrix_product(a, b), n) == matrix_product(
                truncate_taun(a, n), truncate_taun(b, n)
            )

    def test_taun_identity(self):
        assert truncate_taun(FiniteMatrix.identity(5), 3) == FiniteMatrix.identity(4)

    def test_taun_rejects_non_triangular(self):
        with pytest.raises(ValidationError):
            truncate_taun(FiniteMatrix.from_rows([[1, 1], [0, 1]]), 1)
        with pytest.raises(ValidationError):
            truncate_taun(stirling_matrix(parse_word("d a a d d"), 3), 1)
        # Rows 0..1 of (a†)²a²: the only entry above the diagonal is S(1,2) = 1.
        with pytest.raises(ValidationError):
            truncate_taun(stirling_matrix(parse_word("d d a a"), 1), 1)

    def test_taun_accepts_triangular_stirling(self):
        m = stirling_matrix(parse_word("d a"), 4)
        assert truncate_taun(m, 2) == truncate_rn(m, 2)

    def test_rn_is_not_a_morphism(self):
        # Brute-force search over 0/1 matrices of size 3 finds violations of
        # r_1(AB) = r_1(A)r_1(B); the symmetric 0/1 matrix with the leading
        # 2x2 antidiagonal embedded in a non-triangular frame is one of them.
        found = []
        for bits in itertools.product((0, 1), repeat=9):
            rows = [list(bits[0:3]), list(bits[3:6]), list(bits[6:9])]
            a = FiniteMatrix.from_rows(rows)
            if truncate_rn(matrix_product(a, a), 1) != matrix_product(
                truncate_rn(a, 1), truncate_rn(a, 1)
            ):
                found.append(rows)
        assert found
        pinned = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        assert pinned in found
        a = FiniteMatrix.from_rows(pinned)
        assert truncate_rn(matrix_product(a, a), 1) != matrix_product(
            truncate_rn(a, 1), truncate_rn(a, 1)
        )
