"""The substitution condition, its builder, and the truncation operators."""

from __future__ import annotations

import copy
import itertools
import json
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonstirling import (
    FiniteMatrix,
    RangeError,
    SubstitutionReport,
    TruncatedSeries,
    ValidationError,
    bell_polynomial,
    build_substitution_matrix,
    column_egf,
    is_approximate_substitution,
    parse_word,
    random_unipotent,
    stirling_matrix,
    trial_stream,
    truncate_rn,
    truncate_taun,
)

from bosonstirling.cli import main as cli_main
from bosonstirling.series import (_egf_quotient, _ratio_text, parse_integer, parse_rational,
                                  parse_rationals)
from bosonstirling import substitution as substitution_module
from bosonstirling.substitution import MAX_REPORT_ORDER, recurrence_failure

from oracles import (
    _series_divide,
    closed_form_pair,
    division_free_failure,
    first_failing_step,
    matrix_from_json_obj,
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


@st.composite
def perturbed_built_matrices(draw):
    """A built matrix of size 4–14, integer or rational, with 1–3 entries
    below the diagonal changed in columns ≥ 2, which leave g and φ as built."""
    size = draw(st.integers(4, 14))
    coeffs = draw(st.sampled_from([st.integers(-3, 3), SMALL_FRACTIONS]))
    g = TruncatedSeries.from_coeffs([1] + [draw(coeffs) for _ in range(size - 1)], size - 1)
    phi = TruncatedSeries.from_coeffs(
        [0, 1] + [draw(coeffs) for _ in range(size - 2)], size - 1
    )
    rows = [list(row) for row in build_substitution_matrix(g, phi, size).entries]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(3, size - 1))
        rows[i][draw(st.integers(2, i - 1))] += draw(coeffs.filter(bool))
    return FiniteMatrix.from_rows(rows)


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


@st.composite
def rational_column_matrices(draw):
    """Integer rows L·M, L > 1, of a matrix of size 4–14 whose columns 0 and 1
    are drawn, and whose later columns are g·φ^k/k! for the pair those two fix,
    with at most one entry in them changed.

    Φ's entries take their denominators from products of the drawn entries,
    so they grow along the column and the scan, which reaches the changed
    column or the end, rescales them.
    """
    size = draw(st.integers(4, 14))
    fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    col0 = [Fraction(1)] + [draw(fractions) for _ in range(size - 1)]
    col1 = [Fraction(0), Fraction(1)] + [draw(fractions) for _ in range(size - 2)]
    g = [v / factorial(i) for i, v in enumerate(col0)]
    phi = _series_divide([v / factorial(i) for i, v in enumerate(col1)], g)
    rows = substitution_matrix(g, phi, size)
    if draw(st.booleans()):
        i = draw(st.integers(3, size - 1))
        rows[i][draw(st.integers(2, i - 1))] += draw(fractions.filter(bool))
    m = FiniteMatrix.from_rows(rows)
    assume(m.denominator > 1)
    return [list(row) for row in m.numerators]


@st.composite
def built_pairs_one_change(draw):
    """Integer rows L·M of the matrix of a drawn pair (g, φ), size 3–12, with
    one entry below the diagonal changed, in any column."""
    size = draw(st.integers(3, 12))
    coeffs = draw(st.sampled_from([st.integers(-3, 3), SMALL_FRACTIONS]))
    g = [1] + [draw(coeffs) for _ in range(size - 1)]
    phi = [0, 1] + [draw(coeffs) for _ in range(size - 2)]
    rows = substitution_matrix(g, phi, size)
    i = draw(st.integers(1, size - 1))
    rows[i][draw(st.integers(0, i - 1))] += draw(coeffs.filter(bool))
    return [list(row) for row in FiniteMatrix.from_rows(rows).numerators]


class TestQuotientVerdict:
    """The verdict reads φ = c_1/c_0 from the quotient kernel: it returns the
    step of the division-free oracles, computes only the entries of Φ its
    scan reads, and a report computes each entry once."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(
        unipotent_rows(st.integers(-3, 12)),
        rational_column_matrices(),
        built_pairs_one_change(),
    ))
    def test_step_agrees_with_the_division_free_oracles(self, rows):
        assert recurrence_failure(rows) == division_free_failure(rows) == first_failing_step(rows)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_quotient_rescales_to_the_lcm(self, sign):
        # Column 0 has entries over 2, 3 and 5, so Φ's denominator grows
        # along the column, and each pair yielded is Φ[0..i] over the LCM of
        # their reduced denominators; negating both columns, den[0] < 0
        # included, leaves every entry and denominator as it is.
        m = FiniteMatrix.from_rows(
            [[1, 0, 0, 0, 0, 0, 0],
             [Fraction(1, 2), 1, 0, 0, 0, 0, 0],
             [Fraction(1, 3), Fraction(2, 5), 1, 0, 0, 0, 0],
             [Fraction(-3, 5), 1, 1, 1, 0, 0, 0],
             [2, Fraction(1, 7), 1, 1, 1, 0, 0],
             [Fraction(5, 3), 0, 1, 1, 1, 1, 0],
             [1, Fraction(-1, 2), 1, 1, 1, 1, 1]])
        n = m.n_max
        g, c1 = ([Fraction(row[k]) / factorial(i) for i, row in enumerate(m.entries)]
                 for k in (0, 1))
        entries = [c * factorial(i) for i, c in enumerate(_series_divide(c1, g))]
        pairs = [(sign * row[1], sign * row[0]) for row in m.numerators]
        denominators = []
        for numerators, d in _egf_quotient(iter(pairs), n):
            i = len(numerators) - 1
            assert [Fraction(v, d) for v in numerators] == entries[:i + 1]
            assert d == lcm(*[v.denominator for v in entries[:i + 1]])
            denominators.append(d)
        assert len(set(denominators)) >= 3
        # Continued from Q[0..2], the kernel computes only Q[3..n].
        quotient = _egf_quotient(iter(pairs), n)
        for _ in range(3):
            numerators, d = next(quotient)
        rest = list(_egf_quotient(iter(pairs), n, (list(numerators), d)))
        assert len(rest) == n - 2
        assert [Fraction(v, rest[-1][1]) for v in rest[-1][0]] == entries

    @pytest.mark.parametrize("source", ["int", "rat", "d a d"])
    def test_last_step(self, source):
        # Changing M[n,n−1] breaks column n−1 alone, which step n−2 reads last.
        rows = [list(row) for row in FiniteMatrix.from_rows(workload_rows(source, 21)).numerators]
        rows[20][19] += 1
        assert recurrence_failure(rows) == division_free_failure(rows) == 18

    @staticmethod
    def _counting_quotient(monkeypatch, computed):
        """Record the index of each entry the quotient kernel computes."""
        real = substitution_module._egf_quotient

        def counting(pairs, n, known=((), 1)):
            for state in real(pairs, n, known):
                computed.append(len(state[0]) - 1)
                yield state

        monkeypatch.setattr(substitution_module, "_egf_quotient", counting)

    @staticmethod
    def _first_failing_row_of_step_1(rows):
        """The least i with 2·Σ_j C(i,j)·R[j,0]·R[i−j,2] ≠ Σ_j C(i,j)·R[j,1]·R[i−j,1]."""
        for i in range(3, len(rows)):
            left = sum(comb(i, j) * rows[j][0] * rows[i - j][2] for j in range(i - 1))
            right = sum(comb(i, j) * rows[j][1] * rows[i - j][1] for j in range(1, i))
            if 2 * left != right:
                return i
        return None

    def test_early_exit_computes_no_entry_past_the_failing_row(self, monkeypatch):
        # A size-64 matrix failing at step 1 in row r: row r's weights read
        # Φ[0..r−1], of which Φ[0] = 0 and Φ[1] = 1 are known, so the scan
        # holds r entries and computes r − 2 of them.
        computed = []
        self._counting_quotient(monkeypatch, computed)
        cases = [random_unipotent(64, 10, trial_stream(5, trial)).numerators for trial in range(20)]
        built = [list(row) for row in FiniteMatrix.from_rows(workload_rows("int", 64)).numerators]
        for r in (4, 9, 33, 63):
            bumped = [list(row) for row in built]
            bumped[r][2] += 1
            cases.append(bumped)
        rows_seen = set()
        for rows in cases:
            r = self._first_failing_row_of_step_1(rows)
            computed.clear()
            phi = []
            assert recurrence_failure(rows, phi) == 1
            (numerators, d), = phi
            assert len(numerators) == r and computed == list(range(2, r))
            rows_seen.add(r)
        assert {3, 4, 9, 33, 63} <= rows_seen

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("source,bump", [("int", None), ("rat", None), ("rat", 5), ("d a d", 2)])
    def test_check_subst_computes_each_entry_once(self, monkeypatch, tmp_path, capsys, fmt,
                                                   source, bump):
        computed = []
        self._counting_quotient(monkeypatch, computed)
        rows = workload_rows(source, 21)
        if bump is not None:
            rows[-1][bump] += 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps(FiniteMatrix.from_rows(rows).to_json_obj()))
        code = cli_main(["check-subst", str(path), "--format", fmt])
        assert code == (0 if bump is None else 1)
        assert sorted(computed) == list(range(2, 21))
        capsys.readouterr()

    @pytest.mark.parametrize("source,bump", [("int", None), ("rat", 7), ("d a", 3)])
    def test_report_pickles_and_deep_copies(self, source, bump):
        rows = workload_rows(source, 12)
        if bump is not None:
            rows[-1][bump] += 1
        report = is_approximate_substitution(FiniteMatrix.from_rows(rows))
        expected = substitution_report(rows)
        for read in (False, True):
            if read:
                assert report.to_json_obj() == expected
            for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
                assert twin == report and hash(twin) == hash(report)
                assert twin.verdict is report.verdict
                assert twin.to_json_obj() == expected


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
        with pytest.raises(ValidationError, match="actual has order 2; need series through order 3"):
            SubstitutionReport.from_json_obj(obj)

    def test_actual_that_breaks_unipotence_rejected(self):
        obj = counterexample_json()
        obj["failing_columns"][0]["actual"]["coeffs"][0] = "1"
        with pytest.raises(ValidationError, match="unipotent"):
            SubstitutionReport.from_json_obj(obj)

    @staticmethod
    def _identity_report(order):
        zeros = ["0"] * (order - 1)
        return {
            "verdict": True,
            "failing_columns": [],
            "g": {"order": order, "coeffs": ["1", "0", *zeros]},
            "phi": {"order": order, "coeffs": ["0", "1", *zeros]},
        }

    def test_order_past_the_cap_rejected_before_any_matrix(self, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(substitution_module, "_pair_columns", no_matrix)
        obj = self._identity_report(MAX_REPORT_ORDER + 1)
        assert len(json.dumps(obj)) < 4096
        with pytest.raises(ValidationError, match=f"up to order {MAX_REPORT_ORDER}"):
            SubstitutionReport.from_json_obj(obj)

    @pytest.mark.parametrize("field", ["phi", "expected", "actual"])
    def test_series_past_the_cap_beside_a_small_g_rejected_before_any_matrix(
        self, monkeypatch, field
    ):
        def no_matrix(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(substitution_module, "_pair_columns", no_matrix)
        obj = counterexample_json()
        long = {"order": MAX_REPORT_ORDER + 1, "coeffs": ["0"] * (MAX_REPORT_ORDER + 2)}
        if field == "phi":
            obj["phi"] = long
        else:
            obj["failing_columns"][0][field] = long
        assert len(json.dumps(obj)) < 4096
        with pytest.raises(ValidationError, match="need series through order 3"):
            SubstitutionReport.from_json_obj(obj)

    def test_long_g_rejected_before_any_series(self, count_series):
        obj = self._identity_report(20_000)
        built = count_series()
        with pytest.raises(ValidationError,
                           match="g has order 20000; reports are read up to order 256"):
            SubstitutionReport.from_json_obj(obj)
        assert built == [0]

    @pytest.mark.parametrize("field", ["phi", "expected", "actual"])
    def test_long_series_beside_a_small_g_rejected_before_any_series(
        self, count_series, field
    ):
        obj = counterexample_json()
        long = {"order": 20_000, "coeffs": ["0"] * 20_001}
        if field == "phi":
            obj["phi"] = long
        else:
            obj["failing_columns"][0][field] = long
        built = count_series()
        with pytest.raises(ValidationError, match="has order 20000; need series through order 3"):
            SubstitutionReport.from_json_obj(obj)
        assert built == [0]

    @pytest.mark.parametrize("field", ["g", "phi", "actual"])
    def test_empty_series_named_by_its_reader(self, field):
        obj = counterexample_json()
        if field == "actual":
            obj["failing_columns"][0]["actual"]["coeffs"] = []
        else:
            obj[field]["coeffs"] = []
        with pytest.raises(ValidationError, match="a series needs at least one coefficient"):
            SubstitutionReport.from_json_obj(obj)

    def test_order_at_the_cap_is_read(self, monkeypatch):
        monkeypatch.setattr(substitution_module, "MAX_REPORT_ORDER", 4)
        report = SubstitutionReport.from_json_obj(self._identity_report(4))
        assert report == is_approximate_substitution(FiniteMatrix.identity(5))
        with pytest.raises(ValidationError, match="up to order 4"):
            SubstitutionReport.from_json_obj(self._identity_report(5))

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
    @pytest.mark.parametrize(
        "build,name",
        [(lambda: FiniteMatrix.from_rows(["100", "110", "111"]), "matrix row"),
         (lambda: FiniteMatrix.from_rows([b"\x01"]), "matrix row"),
         (lambda: FiniteMatrix.from_rows([1, 2]), "matrix row"),
         (lambda: FiniteMatrix.from_rows(5), "matrix"),
         (lambda: FiniteMatrix([b"\x01"]), "matrix row"),
         (lambda: FiniteMatrix([1, 2]), "matrix row"),
         (lambda: FiniteMatrix(5), "matrix")],
        ids=["from_rows-str-rows", "from_rows-bytes-row", "from_rows-int-rows", "from_rows-int",
             "bytes-row", "int-rows", "int"],
    )
    def test_text_or_non_iterable_rows_rejected(self, build, name):
        # Unchecked, a text row is read character by character, so
        # ["100", "110", "111"] is the unipotent matrix of its digits, and
        # an int fails with TypeError: the object is not iterable.
        with pytest.raises(ValidationError, match=f"^{name} must be a sequence"):
            build()

    def test_any_iterable_of_rows_accepted(self):
        m = FiniteMatrix.from_rows([[1, 0], [2, 1]])
        assert FiniteMatrix.from_rows(iter(row) for row in ((1, 0), (2, 1))) == m
        assert FiniteMatrix(list(row) for row in ((1, 0), (2, 1))) == m

    def test_integral_inputs_become_int(self):
        m = FiniteMatrix.from_rows([[Fraction(4, 2), 0], ["6/3", 1.0]])
        assert m.entries == ((2, 0), (2, 1))
        assert all(type(v) is int for row in m.entries for v in row)
        # Booleans beside int entries alone are read as values too.
        m = FiniteMatrix.from_rows([[True, 0], [False, 1]])
        assert m.entries == ((1, 0), (0, 1))
        assert all(type(v) is int for row in m.numerators for v in row)

    def test_other_inputs_become_fraction(self):
        m = FiniteMatrix.from_rows([[Fraction(1, 2), "1/3"], [0.25, True]])
        assert m.entries == ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), 1))
        assert [type(v) for row in m.entries for v in row] == [
            Fraction, Fraction, Fraction, int,
        ]
        # Rows that mix int, Fraction and bool, one of them all int, read as
        # the same values written as text.
        rows = [[1, 0, 0], [Fraction(1, 2), True, 0], [False, Fraction(-5, 4), 1]]
        text = [["1", "0", "0"], ["1/2", "1", "0"], ["0", "-5/4", "1"]]
        assert FiniteMatrix.from_rows(rows) == FiniteMatrix.from_json_obj(
            {"size": 3, "entries": text})

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

    @pytest.mark.parametrize(
        "entry,message",
        [(np.int64(3), "not an exact number: "),
         (np.float64(0.5), "not an exact number: "),
         ("1e3", r"not a rational \(integer, p/q or decimal; no exponent\): '1e3'"),
         ("1/0", "zero denominator in '1/0'")],
        ids=["numpy-int", "numpy-float", "exponent", "zero-denominator"],
    )
    def test_rejected_entry_keeps_its_message(self, entry, message):
        # The bad value is in row 2, after a good row 1 of int entries or of
        # entries read value by value.
        for first in ([1, 0], [Fraction(1, 2), "0"]):
            with pytest.raises(ValidationError, match=f"^{message}"):
                FiniteMatrix.from_rows([first, [entry, "1/2"]])

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


def _outcome(read, value):
    """What `read` returns for `value`, or the type and message of what it raises."""
    try:
        return read(value)
    except Exception as exc:
        return type(exc), str(exc)


def _row_by_value(row):
    """parse_rational on each value, over the LCM of their denominators by Fractions."""
    values = [Fraction(parse_rational(v)) for v in row]
    d = lcm(*[v.denominator for v in values])
    return [int(v * d) for v in values], d


# Values near the grammar's rows: a comma inside one value, text that int()
# takes but the grammar does not, a zero or unreduced denominator, decimals,
# an exponent, an integer past Python's digit limit, and JSON values that
# are not text.
_NEAR_MISSES = ["1,2", "", "-", "+1", " 1", "1 ", "1_0", "١٢", "1/0", "1/00", "-0/3", "2/4",
                "0/7", "007/010", "1/-2", "-1/2", "1.5", ".5", "1e3", "7" * 4301,
                "1/" + "7" * 4302, 3, -4, True, False, 2.5, None]
_row_values = st.one_of(
    st.sampled_from(_NEAR_MISSES),
    st.integers(-(10**30), 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(0, 10**6)),
    st.builds("{}/0{}".format, st.integers(-99, 99), st.integers(1, 99)),
)
_grammar_values = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
)
_rows = st.one_of(st.lists(_grammar_values, max_size=8), st.lists(_row_values, max_size=8))


@st.composite
def _matrix_objects(draw):
    """Matrix file objects: square grammar rows with at most one value, the
    size or a row's length changed."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(_grammar_values, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    size = n
    change = draw(st.sampled_from(["none", "value", "size", "row"]))
    if change == "value" and n:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_row_values)
    elif change == "size":
        size = draw(st.sampled_from([n + 1, str(n), True]))
    elif change == "row" and n:
        rows[draw(st.integers(0, n - 1))] = draw(_rows)
    return {"size": size, "entries": rows}


class TestRowReader:
    """parse_rationals and FiniteMatrix.from_json_obj agree with reading value by value."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_rows)
    def test_row_agrees_with_parse_rational(self, row):
        got = _outcome(parse_rationals, row)
        assert got == _outcome(_row_by_value, row)
        if type(got[0]) is list:
            assert {int}.issuperset(map(type, got[0])) and type(got[1]) is int

    @pytest.mark.parametrize("value", _NEAR_MISSES, ids=repr)
    @pytest.mark.parametrize("where", ["alone", "in-row"])
    def test_near_miss_agrees_with_parse_rational(self, value, where):
        row = [value] if where == "alone" else ["1/2", value, "-3"]
        assert _outcome(parse_rationals, row) == _outcome(_row_by_value, row)

    @pytest.mark.parametrize(
        "row,numerators,denominator",
        [([], [], 1), (["-0/3", "0/7"], [0, 0], 1), (["2/4"], [1], 2),
         (["1/2", "1/3", "-5"], [3, 2, -30], 6), (["4/6", "1/3"], [2, 1], 3),
         (["007/010", 2], [7, 20], 10)],
        ids=["empty", "zero-numerators", "unreduced", "lcm", "lcm-not-product", "json-int"],
    )
    def test_pinned(self, row, numerators, denominator):
        assert parse_rationals(row) == (numerators, denominator)

    def test_denominator_read_before_numerator(self):
        # Both exceed the digit limit; parse_rational reports the denominator's.
        row = ["1/2", "7" * 4301 + "/" + "7" * 4302]
        with pytest.raises(ValueError, match="has 4302 digits"):
            parse_rational(row[1])
        with pytest.raises(ValueError, match="has 4302 digits"):
            parse_rationals(row)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_matrix_objects())
    def test_matrix_agrees_with_oracle(self, obj):
        # Equal matrices have equal numerators and denominators.
        assert _outcome(FiniteMatrix.from_json_obj, obj) == _outcome(matrix_from_json_obj, obj)

    def test_rows_over_one_denominator(self):
        obj = {"size": 3, "entries": [["1", "0", "0"], ["1/2", "1", "0"], ["2/3", "-5/4", "1"]]}
        m = FiniteMatrix.from_json_obj(obj)
        assert m.denominator == 12
        assert m.numerators == ((12, 0, 0), (6, 12, 0), (8, -15, 12))
        assert m == matrix_from_json_obj(obj)


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
        with pytest.raises(ValidationError, match="size must be at least 2, got 1"):
            build_substitution_matrix(one, x, 1)

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

    @settings(max_examples=60, deadline=None)
    @given(perturbed_built_matrices())
    def test_failing_columns_are_where_the_pair_matrix_differs(self, m):
        # A matrix is an approximate substitution exactly when it is the
        # matrix of its own pair (g, φ); a failing column's expected series
        # is that matrix's column.
        report = is_approximate_substitution(m)
        rebuilt = build_substitution_matrix(report.extracted_g, report.extracted_phi, m.size)
        differing = [
            k for k in range(m.size)
            if [row[k] for row in m.entries] != [row[k] for row in rebuilt.entries]
        ]
        assert [f.k for f in report.failing_columns] == differing
        assert report.verdict == (not differing)
        for f in report.failing_columns:
            assert f.expected == column_egf(rebuilt, f.k, m.n_max)


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

    def test_rn_drops_the_row_that_holds_the_denominator(self):
        m = FiniteMatrix.from_rows([[1, 0], ["1/2", 1]])
        assert m.denominator == 2
        assert truncate_rn(m, 0) == FiniteMatrix.identity(1)

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
        with pytest.raises(ValidationError, match="must be non-negative, got -1"):
            truncate_rn(FiniteMatrix.identity(3), -1)

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
