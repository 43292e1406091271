"""Generalized Stirling matrices, Bell values, and word classification."""

from __future__ import annotations

import random
import re
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bosonstirling import (
    BosonWord,
    FiniteMatrix,
    GeneralizedStirlingMatrix,
    RangeError,
    TruncatedSeries,
    ValidationError,
    WordClassification,
    bell_numbers,
    bell_polynomial,
    classify_word,
    column_egf,
    excess,
    normal_order,
    parse_word,
    stirling_matrix,
    truncate_rn,
)
from bosonstirling import stirling as stirling_module

from oracles import stirling_rows_by_action
from tables import PREFUNCTION_ROWS, STIRLING2_ROWS, WIDE_STAIRCASE_ROWS

BELL_POINTS = (
    Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(5, 7), Fraction(4),
    Fraction(-(10**39 + 3), 2**131),
)

words_up_to_6 = st.lists(st.sampled_from("ad"), min_size=1, max_size=6).map(tuple)


def fraction_horner(row, x):
    value = Fraction(0)
    for coeff in reversed(row):
        value = value * x + coeff
    return value


def random_words(seed, count, max_len=5, min_creators=0, min_excess=None):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        letters = tuple(rng.choice("ad") for _ in range(rng.randint(1, max_len)))
        w = BosonWord.from_letters(letters)
        if w.creator_count < min_creators:
            continue
        if min_excess is not None and w.creator_count - w.annihilator_count < min_excess:
            continue
        words.append(w)
    return words


class TestGoldenTables:
    def test_stirling_second_kind(self):
        m = stirling_matrix(parse_word("d a"), 6)
        assert list(m.rows) == STIRLING2_ROWS
        assert (m.word.annihilator_count, m.word.creator_count, excess(m.word)) == (1, 1, 0)

    def test_prefunction_word(self):
        m = stirling_matrix(parse_word("d a d"), 6)
        assert list(m.rows) == PREFUNCTION_ROWS
        assert (m.word.annihilator_count, m.word.creator_count, excess(m.word)) == (1, 2, 1)

    def test_wide_staircase_word(self):
        m = stirling_matrix(parse_word("d a a d d"), 4)
        assert list(m.rows) == WIDE_STAIRCASE_ROWS
        assert (m.word.annihilator_count, m.word.creator_count, excess(m.word)) == (2, 3, 1)

    def test_prefunction_closed_form(self):
        # S(n,k) = (n!/k!)·C(n,k) for w = a†aa†, computed independently.
        m = stirling_matrix(parse_word("d a d"), 6)
        for n, row in enumerate(m.rows):
            for k, value in enumerate(row):
                assert value == factorial(n) // factorial(k) * comb(n, k)


class TestStirlingMatrix:
    def test_empty_word_rejected(self):
        with pytest.raises(ValidationError):
            stirling_matrix(BosonWord(), 3)

    def test_negative_rows_rejected(self):
        for n_max, message in [
            (-1, "row count must be non-negative, got -1"),
            (2.5, "row count must be an int, got 2.5"),
            ("3", "row count must be an int, got '3'"),
            (True, "row count must be an int, got True"),
        ]:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                stirling_matrix(parse_word("d a"), n_max)

    def test_row_zero_is_identity(self):
        for text in ("d a", "a d", "d a a d d", "a"):
            assert stirling_matrix(parse_word(text), 0).rows == ((1,),)

    def test_staircase_row_width(self):
        for w in random_words(seed=5, count=15):
            m = stirling_matrix(w, 4)
            for n, row in enumerate(m.rows):
                assert len(row) == n * m.word.annihilator_count + 1

    def test_top_entry_is_one_for_nonnegative_excess(self):
        for w in random_words(seed=6, count=15, min_creators=1, min_excess=0):
            m = stirling_matrix(w, 4)
            for n, row in enumerate(m.rows):
                assert row[-1] == 1, (w, n)

    def test_unitriangular_iff_single_annihilator(self):
        # Words with at least one creator and excess ≥ 0; in that regime the
        # materialized matrix is unitriangular exactly when s_tot = 1.
        for w in random_words(seed=7, count=20, min_creators=1, min_excess=0):
            m = stirling_matrix(w, 4)
            unitriangular = all(
                len(row) == n + 1 and row[n] == 1 for n, row in enumerate(m.rows)
            )
            assert unitriangular == (m.word.annihilator_count == 1), w

    # The CSV output checks only the last row's largest entry before its
    # first line, so no row may hold an entry above the last row's largest.
    @settings(max_examples=80, deadline=None)
    @given(words_up_to_6, st.integers(0, 7))
    def test_last_row_holds_the_largest_entry(self, letters, n_max):
        rows = stirling_matrix(BosonWord.from_letters(letters), n_max).rows
        for n in range(1, n_max + 1):
            assert max(rows[n]) >= max(rows[n - 1]), n

    def test_projective_consistency(self):
        for w in random_words(seed=8, count=10):
            full = stirling_matrix(w, 6)
            for m_rows in range(7):
                assert stirling_matrix(w, m_rows).rows == full.rows[: m_rows + 1]

    def test_entry_reads_zero_beyond_staircase(self):
        m = stirling_matrix(parse_word("d a"), 3)
        assert m.entry(1, 5) == 0
        with pytest.raises(RangeError):
            m.entry(4, 0)
        with pytest.raises(RangeError):
            m.entry(1, -1)

    def test_first_column_unit_iff_ends_with_annihilator(self):
        # A theorem for single-annihilator words; false in general (ada ends
        # with a yet has column (1,1,2,...), daad ends with a† yet has unit
        # column), so the check stays in the single-annihilator regime.
        rng = random.Random(9)
        for _ in range(20):
            p = rng.randint(0, 3)
            lead = rng.randint(0, 3) if p else rng.randint(1, 3)
            w = BosonWord.from_letters(("d",) * lead + ("a",) + ("d",) * p)
            m = stirling_matrix(w, 4)
            column = [m.entry(n, 0) for n in range(5)]
            if w.text[-1] == "a":
                assert column == [1, 0, 0, 0, 0]
            else:
                assert any(v != 0 for v in column[1:])

    def test_json_round_trip(self):
        m = stirling_matrix(parse_word("d a d"), 4)
        obj = m.to_json_obj()
        assert obj["word"] == "dad"
        assert obj["rows"][2] == ["2", "4", "1"]
        assert GeneralizedStirlingMatrix.from_json_obj(obj) == m

    def test_stores_only_word_and_rows(self):
        assert [f.name for f in fields(GeneralizedStirlingMatrix)] == ["word", "rows"]

    def test_constructor_takes_the_word_and_row_count(self):
        w = parse_word("d a d")
        m = GeneralizedStirlingMatrix(w, 4)
        assert m == stirling_matrix(w, 4)
        assert m.rows == tuple(stirling_module._stirling_rows(w, 4)) and m.n_max == 4
        assert GeneralizedStirlingMatrix.from_json_obj(m.to_json_obj()) == m

    @pytest.mark.parametrize("word,n_max,message", [
        (parse_word("d a"), "15", "row count must be an int, got '15'"),
        (parse_word("d a"), -1, "row count must be non-negative, got -1"),
        ("da", 3, "word must be a BosonWord, got 'da'"),
        (((1, 1),), 3, "word must be a BosonWord, got ((1, 1),)"),
    ])
    def test_constructor_checks_its_arguments(self, word, n_max, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            GeneralizedStirlingMatrix(word, n_max)

    @pytest.mark.parametrize("key,value", [("s_tot", 2), ("d", 0)])
    def test_json_rejects_counts_that_disagree_with_word(self, key, value):
        obj = stirling_matrix(parse_word("d a d"), 2).to_json_obj()
        obj[key] = value
        with pytest.raises(ValidationError):
            GeneralizedStirlingMatrix.from_json_obj(obj)

    @pytest.mark.parametrize(
        "change,yielded,message",
        [
            # 1,000 empty rows: a 4 KB file whose row 0 is already wrong.
            ({"rows": [[]] * 1000}, 1, "serialized rows are not the rows of 'da'"),
            ({"rows": [["1"], ["0", "1"], ["0", "1", "1", "9"]]}, 3,
             "serialized rows are not the rows of 'da'"),
            ({"s_tot": 2}, 0, "serialized s_tot 2 does not match the other keys"),
            ({"d": 1}, 0, "serialized d 1 does not match the other keys"),
            # 60 rows of (a†)^20 a^20, of the right lengths and every entry
            # "0": row 0 is wrong, so no later row is built.
            ({"word": "d" * 20 + "a" * 20, "s_tot": 20,
              "rows": [["0"] * (20 * n + 1) for n in range(60)]}, 1,
             f"serialized rows are not the rows of '{'d' * 20 + 'a' * 20}'"),
            ({"rows": [["1"], ["0", "1"], ["0", "1", "1"], ["0", "1", "3", "2"]]}, 4,
             "serialized rows are not the rows of 'da'"),
            # No rows is row count −1, which the generator rejects before
            # any row: it must come first in the zip.
            ({"rows": []}, 0, "row count must be non-negative, got -1"),
        ],
        ids=["empty-rows", "long-row", "s_tot", "d", "zero-rows", "last-row", "no-rows"],
    )
    def test_json_rejects_before_rebuilding(self, monkeypatch, change, yielded, message):
        rows = []
        build = stirling_module._stirling_rows

        def counting_rows(w, n_max):
            for row in build(w, n_max):
                rows.append(row)
                yield row

        monkeypatch.setattr(stirling_module, "_stirling_rows", counting_rows)
        obj = {"word": "da", "s_tot": 1, "d": 0, "rows": [["1"], ["0", "1"]], **change}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            GeneralizedStirlingMatrix.from_json_obj(obj)
        assert len(rows) == yielded


class TestAgainstActionOracle:
    """Rows and Bell values against x^m action with forward differences."""

    # The pinned examples cover excess below, at and above zero, s_tot = 0..3
    # and words that start with the annihilator.
    @settings(max_examples=80, deadline=None)
    @given(words_up_to_6, st.integers(0, 7))
    @example(tuple("a"), 7)
    @example(tuple("aad"), 7)
    @example(tuple("aaaddd"), 7)
    @example(tuple("ad"), 7)
    @example(tuple("da"), 7)
    @example(tuple("dd"), 7)
    @example(tuple("adaddd"), 7)
    @example(tuple("daaadd"), 7)
    @example(tuple("ddddda"), 7)
    # Shifts −1 and −2 run past the end of rows 1 and 2 of "dadd", and
    # "adaa" (d⁻ = 2) sums κ = 0 and κ = 1 into its shift 0.
    @example(tuple("dadd"), 1)
    @example(tuple("dadd"), 2)
    @example(tuple("dadd"), 3)
    @example(tuple("adaa"), 7)
    def test_rows_match_oracle(self, letters, n_max):
        m = stirling_matrix(BosonWord.from_letters(letters), n_max)
        assert [list(row) for row in m.rows] == stirling_rows_by_action(letters, n_max)

    # bell_polynomial sums blocks of 8 coefficients; rows of 1, 8, 9, 16 and
    # 17 entries put a row's end at each edge of a block.
    @settings(max_examples=40, deadline=None)
    @given(words_up_to_6, st.integers(0, 7))
    @example(tuple("aad"), 7)
    @example(tuple("daaadd"), 7)
    @example(tuple("da"), 16)
    @example(tuple("d" + "a" * 7), 2)
    @example(tuple("d" + "a" * 8), 2)
    @example(tuple("a" * 15 + "d"), 1)
    def test_bell_polynomial_matches_fraction_horner(self, letters, n_max):
        m = stirling_matrix(BosonWord.from_letters(letters), n_max)
        for n, row in enumerate(stirling_rows_by_action(letters, n_max)):
            for x in BELL_POINTS:
                assert bell_polynomial(m, n, x) == fraction_horner(row, x), (n, x)


class TestStepsStopWherePermVanishes:
    """Steps beyond κ = (n_max−1)·(s + d⁻) would only add zeros: none is made."""

    def _comb_calls(self, monkeypatch, text, n_max):
        calls = []
        monkeypatch.setattr(
            stirling_module, "comb", lambda n, k: calls.append(k) or comb(n, k)
        )
        return stirling_matrix(parse_word(text), n_max), calls

    def test_one_row_of_a_long_word(self, monkeypatch):
        m, calls = self._comb_calls(monkeypatch, "rs:[2000,1]", 1)
        assert m.rows == ((1,), (0, 1))
        assert calls == [0]

    @pytest.mark.parametrize(
        "text", ["rs:[12,1]", "rs:[2,3;4,1]", "rs:[0,2;5,0]", "rs:[1,3;2,2]", "a a d a"]
    )
    @pytest.mark.parametrize("n_max", range(5))
    def test_rows_and_step_count(self, monkeypatch, text, n_max):
        w = parse_word(text)
        m, calls = self._comb_calls(monkeypatch, text, n_max)
        assert [list(row) for row in m.rows] == stirling_rows_by_action(w.text, n_max)
        d_minus = max(-excess(m.word), 0)
        kappa_max = min(m.word.creator_count, max((n_max - 1) * (m.word.annihilator_count + d_minus), 0))
        terms = normal_order(w).terms
        assert max(calls) == min(kappa_max, max(j for j, _ in terms))
        assert len(calls) == sum(min(j, kappa_max) + 1 for j, _ in terms)


class TestWeightsGrowWithRows:
    """Row n evaluates weights T_σ(L) only for L ≤ (n−1)·(s + d⁻), every L equally often.

    ``perm`` is patched as ``comb`` is above.  Each call also records how
    many rows the kernel has built, read from the index ``n`` of the row it
    builds, so a table filled ahead of the rows is caught without asking
    for a huge matrix.
    """

    def _perm_calls(self, monkeypatch, text, n_max):
        calls = []

        def counting_perm(n, k):
            frame = sys._getframe(1)
            while frame.f_code is not stirling_module._stirling_rows.__code__:
                frame = frame.f_back
            calls.append((n, frame.f_locals["n"]))
            return perm(n, k)

        monkeypatch.setattr(stirling_module, "perm", counting_perm)
        return stirling_matrix(parse_word(text), n_max), calls

    @pytest.mark.parametrize("text", ["a", "d", "rs:[2000,1]", "aa"])
    def test_unit_weights_evaluate_nothing(self, monkeypatch, text):
        assert self._perm_calls(monkeypatch, text, 1)[1] == []

    @pytest.mark.parametrize(
        "text", ["d a", "d a d d", "a d a a", "rs:[2,3;4,1]", "rs:[0,2;5,0]", "a a d a"]
    )
    @pytest.mark.parametrize("n_max", range(2, 7))
    def test_each_weight_once_when_its_row_needs_it(self, monkeypatch, text, n_max):
        m, calls = self._perm_calls(monkeypatch, text, n_max)
        assert [list(row) for row in m.rows] == stirling_rows_by_action(m.word.text, n_max)
        step = m.word.annihilator_count + max(-excess(m.word), 0)
        # While row n is built, rows 0..n−1 exist and row n reads L ≤ (n−1)·step.
        assert all(big_l <= (built - 1) * step for big_l, built in calls)
        # Row n_max reads every L up to its bound, and every L is evaluated
        # as often as every other: no table is rebuilt for a later row.
        per_l = Counter(big_l for big_l, _ in calls)
        assert sorted(per_l) == list(range((n_max - 1) * step + 1))
        assert len(set(per_l.values())) == 1


class TestBell:
    def test_bell_numbers_stirling2(self):
        m = stirling_matrix(parse_word("d a"), 6)
        assert bell_numbers(m) == [1, 1, 2, 5, 15, 52, 203]

    def test_bell_numbers_prefunction(self):
        m = stirling_matrix(parse_word("d a d"), 3)
        assert bell_numbers(m) == [1, 2, 7, 34]

    def test_row_zero(self):
        assert bell_numbers(stirling_matrix(parse_word("a d"), 0)) == [1]

    def test_polynomial_row_two(self):
        m = stirling_matrix(parse_word("d a"), 6)
        # B(2, x) = x + x²
        for x in (Fraction(1), Fraction(2), Fraction(-3, 2), Fraction(5, 7)):
            assert bell_polynomial(m, 2, x) == x + x * x
        assert bell_polynomial(m, 2, 1) == 2

    def test_polynomial_row_zero_is_one(self):
        m = stirling_matrix(parse_word("d a a d d"), 2)
        assert bell_polynomial(m, 0, Fraction(9, 4)) == 1

    def test_polynomial_prefunction_row_sum(self):
        m = stirling_matrix(parse_word("d a d"), 2)
        assert bell_polynomial(m, 2, 1) == 7

    def test_row_out_of_range(self):
        m = stirling_matrix(parse_word("d a"), 2)
        with pytest.raises(RangeError):
            bell_polynomial(m, 3, 1)

    @pytest.mark.parametrize("text", ["1e2", " 2 ", "1_0"])
    def test_text_point_read_by_number_grammar(self, text):
        m = stirling_matrix(parse_word("d a"), 3)
        with pytest.raises(ValidationError):
            bell_polynomial(m, 3, text)

    def test_other_points_read_as_before(self):
        m = stirling_matrix(parse_word("d a"), 3)
        # B(3, x) = x + 3x² + x³
        for x, value in [("1/2", Fraction(11, 8)), (2, 22), (0.5, Fraction(11, 8)),
                         (Fraction(-1, 2), Fraction(1, 8))]:
            assert bell_polynomial(m, 3, x) == value


class TestClassifyWord:
    def test_pure_substitution(self):
        c = classify_word(parse_word("d a"))
        assert (c.kind, c.r, c.p) == ("pure-substitution", 1, 0)
        assert c.ends_with_a

    def test_substitution_with_prefunction(self):
        c = classify_word(parse_word("d a d"))
        assert (c.kind, c.r, c.p) == ("substitution-with-prefunction", 2, 1)
        assert not c.ends_with_a

    def test_trailing_creators_counted(self):
        c = classify_word(parse_word("a d d"))
        assert (c.kind, c.r, c.p) == ("substitution-with-prefunction", 2, 2)

    def test_not_single_annihilator(self):
        c = classify_word(parse_word("a d a"))
        assert c.kind == "not-single-annihilator"
        assert c.r is None and c.p is None
        assert c.ends_with_a

    def test_json_round_trip(self):
        c = classify_word(parse_word("d d a d"))
        assert WordClassification.from_json_obj(c.to_json_obj()) == c

    def test_kind_is_derived_from_r_and_p(self):
        assert [f.name for f in fields(WordClassification)] == ["r", "p", "ends_with_a"]
        assert WordClassification(r=None, p=None, ends_with_a=False).kind == (
            "not-single-annihilator"
        )
        assert WordClassification(r=0, p=0, ends_with_a=True).kind == "pure-substitution"
        assert WordClassification(r=3, p=2, ends_with_a=False).kind == (
            "substitution-with-prefunction"
        )

    @pytest.mark.parametrize(
        "r,p,ends_with_a",
        [(1, None, True), (None, 0, True), (1, 2, False), (1, -1, False),
         (2, 1, True), (2, 0, False)],
    )
    def test_impossible_decomposition_rejected(self, r, p, ends_with_a):
        with pytest.raises(ValidationError):
            WordClassification(r=r, p=p, ends_with_a=ends_with_a)

    @pytest.mark.parametrize(
        "r,p,ends_with_a,name",
        [(1.5, 0, True, "r"), (True, False, True, "r"), (1, 1.0, False, "p"),
         (2, 1, 0, "ends_with_a"), (None, None, 1, "ends_with_a")],
    )
    def test_field_types_rejected(self, r, p, ends_with_a, name):
        # Each of these would write JSON that from_json_obj rejects.
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            WordClassification(r=r, p=p, ends_with_a=ends_with_a)

    def test_first_column_unit_is_derived(self):
        assert "first_column_unit" not in [f.name for f in fields(WordClassification)]
        obj = classify_word(parse_word("d a")).to_json_obj()
        assert obj["first_column_unit"] is True
        obj["first_column_unit"] = False
        with pytest.raises(ValidationError):
            WordClassification.from_json_obj(obj)


class TestColumnEgf:
    def test_identity_column(self):
        s = column_egf(FiniteMatrix.identity(5), 2, 4)
        assert s == TruncatedSeries.from_coeffs([0, 0, Fraction(1, 2)], order=4)

    def test_stirling2_column_zero_is_one(self):
        m = stirling_matrix(parse_word("d a"), 4)
        assert column_egf(m, 0, 4) == TruncatedSeries.from_coeffs([1], 4)

    def test_stirling2_column_one(self):
        m = stirling_matrix(parse_word("d a"), 3)
        assert column_egf(m, 1, 3) == TruncatedSeries.from_coeffs(
            [0, 1, Fraction(1, 2), Fraction(1, 6)]
        )

    def test_truncated_stirling_columns_by_hand(self):
        m = truncate_rn(stirling_matrix(parse_word("d a"), 6), 6)
        for k in range(7):
            by_hand = TruncatedSeries(tuple(
                Fraction(row[k] if k < len(row) else 0, factorial(i))
                for i, row in enumerate(STIRLING2_ROWS)
            ))
            assert column_egf(m, k, 6) == by_hand

    def test_column_is_integers_over_the_denominator(self):
        assert stirling_matrix(parse_word("d a"), 3).column(2) == ([0, 0, 1, 3], 1)
        assert stirling_matrix(parse_word("d a"), 3).column(7) == ([0, 0, 0, 0], 1)
        m = FiniteMatrix.from_rows([[1, 0], [Fraction(1, 3), 1]])
        assert m.column(0) == ([3, 1], 3)
        assert column_egf(m, 0, 1) == TruncatedSeries.from_coeffs([1, Fraction(1, 3)])

    def test_insufficient_materialization(self):
        m = stirling_matrix(parse_word("d a"), 3)
        with pytest.raises(RangeError):
            column_egf(m, 0, 4)
        with pytest.raises(RangeError):
            column_egf(FiniteMatrix.identity(3), 1, 3)

    def test_column_out_of_range_for_finite_matrix(self):
        with pytest.raises(RangeError):
            column_egf(FiniteMatrix.identity(3), 3, 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            column_egf(FiniteMatrix.identity(3), 0, -1)
