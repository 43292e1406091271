"""Truncated EGF arithmetic with exact rationals."""

from __future__ import annotations

import copy
import pickle
from dataclasses import fields
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonstirling import RangeError, TruncatedSeries, ValidationError
from bosonstirling.series import _egf_product, _egf_quotient, _over_lcm

from oracles import FractionSeries, _series_divide, _series_multiply, geometric_inverse_coeffs


def series(*coeffs, order=None):
    return TruncatedSeries.from_coeffs([Fraction(c) for c in coeffs], order)


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def series_strategy(max_order=12):
    return st.integers(min_value=0, max_value=max_order).flatmap(
        lambda n: st.lists(rationals, min_size=n + 1, max_size=n + 1).map(
            lambda cs: TruncatedSeries(tuple(cs))
        )
    )


class TestConstruction:
    def test_stores_exactly_order_plus_one_coefficients(self):
        s = series(1, 2, order=4)
        assert s.order == 4
        assert s.coeffs == (1, 2, 0, 0, 0)

    def test_rejects_too_many_coefficients(self):
        # The count is checked before any coefficient is read.
        for coeffs in [[1, 2, 3], ["1", "2", "3"], ["1", "2", "x"]]:
            with pytest.raises(ValidationError, match="^3 coefficients exceed order 1$"):
                TruncatedSeries.from_coeffs(coeffs, order=1)

    @pytest.mark.parametrize(
        "build",
        [lambda: TruncatedSeries.from_egf_entries(["x"], 0),
         lambda: TruncatedSeries.from_coeffs(["x"], 3, 0)],
        ids=["from_egf_entries", "from_coeffs"],
    )
    def test_denominator_checked_before_any_value(self, build):
        with pytest.raises(RangeError, match="^denominator must be at least 1, got 0$"):
            build()

    def test_from_coeffs_builds_one_series(self, count_series):
        built = count_series()
        s = TruncatedSeries.from_coeffs(["1", "1/2"], 5, 3)
        assert built == [1]
        assert s.coeffs == (Fraction(1, 3), Fraction(1, 6), 0, 0, 0, 0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError, match="serialized order"):
            TruncatedSeries.from_json_obj({"order": 2, "coeffs": ["1"]})

    def test_rejects_no_coefficients(self):
        with pytest.raises(ValidationError):
            TruncatedSeries(())

    def test_json_rejects_no_coefficients(self):
        with pytest.raises(ValidationError, match="a series needs at least one coefficient"):
            TruncatedSeries.from_json_obj({"order": 0, "coeffs": []})

    def test_equality_includes_order(self):
        assert series(1, order=2) != series(1, order=3)

    def test_stores_entries_over_one_denominator(self):
        assert [f.name for f in fields(TruncatedSeries)] == ["entries", "denominator"]
        s = TruncatedSeries((1, 0, Fraction(2, 3)))
        assert (s.entries, s.denominator, s.order) == ((3, 0, 4), 3, 2)

    @pytest.mark.parametrize("text", ["1e3", " 2 ", "1_0"])
    def test_text_coefficient_read_by_number_grammar(self, text):
        with pytest.raises(ValidationError):
            TruncatedSeries(("1", text))

    @pytest.mark.parametrize(
        "build",
        [lambda: TruncatedSeries("15"), lambda: TruncatedSeries(b"15"),
         lambda: TruncatedSeries(15), lambda: TruncatedSeries(None),
         lambda: TruncatedSeries.from_coeffs(5), lambda: TruncatedSeries.from_coeffs("15")],
        ids=["str", "bytes", "int", "None", "from_coeffs-int", "from_coeffs-str"],
    )
    def test_text_or_non_iterable_coefficients_rejected(self, build):
        # Unchecked, text is read character by character, 1 + 5x for "15",
        # and an int fails with TypeError: the object is not iterable.
        with pytest.raises(ValidationError, match="coefficients must be a sequence"):
            build()

    def test_any_iterable_of_coefficients_accepted(self):
        s = series(1, 5)
        assert TruncatedSeries([1, 5]) == TruncatedSeries(c for c in (1, 5)) == s
        assert TruncatedSeries.from_coeffs(c for c in (1, 5)) == s

    def test_other_coefficients_read_as_before(self):
        s = TruncatedSeries(("1/2", 3, Fraction(1, 3), 0.25, "-0.5"))
        assert s.coeffs == (
            Fraction(1, 2), 3, Fraction(1, 3), Fraction(1, 4), Fraction(-1, 2)
        )


# Negative, zero and non-integer coefficients, some given as text.
coefficients = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=30),
    st.fractions(min_value=-3, max_value=3, max_denominator=8).map(str),
)


class TestAgainstFractionSeries:
    """The stored integer form against the one-Fraction-per-coefficient oracle."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(coefficients, min_size=1, max_size=12), st.integers(1, 60))
    def test_every_construction_agrees(self, coeffs, factor):
        oracle = FractionSeries(coeffs)
        # Coefficients N/D and entries E/q over common denominators, each
        # multiplied through by `factor`, so that neither input is reduced.
        d = lcm(*[c.denominator for c in oracle.coeffs])
        numerators = [c.numerator * (d // c.denominator) * factor for c in oracle.coeffs]
        entries = oracle.egf_entries()
        q = lcm(*[v.denominator for v in entries])
        built = [
            TruncatedSeries(coeffs),
            TruncatedSeries.from_coeffs(numerators, oracle.order, d * factor),
            TruncatedSeries.from_egf_entries(
                [v.numerator * (q // v.denominator) * factor for v in entries], q * factor),
            TruncatedSeries.from_egf_entries(entries),
            TruncatedSeries.from_json_obj(oracle.to_json_obj()),
        ]
        for s in built:
            assert s.coeffs == oracle.coeffs and s.order == oracle.order
            assert s.egf_entries() == entries
            assert str(s) == str(oracle)
            assert s.to_json_obj() == oracle.to_json_obj()
            assert s.denominator >= 1 and gcd(s.denominator, *s.entries) == 1
            assert s == built[0] and hash(s) == hash(built[0])
            for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
                assert twin == s and hash(twin) == hash(s) and str(twin) == str(s)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(*[st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2), "2/4", "-0.5"]),
                      min_size=1, max_size=3)] * 2)
    def test_equality_and_hash_agree(self, a, b):
        equal = TruncatedSeries(a) == TruncatedSeries(b)
        assert equal == (FractionSeries(a) == FractionSeries(b))
        assert not equal or hash(TruncatedSeries(a)) == hash(TruncatedSeries(b))


class TestEgfEntries:
    def test_entries_are_factorial_multiples(self):
        s = series(1, Fraction(1, 2), 1, Fraction(-1, 4))
        assert s.egf_entries() == [1, Fraction(1, 2), 2, Fraction(-3, 2)]
        assert TruncatedSeries.from_egf_entries(s.egf_entries()) == s

    def test_common_denominator(self):
        assert TruncatedSeries.from_egf_entries([3, 3, 6], 3) == series(1, 1, 1)
        assert TruncatedSeries.from_egf_entries([2, 1], 4) == series(Fraction(1, 2), Fraction(1, 4))


class TestOverLcm:
    def test_vectors_come_back_in_order_over_the_lcm(self):
        kept = [5, -5]
        vectors, d = _over_lcm([([1, 2], 2), (kept, 6), ([], 4), ([1], 3)])
        assert (vectors, d) == ([[6, 12], [10, -10], [], [4]], 12)
        # A vector already over the LCM comes back as it is.
        assert _over_lcm([([1], 2), (kept, 6), ([1], 3)])[0][1] is kept
        assert _over_lcm([]) == ([], 1)


class TestMultiply:
    def test_difference_of_squares(self):
        a = series(1, 1, order=2)
        b = series(1, -1, order=2)
        assert a.multiply(b) == series(1, 0, -1)

    def test_unit(self):
        s = series(3, 1, 4)
        assert s.multiply(series(1, order=2)) == s

    def test_x_squared(self):
        x = series(0, 1, order=3)
        assert x.multiply(x) == series(0, 0, 1, order=3)

    def test_order_is_minimum(self):
        assert series(1, order=5).multiply(series(1, order=3)).order == 3


class TestInvert:
    def test_geometric_oracle(self):
        assert series(1, 1, order=3).invert() == TruncatedSeries.from_coeffs(
            geometric_inverse_coeffs(1, 3)
        )
        assert series(1, 3, order=5).invert() == TruncatedSeries.from_coeffs(
            geometric_inverse_coeffs(3, 5)
        )

    def test_one_is_self_inverse(self):
        assert series(1, order=4).invert() == series(1, order=4)

    def test_constant(self):
        assert series(2).invert() == series(Fraction(1, 2))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series(0, 1, order=3).invert()

    @pytest.mark.parametrize("coeffs", [
        (-1, 1, 1, 1),
        (-2, Fraction(1, 3), 5, Fraction(-1, 7), 2),
        (Fraction(3, 4), -2, 0, Fraction(1, 5), 0, 1),
        (Fraction(-5, 6), Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5)),
    ], ids=["negative", "negative-rational", "rational", "negative-fraction"])
    def test_series_times_its_inverse_is_one(self, coeffs):
        # A negative or fractional constant term, and coefficients whose
        # inverse's denominators grow term by term.
        s = series(*coeffs)
        assert s.multiply(s.invert()) == series(1, order=s.order)


class TestRendering:
    def test_str(self):
        assert str(series(1, -1, Fraction(1, 2))) == "1 - x + 1/2 x^2"
        assert str(series(order=3)) == "0"
        assert str(series(0, 1, 0, Fraction(-1, 6))) == "x - 1/6 x^3"

    def test_each_coefficient_reduced_with_its_sign(self):
        s = series(-3, 0, 0, Fraction(1, 2))
        assert (s.entries, s.denominator) == ((-3, 0, 0, 3), 1)
        assert str(s) == "-3 + 1/2 x^3"
        assert s.to_json_obj()["coeffs"] == ["-3", "0", "0", "1/2"]

    def test_json_round_trip(self):
        s = series(1, Fraction(-2, 3), 0, 5)
        obj = s.to_json_obj()
        assert obj == {"order": 3, "coeffs": ["1", "-2/3", "0", "5"]}
        assert TruncatedSeries.from_json_obj(obj) == s


@settings(max_examples=80)
@given(series_strategy(), series_strategy())
def test_multiplication_commutes(a, b):
    assert a.multiply(b) == b.multiply(a)


@settings(max_examples=60)
@given(series_strategy(8), series_strategy(8), series_strategy(8))
def test_multiplication_associates(a, b, c):
    assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


@settings(max_examples=80)
@given(series_strategy(), st.integers(1, 60))
def test_egf_entries_round_trip(a, d):
    assert TruncatedSeries.from_egf_entries(a.egf_entries()) == a
    assert TruncatedSeries.from_egf_entries([d * v for v in a.egf_entries()], d) == a


@settings(max_examples=80)
@given(series_strategy())
def test_invert_is_two_sided(a):
    if a.coeffs[0] == 0:
        with pytest.raises(ZeroDivisionError):
            a.invert()
        return
    inv = a.invert()
    assert a.multiply(inv) == series(1, order=a.order)
    assert inv.multiply(a) == series(1, order=a.order)


@settings(max_examples=60)
@given(series_strategy(8), series_strategy(8), st.integers(0, 8))
def test_truncation_commutes_with_product(a, b, m):
    m = min(m, a.order, b.order)
    direct = a.multiply(b).coeffs[: m + 1]
    pre = TruncatedSeries(a.coeffs[: m + 1]).multiply(TruncatedSeries(b.coeffs[: m + 1]))
    assert direct == pre.coeffs


@settings(max_examples=80)
@given(series_strategy(), series_strategy(), st.integers(0, 12))
def test_multiply_matches_oracle(a, b, lo):
    n = min(a.order, b.order)
    assert list(a.multiply(b).coeffs) == _series_multiply(
        list(a.coeffs[: n + 1]), list(b.coeffs[: n + 1])
    )
    # The kernel on integer EGF entries, with a vanishing below lo.
    lo = min(lo, n)
    product = _egf_product([0] * lo + list(a.entries[lo : n + 1]), b.entries, lo)
    expected = _series_multiply([0] * lo + list(a.coeffs[lo : n + 1]), list(b.coeffs[: n + 1]))
    egf = FractionSeries(expected).egf_entries()
    assert [Fraction(v, a.denominator * b.denominator) for v in product] == egf


@settings(max_examples=80)
@given(series_strategy(), st.sampled_from([1, -1, 3, Fraction(-2, 5)]),
       st.lists(rationals, min_size=13, max_size=13))
def test_invert_matches_oracle(a, constant, numerator):
    a = TruncatedSeries((constant,) + a.coeffs[1:])
    one = [Fraction(1)] + [Fraction(0)] * a.order
    assert list(a.invert().coeffs) == _series_divide(one, list(a.coeffs))
    # The kernel on integer EGF entries, run to its last pair: Q = b/a
    # reads a.entries ⊛ (d_b·Q) = d_a·b.entries, with d_a and d_b the two
    # denominators.
    b = TruncatedSeries(tuple(numerator[: a.order + 1]))
    pairs = zip([a.denominator * v for v in b.entries], a.entries)
    *_, (numerators, d) = _egf_quotient(pairs, a.order)
    egf = FractionSeries(_series_divide(list(b.coeffs), list(a.coeffs))).egf_entries()
    assert [Fraction(v, d * b.denominator) for v in numerators] == egf


#: Fractions p/q with |p| ≤ 6 and q ≤ 6, drawn as two integers, which is
#: far cheaper than ``st.fractions``.
_QUICK_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def sparse_quotients(draw):
    """(a, b): a series a of order 0–16 with a nonzero constant term and
    1–6 leading coefficients, the rest zero (a zero tail, and interior
    zeros), and a dense b of the same order."""
    order = draw(st.integers(0, 16))
    constant = draw(st.sampled_from([1, -1, 3, Fraction(-2, 5)]))
    lead = draw(st.lists(st.one_of(st.just(Fraction(0)), _QUICK_RATIONALS), max_size=5))
    a = TruncatedSeries.from_coeffs([constant, *lead][: order + 1], order)
    b = draw(st.lists(_QUICK_RATIONALS, min_size=order + 1, max_size=order + 1))
    return a, TruncatedSeries(b)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sparse_quotients())
def test_quotient_by_a_sparse_denominator_matches_oracle(pair):
    """The quotient reads den up to its last nonzero entry and gives the
    oracle's Q, run to its last pair and through invert."""
    a, b = pair
    one = [Fraction(1)] + [Fraction(0)] * a.order
    assert list(a.invert().coeffs) == _series_divide(one, list(a.coeffs))
    pairs = zip([a.denominator * v for v in b.entries], a.entries)
    *_, (numerators, d) = _egf_quotient(pairs, a.order)
    egf = FractionSeries(_series_divide(list(b.coeffs), list(a.coeffs))).egf_entries()
    assert [Fraction(v, d * b.denominator) for v in numerators] == egf
