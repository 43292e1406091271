"""Boson words, parsing, and exact normal ordering."""

from __future__ import annotations

import math
import pickle
import random
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonstirling import (
    BosonWord,
    NormalForm,
    ParseError,
    ValidationError,
    classify_word,
    double_dot,
    excess,
    multiply_normal_forms,
    normal_order,
    parse_word,
    word_power,
)

from oracles import all_words, rewrite_normal_order, x_power_action

EXAMPLE_WORD = "a a+ a a a+ a"  # a a† a a a† a


class TestParseWord:
    def test_letter_tokens(self):
        assert parse_word("d a").text == "da"

    def test_plus_suffix_synonym(self):
        assert parse_word(EXAMPLE_WORD).text == "adaada"

    def test_rs_vector_syntax(self):
        assert parse_word("rs:[2,1;1,2]").text == "ddadaa"

    def test_case_insensitive_and_compact(self):
        assert parse_word("DA") == parse_word("d a")
        assert parse_word("A+a") == parse_word("d a")

    def test_empty_text_is_identity_word(self):
        assert parse_word("") == BosonWord()
        assert parse_word("   ") == BosonWord()

    def test_unknown_token_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_word("a a b")
        assert exc.value.offset == 4

    def test_bare_plus_is_an_error(self):
        with pytest.raises(ParseError) as exc:
            parse_word("d +")
        assert exc.value.offset == 2

    def test_rs_negative_exponent(self):
        with pytest.raises(ValidationError):
            parse_word("rs:[1,-2]")

    def test_rs_malformed(self):
        with pytest.raises(ParseError):
            parse_word("rs:[1;2]")
        with pytest.raises(ParseError):
            parse_word("rs:[1,2")

    @pytest.mark.parametrize(
        "text,error,message,offset",
        [
            ("a a b", ParseError, "unknown token 'b'", 4),
            ("d +", ParseError, "unknown token '+'", 2),
            ("rs:", ParseError, "expected '[' after rs:", 3),
            ("rs: x", ParseError, "expected '[' after rs:", 4),
            ("rs:[,1]", ParseError, "expected integer", 4),
            ("rs:[-,1]", ParseError, "expected integer", 4),
            ("rs:[²,1]", ParseError, "expected integer", 4),
            ("rs:[1 ;2]", ParseError, "expected ',' between r and s", 6),
            ("rs:[1,2", ParseError, "expected ';' or ']'", 7),
            ("rs:[1,2]-3", ParseError, "trailing input '-'", 8),
            ("rs:[1,-2]", ValidationError, "negative exponent -2 in rs: form", None),
        ],
    )
    def test_error_contract(self, text, error, message, offset):
        with pytest.raises(error) as exc:
            parse_word(text)
        assert type(exc.value) is error
        if offset is None:
            assert str(exc.value) == message
        else:
            assert str(exc.value) == f"{message} (offset {offset})"
            assert exc.value.offset == offset

    def test_every_rejected_text_is_a_validation_error(self):
        """ParseError is a ValidationError, so one ``except`` catches every row
        of the error contract, ParseError rows included."""
        assert issubclass(ParseError, ValidationError)
        (contract,) = self.test_error_contract.pytestmark
        for text, error, _, _ in contract.args[1]:
            with pytest.raises(ValidationError):
                parse_word(text)

    @pytest.mark.parametrize("text", ["rs:[٣,1]", "rs:[1,１]", "rs:[+1,1]"])
    def test_rs_exponents_are_ascii_integers(self, text):
        with pytest.raises(ParseError, match="expected integer"):
            parse_word(text)

    def test_text_round_trip(self):
        w = parse_word("rs:[2,1;0,3;1,0]")
        assert parse_word(w.text) == w

    def test_rs_pairs_round_trip(self):
        for text in ("", "a", "d", "ad", "da", "aadd", "ddaada"):
            w = parse_word(text)
            assert BosonWord(w.runs) == w


class TestRuns:
    def test_only_field_is_runs(self):
        assert [f.name for f in fields(BosonWord)] == ["runs"]

    def test_equal_however_runs_are_given(self):
        w = BosonWord(((1, 0), (1, 0), (0, 0), (0, 2)))
        assert w == parse_word("dd aa")
        assert w.runs == ((2, 2),)
        assert BosonWord(((0, 0),)) == BosonWord()
        assert BosonWord(((0, 1), (0, 2), (3, 0), (1, 1))).runs == ((0, 3), (4, 1))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            BosonWord(((1, 1), (2, -1)))

    @pytest.mark.parametrize(
        "runs",
        [((1.5, 1),), ((2, 1.0),), (("2", 1),), "da", ((True, 1),), ((1, 2, 3),),
         ((1,),), ([1, 1],)],
        ids=repr,
    )
    def test_runs_must_be_pairs_of_ints(self, runs):
        # Unchecked, these construct and then break .text and normal_order,
        # or fail with TypeError or ValueError.
        with pytest.raises(ValidationError, match="is not a pair"):
            BosonWord(runs)

    @pytest.mark.parametrize("runs", [5, None, 1.5], ids=repr)
    def test_runs_must_be_a_sequence(self, runs):
        # Unchecked, these fail with TypeError: the object is not iterable.
        with pytest.raises(ValidationError, match="is not a sequence"):
            BosonWord(runs)

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValidationError):
            BosonWord.from_letters("dxa")

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5))
    def test_runs_match_letters(self, pairs):
        text = "".join("d" * r + "a" * s for r, s in pairs)
        w = BosonWord(pairs)
        assert w == BosonWord.from_letters(text)
        assert w.text == text and len(w) == len(text)
        assert (w.creator_count, w.annihilator_count) == (text.count("d"), text.count("a"))
        # Maximal runs: no empty pair, creators only lead and annihilators
        # only trail the whole word.
        assert all(r or s for r, s in w.runs)
        assert all(r for r, _ in w.runs[1:]) and all(s for _, s in w.runs[:-1])

    def test_huge_exponents_stored_as_runs(self, monkeypatch):
        big = 10**9
        monkeypatch.setattr(
            BosonWord, "text", property(lambda self: pytest.fail("letters expanded"))
        )
        w = parse_word(f"rs:[{big},1;1,{big}]")
        assert w.runs == ((big, 1), (1, big))
        assert len(w) == 2 * big + 2
        assert (w.creator_count, w.annihilator_count) == (big + 1, big + 1)
        assert excess(w) == 0
        c = classify_word(w)
        assert (c.kind, c.r, c.p, c.ends_with_a) == ("not-single-annihilator", None, None, True)
        c = classify_word(parse_word(f"rs:[{big},1;{big},0]"))
        assert (c.kind, c.r, c.p, c.ends_with_a) == (
            "substitution-with-prefunction", 2 * big, big, False
        )


class TestExcessAndPower:
    @pytest.mark.parametrize(
        "text,expected",
        [("d a", 0), ("d a d", 1), ("d a a d d", 1), ("a", -1), ("", 0)],
    )
    def test_excess(self, text, expected):
        assert excess(parse_word(text)) == expected

    def test_power_concatenates(self):
        w = parse_word("d a")
        assert word_power(w, 2).text == "dada"
        assert word_power(parse_word("d a d"), 3).text == "dad" * 3

    def test_power_zero_is_identity(self):
        assert word_power(parse_word("d a a"), 0) == BosonWord()

    def test_power_negative_rejected(self):
        with pytest.raises(ValidationError):
            word_power(parse_word("a"), -1)


class TestNormalOrder:
    def test_already_ordered(self):
        assert normal_order(parse_word("d a")).terms == {(1, 1): 1}

    def test_single_swap(self):
        assert normal_order(parse_word("a d")).terms == {(0, 0): 1, (1, 1): 1}

    def test_empty_word(self):
        assert normal_order(BosonWord()) == NormalForm.identity()

    def test_worked_example(self):
        # The source text prints 3 a†a³ here, but its own expansion two lines
        # earlier (2a² + 3a†a³ + a†(1+a†a)a³) collects to coefficient 4, and
        # the elementary rewriting oracle, the d/dx representation, and
        # sympy's normal ordering all agree on 4.
        nf = normal_order(parse_word(EXAMPLE_WORD))
        assert nf.terms == {(0, 2): 2, (1, 3): 4, (2, 4): 1}
        assert nf.terms == rewrite_normal_order(("a", "d", "a", "a", "d", "a"))

    @pytest.mark.parametrize("length", range(0, 7))
    def test_oracles_agree_on_monomials(self, length):
        # The two oracles share no code: the normal form from rewriting,
        # read through Σ c_{j,l}·m^(l), is the action of a = d/dx, a† = x.
        for letters in all_words(length):
            terms = rewrite_normal_order(letters)
            for m in range(length + 2):
                assert x_power_action(letters, m) == sum(
                    c * math.perm(m, l) for (_, l), c in terms.items()
                ), (letters, m)

    @pytest.mark.parametrize("length", range(0, 6))
    def test_matches_rewriting_oracle(self, length):
        for letters in all_words(length):
            w = BosonWord.from_letters(letters)
            assert normal_order(w).terms == rewrite_normal_order(letters), letters

    def test_positive_coefficients_and_constant_excess(self):
        rng = random.Random(20240811)
        for _ in range(50):
            letters = tuple(rng.choice("ad") for _ in range(rng.randint(1, 7)))
            w = BosonWord.from_letters(letters)
            nf = normal_order(w)
            d = excess(w)
            assert all(c > 0 for c in nf.terms.values())
            assert all(j - l == d for (j, l) in nf.terms)

    def test_power_homomorphism(self):
        rng = random.Random(99)
        for _ in range(20):
            letters = tuple(rng.choice("ad") for _ in range(rng.randint(1, 4)))
            w = BosonWord.from_letters(letters)
            n = rng.randint(0, 3)
            folded = NormalForm.identity()
            for _ in range(n):
                folded = multiply_normal_forms(folded, normal_order(w))
            assert normal_order(word_power(w, n)) == folded

    def test_unit_coefficient_at_letter_counts(self):
        rng = random.Random(7)
        for _ in range(30):
            letters = tuple(rng.choice("ad") for _ in range(rng.randint(0, 7)))
            w = BosonWord.from_letters(letters)
            assert normal_order(w).terms.get((w.creator_count, w.annihilator_count)) == 1


class TestDoubleDot:
    def test_worked_example(self):
        assert double_dot(parse_word(EXAMPLE_WORD)).terms == {(2, 4): 1}

    def test_empty_word(self):
        assert double_dot(BosonWord()).terms == {(0, 0): 1}

    def test_already_ordered(self):
        assert double_dot(parse_word("d a")).terms == {(1, 1): 1}

    @given(st.lists(st.sampled_from("ad"), max_size=8))
    def test_counts_letters(self, letters):
        w = BosonWord.from_letters(tuple(letters))
        (j, l), c = next(iter(double_dot(w).terms.items()))
        assert (j, l, c) == (w.creator_count, w.annihilator_count, 1)

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_equals_normal_order_on_segregated_words(self, j, l):
        w = BosonWord.from_letters(("d",) * j + ("a",) * l)
        assert double_dot(w) == normal_order(w)


class TestMultiplyNormalForms:
    def test_brute_force_example(self):
        p = NormalForm({(1, 1): 1})
        assert multiply_normal_forms(p, p).terms == rewrite_normal_order(
            ("d", "a", "d", "a")
        )
        assert multiply_normal_forms(p, p).terms == {(1, 1): 1, (2, 2): 1}

    def test_identity_element(self):
        p = NormalForm({(2, 1): 5, (0, 3): 2})
        e = NormalForm.identity()
        assert multiply_normal_forms(e, p) == p
        assert multiply_normal_forms(p, e) == p

    def test_single_commutation(self):
        out = multiply_normal_forms(NormalForm({(0, 1): 1}), NormalForm({(1, 0): 1}))
        assert out.terms == {(0, 0): 1, (1, 1): 1}

    def test_associative(self):
        rng = random.Random(3)
        for _ in range(20):
            forms = [
                normal_order(BosonWord.from_letters(rng.choice("ad") for _ in range(3)))
                for _ in range(3)
            ]
            a, b, c = forms
            left = multiply_normal_forms(multiply_normal_forms(a, b), c)
            right = multiply_normal_forms(a, multiply_normal_forms(b, c))
            assert left == right

    def test_bilinear_over_disjoint_sums(self):
        p = NormalForm({(1, 0): 2, (0, 1): 3})
        q = NormalForm({(1, 1): 1})
        out = multiply_normal_forms(p, q)
        out_a = multiply_normal_forms(NormalForm({(1, 0): 2}), q)
        out_b = multiply_normal_forms(NormalForm({(0, 1): 3}), q)
        merged = dict(out_a.terms)
        for key, val in out_b.terms.items():
            merged[key] = merged.get(key, 0) + val
        assert out.terms == merged


class TestNormalFormValue:
    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(ValidationError):
            NormalForm({(0, 0): 1.5})

    def test_rejects_non_integer_exponents(self):
        with pytest.raises(ValidationError, match="exponents"):
            NormalForm({(1.5, 0): 1})

    def test_rejects_boolean_coefficients(self):
        with pytest.raises(ValidationError, match="coefficient"):
            NormalForm({(0, 0): True})

    @pytest.mark.parametrize(
        "terms,message",
        [(5, "is not a mapping"), (None, "is not a mapping"), ([(1, 2)], "is not a mapping"),
         ({1: 2}, "is not a pair"), ({(1, 2, 3): 1}, "is not a pair")],
        ids=repr,
    )
    def test_rejects_unreadable_terms(self, terms, message):
        # Unchecked, these fail with TypeError or ValueError.
        with pytest.raises(ValidationError, match=message):
            NormalForm(terms)

    def test_drops_zero_coefficients(self):
        assert NormalForm({(0, 0): 1, (1, 1): 0}).terms == {(0, 0): 1}

    def test_sorted_ascending_in_j_then_l(self):
        nf = NormalForm({(2, 4): 1, (0, 2): 2, (1, 3): 4})
        assert [key for key, _ in nf.sorted_terms()] == [(0, 2), (1, 3), (2, 4)]

    def test_str_forms(self):
        assert str(NormalForm.identity()) == "1"
        assert str(NormalForm({})) == "0"
        nf = normal_order(parse_word(EXAMPLE_WORD))
        assert str(nf) == "2 (a†)^0 a^2 + 4 (a†)^1 a^3 + 1 (a†)^2 a^4"

    def test_frozen_value(self):
        nf = normal_order(parse_word(EXAMPLE_WORD))
        assert [f.name for f in fields(NormalForm)] == ["terms"]
        with pytest.raises(FrozenInstanceError):
            nf.terms = {(9, 9): 1}
        copy = pickle.loads(pickle.dumps(nf))
        assert copy == nf and hash(copy) == hash(nf)
        assert hash(NormalForm({(1, 1): 2, (0, 0): 1})) == hash(NormalForm({(0, 0): 1, (1, 1): 2}))

    def test_terms_are_read_only(self):
        nf = normal_order(parse_word(EXAMPLE_WORD))
        before = hash(nf)
        with pytest.raises(TypeError):
            nf.terms[(9, 9)] = 1
        with pytest.raises(TypeError):
            del nf.terms[(0, 2)]
        assert (9, 9) not in nf.terms and hash(nf) == before

    def test_json_round_trip(self):
        nf = normal_order(parse_word("a d a d"))
        obj = nf.to_json_obj()
        assert all(isinstance(t["coeff"], str) for t in obj)
        assert NormalForm.from_json_obj(obj) == nf
        with pytest.raises(ValidationError, match=r"duplicate \(j, l\) pair"):
            NormalForm.from_json_obj(obj + obj[:1])


@settings(max_examples=60)
@given(st.lists(st.sampled_from("ad"), max_size=6))
def test_oracle_equivalence_property(letters):
    w = BosonWord.from_letters(tuple(letters))
    assert normal_order(w).terms == rewrite_normal_order(tuple(letters))
