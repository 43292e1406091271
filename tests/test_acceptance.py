"""Acceptance gate: every criterion as a dedicated test with a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All tolerances are exact (integer/rational equality) except the
stated wall-clock budgets.

Criterion 2 pins the oracle-verified expansion of a a† a a a† a, with
coefficient 4 at (a†)^1 a^3.  The source text prints 3 there by an
arithmetic slip: its own intermediate expansion collects to 4, and the
Weyl relation by hand, the single-swap rewriting oracle and the action of
a = d/dx, a† = x on x^m all give 4.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from bosonstirling import (
    BosonWord,
    FiniteMatrix,
    NormalForm,
    TruncatedSeries,
    bell_numbers,
    build_substitution_matrix,
    double_dot,
    is_approximate_substitution,
    multiply_normal_forms,
    normal_order,
    parse_word,
    probability_bound,
    random_unipotent,
    run_experiment,
    stirling_matrix,
    trial_stream,
    truncate_rn,
    truncate_taun,
    word_power,
)
from bosonstirling import ExperimentConfig

from oracles import all_words, matrix_product, rewrite_normal_order, x_power_action
from tables import PREFUNCTION_ROWS, STIRLING2_ROWS, WIDE_STAIRCASE_ROWS


def _report(number: int, detail: str = "") -> None:
    line = f"[criterion {number:2d}] PASS"
    print(f"{line}  {detail}" if detail else line)


def test_criterion_1_golden_tables():
    started = time.perf_counter()
    assert list(stirling_matrix(parse_word("d a"), 6).rows) == STIRLING2_ROWS
    assert list(stirling_matrix(parse_word("d a d"), 6).rows) == PREFUNCTION_ROWS
    assert list(stirling_matrix(parse_word("d a a d d"), 4).rows) == WIDE_STAIRCASE_ROWS
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden tables took {elapsed:.3f}s, budget is 1s"
    _report(1, f"three golden tables exact in {elapsed:.3f}s")


def test_criterion_2_worked_examples():
    w = parse_word("a a+ a a a+ a")
    assert double_dot(w).terms == {(2, 4): 1}
    actual = normal_order(w).terms
    assert actual == rewrite_normal_order(w.text)
    # With D = a, X = a† and D X = X D + 1:
    #   D X D D X D = X D³ X D + D² X D,
    #   X D³ X D = X² D⁴ + 3 X D³,  D² X D = X D³ + 2 D²,
    # so the word is X² D⁴ + 4 X D³ + 2 D².  The source prints 3 X D³; its
    # own expansion 2a² + 3a†a³ + a†(1 + a†a)a³ collects to 4, so the 3 is
    # an arithmetic slip.
    pinned = {(0, 2): 2, (1, 3): 4, (2, 4): 1}
    assert actual == pinned
    # Second oracle, independent of the library: on x^m the normal form acts
    # as Σ c_{j,l}·m^(l).  Falling factorials of degree ≤ 4 are linearly
    # independent on m = 0..7, so these values fix every pinned coefficient.
    for m in range(8):
        assert x_power_action(w.text, m) == sum(
            c * math.perm(m, l) for (_, l), c in pinned.items()
        ), m
    _report(2, "normal ordering and double dot of the worked example")


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for length in range(1, 7):
        for letters in all_words(length):
            w = BosonWord.from_letters(letters)
            assert normal_order(w).terms == rewrite_normal_order(letters), letters
            checked += 1
    assert checked == 126
    for text in ("d a", "d a d"):
        w = parse_word(text)
        for n in range(0, 5):
            wn = word_power(w, n)
            assert normal_order(wn).terms == rewrite_normal_order(wn.text)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.3f}s, budget is 10s"
    _report(3, f"126 words + powers against the rewriting oracle in {elapsed:.2f}s")


def test_criterion_4_size3_theorem():
    successes = 0
    for trial in range(1000):
        m = random_unipotent(3, 10**6, trial_stream(20240800, trial))
        if is_approximate_substitution(m).verdict:
            successes += 1
    assert successes == 1000
    _report(4, "1000/1000 random 3x3 unipotent matrices satisfy the condition")


def test_criterion_5_round_trip():
    rng = random.Random(20240805)
    for _ in range(200):
        size = rng.randint(4, 8)
        order = size - 1
        g = TruncatedSeries.from_coeffs(
            [1] + [rng.randint(-5, 5) for _ in range(order)], order
        )
        phi = TruncatedSeries.from_coeffs(
            [0, 1] + [rng.randint(-5, 5) for _ in range(order - 1)], order
        )
        built = build_substitution_matrix(g, phi, size)
        report = is_approximate_substitution(built)
        assert report.verdict
        assert report.extracted_g == g
        assert report.extracted_phi == phi
    _report(5, "200 build-then-check round trips with exact extraction")


def test_criterion_6_single_annihilator_words():
    # Words of length <= 4 with exactly one annihilator and at least one
    # creator; the bare word "a" is excluded because its truncations are not
    # unipotent, so the condition is undefined for it.
    words = []
    for length in (2, 3, 4):
        for position in range(length):
            letters = ["d"] * length
            letters[position] = "a"
            words.append(BosonWord.from_letters(tuple(letters)))
    assert len(words) == 9
    for w in words:
        matrix = stirling_matrix(w, 8)
        for order in range(2, 9):
            report = is_approximate_substitution(truncate_rn(matrix, order))
            assert report.verdict, (w.text, order)
    _report(6, "9 single-annihilator words pass at truncation orders 2..8")


def test_criterion_7_probability_bound():
    started = time.perf_counter()
    assert probability_bound(3, 10) == 1
    assert probability_bound(4, 10) == Fraction(1, 10)
    assert probability_bound(4, 100) == Fraction(1, 100)
    result = run_experiment(
        ExperimentConfig(size=4, draws=10_000, range_r=10, seed=20240807)
    )
    lo, hi = result.wilson_95
    assert lo <= Fraction(1, 10)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"experiment took {elapsed:.1f}s, budget is 60s"
    _report(
        7,
        f"bounds exact; size-4 experiment estimate {float(result.estimate):.4f} "
        f"(wilson lower {float(lo):.4f}) <= 1/10 in {elapsed:.1f}s",
    )


def test_criterion_8_truncation_morphism():
    rng = random.Random(20240808)

    def random_lower_triangular(size):
        return FiniteMatrix.from_rows(
            [
                [
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if k <= i else 0
                    for k in range(size)
                ]
                for i in range(size)
            ]
        )

    for _ in range(500):
        size = rng.randint(2, 8)
        n = rng.randint(0, size - 1)
        a = random_lower_triangular(size)
        b = random_lower_triangular(size)
        assert truncate_taun(matrix_product(a, b), n) == matrix_product(
            truncate_taun(a, n), truncate_taun(b, n)
        )

    pinned = FiniteMatrix.from_rows([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert truncate_rn(matrix_product(pinned, pinned), 1) != matrix_product(
        truncate_rn(pinned, 1), truncate_rn(pinned, 1)
    )
    _report(8, "500 lower-triangular pairs morphic; pinned counterexample holds")


def test_criterion_9_projective_consistency():
    rng = random.Random(20240809)
    words = []
    while len(words) < 10:
        letters = tuple(rng.choice("ad") for _ in range(rng.randint(1, 4)))
        words.append(BosonWord.from_letters(letters))
    for w in words:
        matrices = [stirling_matrix(w, n) for n in range(9)]
        for n in range(9):
            for m in range(n + 1):
                assert matrices[n].rows[: m + 1] == matrices[m].rows, (w.text, m, n)
    _report(9, "10 random words consistent across truncations m <= n <= 8")


def test_criterion_10_bell_sequence():
    m = stirling_matrix(parse_word("d a"), 6)
    assert bell_numbers(m) == [1, 1, 2, 5, 15, 52, 203]
    _report(10, "row sums through n = 6")
