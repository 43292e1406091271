"""The paper's theorem for every one-annihilator word, by one finite check per order.

The words are w_{r,p} = (a†)^(r−p) a (a†)^p with r ≥ 1 and 0 ≤ p ≤ r.  The
theorem says that r_N of the Stirling matrix S of each of them passes the
substitution test, at every order N.  At a fixed order N this is a finite
check:

* N(w_{r,p}) = (a†)^r a + p·(a†)^(r−1).  Applying it on the left of
  (a†)^(n(r−1)+k) a^k gives the row step

      S(n+1,k) = S(n,k−1) + (n(r−1) + k + p)·S(n,k),    S(0,0) = 1,

  so S(n,k) = 0 for k > n, S(n,n) = 1, and S(n,k) is a polynomial in
  (r, p) of total degree at most n−k, the factor being affine.
* The step (k, i) equation of ``truncate_rn(S, N)``, k = 1..N−2 and
  i = k+2..N, reads (k+1)·Σ_j C(i,j)·M[j,0]·M[i−j,k+1] =
  Σ_j C(i,j)·M[j,k]·M[i−j,1].  Each product has total degree at most
  i−k−1, so each equation is a polynomial identity of degree at most
  D = N−2.  Unipotence holds for every (r, p).
* A polynomial of degree at most D in each of two variables that vanishes
  on a grid S₁×S₂ with |S₁|, |S₂| ≥ D+1 is zero (induction on the
  variables; Alon, Combinatorial Nullstellensatz, 1999).  The grid here is
  p ∈ {0..D} and r ∈ {D..2D}; each point is a word, since p ≤ D ≤ r.
* So a pass at the (D+1)² grid words proves every step equation for every
  (r, p): the theorem at order N for the whole family.  It also proves
  every order below N, whose step equations are a subset of order N's.

The check compares each grid word's ``stirling_matrix`` with the row step,
so the verdict sees the polynomials' values there; the verdict is the
library's kernel, and for small orders also ``tests/oracles.py``'s
term-by-term step oracle, so the proof does not rest on the fast kernel
alone.  Columns 0 and 1 are compared with the closed-form pair of
Blasiak, Penson and Solomon: column 0 is ∏_{j<i}(j(r−1) + p), of degree
i, and column 1 has degree i−1, so rows 0..N are compared on the grid of
order N+2, p ∈ {0..N} and r ∈ {N..2N}, which proves the closed form's
columns through row N for the whole family.

A negative control pins the grid's size, which no mutation of the library
can check since every grid word passes: adding ∏_{t<D}(p−t), of degree D,
to M[N,2] changes only step (1, N), so that family passes on p ∈ {0..D−1}
and fails on the full grid, at p = D.

The hypothesis is sharp up to the adjoint.  The library writes
w^n = Σ_k S(n,k)·(a†)^(k+n·d⁺)·a^(k+n·d⁻), with d the excess, d⁺ = max(d, 0)
and d⁻ = max(−d, 0).  Since (w^n)† = (w†)^n, and the adjoint swaps the two
exponents of a monomial and the sign of d, S_w = S_{w†} for every word.
So the one-creator word a^(s−q) a† a^q has the matrix of the family's word
w_{s, s−q}, and passes too; the check compares the two on the grid of
order N.  The atlas takes every word of length 1..9 with an annihilator, at
order 9: the words with one annihilator or one creator, and at least one of
the other letter, pass, and every other word has a diagonal entry other
than 1 by row 2, which the verdict rejects.  That bound on the length is
measured, not proven: no proof yet shows that every word with at least two
of each letter has S(n,n) ≠ 1 for some n ≤ 2.
"""

from __future__ import annotations

from math import factorial, prod

import pytest

from bosonstirling import (
    BosonWord,
    FiniteMatrix,
    ValidationError,
    is_approximate_substitution,
    parse_word,
    stirling_matrix,
    truncate_rn,
)

from oracles import all_words, closed_form_pair, first_failing_step

#: The order certified in tier-1; every order below it follows.
ORDER = 20

#: Orders also certified by the term-by-term step oracle.
ORACLE_ORDERS = range(3, 13)

#: The atlas's longest word, and its order.
ATLAS_LENGTH = 9


def _grid(order: int) -> list[tuple[int, int]]:
    """The (r, p) of the (D+1)² grid words of `order`, D = order − 2."""
    d = order - 2
    return [(r, p) for r in range(d, 2 * d + 1) for p in range(d + 1)]


def _word(r: int, p: int):
    return parse_word(f"rs:[{r - p},1;{p},0]")


def _row_step(r: int, p: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..order of S for w_{r,p}, by the row step."""
    rows = [(1,)]
    for n in range(order):
        prev = rows[-1] + (0,)
        rows.append(tuple(
            (prev[k - 1] if k else 0) + (n * (r - 1) + k + p) * prev[k]
            for k in range(n + 2)
        ))
    return tuple(rows)


def _family(r: int, p: int, order: int) -> FiniteMatrix:
    """r_order of w_{r,p}'s Stirling matrix, checked against the row step."""
    m = stirling_matrix(_word(r, p), order)
    assert m.rows == _row_step(r, p, order), (r, p)
    return truncate_rn(m, order)


def _perturbed(r: int, p: int, order: int) -> FiniteMatrix:
    """The row-step matrix with ∏_{t<D}(p−t) added to M[order, 2]."""
    rows = [list(row) + [0] * (order - i) for i, row in enumerate(_row_step(r, p, order))]
    rows[order][2] += prod(p - t for t in range(order - 2))
    return FiniteMatrix(rows)


def _failures(matrix_of, order: int, p_max: int | None = None) -> list[tuple[int, int]]:
    """The grid points of `order`, with p ≤ p_max if given, whose matrix fails."""
    return [
        (r, p) for r, p in _grid(order)
        if (p_max is None or p <= p_max)
        and not is_approximate_substitution(matrix_of(r, p, order)).verdict
    ]


def test_grid_is_words_of_the_lemmas_size():
    for order in (3, ORDER):
        d = order - 2
        grid = _grid(order)
        assert len(grid) == len(set(grid)) == (d + 1) ** 2
        assert all(1 <= r and 0 <= p <= r for r, p in grid)
        assert {p for _, p in grid} == set(range(d + 1))
        assert len({r for r, _ in grid}) == d + 1


def test_every_word_passes_at_the_order():
    assert _failures(_family, ORDER) == []


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_step_oracle_certifies_small_orders(order):
    for r, p in _grid(order):
        assert first_failing_step(_family(r, p, order).numerators) is None, (r, p)


def test_columns_0_and_1_are_the_closed_form():
    """Rows 0..ORDER of columns 0 and 1, on the grid of order ORDER + 2."""
    for r, p in _grid(ORDER + 2):
        g, phi = closed_form_pair(r, p, ORDER)
        g_phi = [sum(g[j] * phi[i - j] for j in range(i + 1)) for i in range(ORDER + 1)]
        m = stirling_matrix(_word(r, p), ORDER)
        for i in range(ORDER + 1):
            assert m.entry(i, 0) == factorial(i) * g[i], (r, p, i)
            assert m.entry(i, 1) == factorial(i) * g_phi[i], (r, p, i)


@pytest.mark.parametrize("order", [3, 8])
def test_negative_control_needs_the_whole_grid(order):
    d = order - 2
    assert _failures(_perturbed, order, p_max=d - 1) == []
    failures = _failures(_perturbed, order)
    assert failures and {p for _, p in failures} == {d}


def test_adjoint_has_the_same_matrix():
    """r_N(S_w) = r_N(S_{w†}) for w = a^(s−q) a† a^q, on the grid of order N."""
    for s, q in _grid(ORDER):
        adjoint = parse_word(f"rs:[0,{s - q};1,{q}]")
        assert truncate_rn(stirling_matrix(adjoint, ORDER), ORDER) == _family(s, s - q, ORDER)


def test_atlas_of_short_words():
    """Every word of length 1..ATLAS_LENGTH with an annihilator, at order
    ATLAS_LENGTH: exactly the words with one annihilator or one creator, and
    at least one of the other letter, pass; every other word is rejected
    for a diagonal entry other than 1 by row 2."""
    passed = rejected = 0
    for length in range(1, ATLAS_LENGTH + 1):
        for letters in all_words(length):
            w = BosonWord.from_letters(letters)
            if not w.annihilator_count:
                continue
            m = stirling_matrix(w, ATLAS_LENGTH)
            if 1 in (w.annihilator_count, w.creator_count) and len(w) > 1:
                assert is_approximate_substitution(truncate_rn(m, ATLAS_LENGTH)).verdict, letters
                passed += 1
            else:
                assert any(m.entry(i, i) != 1 for i in range(3)), letters
                with pytest.raises(ValidationError, match="unit diagonal"):
                    is_approximate_substitution(truncate_rn(m, ATLAS_LENGTH))
                rejected += 1
    assert (passed, rejected) == (86, 927)
