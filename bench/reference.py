"""Exact references the benchmark checks the program's outputs against.

Nothing here imports ``bosonstirling``: every expected value is derived by
a different route than the program takes, so a checker that agrees with the
program is evidence, not an echo.

* Monte Carlo: the trial draws are recounted from numpy Philox streams keyed
  by (seed, trial), and each verdict comes from the division-free column
  recurrence of exponential Riordan arrays, not from series inversion.
* Normal ordering and Stirling rows: the word acts on x^m with a = d/dx and
  a† = x, and Newton forward differences in m recover the coefficients.
* Substitution matrices: columns are built by c_{k+1} = c_k·φ/(k+1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

import numpy as np

ANNIHILATOR = "a"
CREATOR = "d"


# ---------------------------------------------------------------------------
# Monte Carlo


def draw_matrix(seed: int, trial: int, size: int, range_r: int) -> list[list[int]]:
    """One trial's unipotent matrix: the strict lower triangle is drawn from
    {1..range_r} in row-major order on the Philox stream keyed by (seed, trial)."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
    )
    values = rng.integers(1, range_r, size=size * (size - 1) // 2, endpoint=True).tolist()
    rows, pos = [], 0
    for i in range(size):
        rows.append(values[pos:pos + i] + [1] + [0] * (size - 1 - i))
        pos += i
    return rows


@cache
def _binomials(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(comb(i, j) for j in range(i + 1)) for i in range(n + 1))


def passes(m) -> bool:
    """Exact substitution verdict of a unipotent matrix, with early exit.

    With c_k the column-k EGF and n = size − 1, the matrix passes exactly
    when c_0·(k+1)·c_{k+1} ≡ c_k·c_1 (mod x^{n+1}) for k = 1..n−1: multiply
    the identities c_k = c_0·φ^k/k! for forward, and induct on k with
    c_{k+1} = c_k·φ/(k+1), φ = c_1/c_0, for backward.  Coefficient i of the
    EGF product is Σ_j C(i,j)·M[j,a]·M[i−j,b], so no division is needed and
    integer matrices stay integer.
    """
    n = len(m) - 1
    binom = _binomials(n)
    for k in range(1, n):
        for i in range(k + 1, n + 1):
            row = binom[i]
            lhs = sum(row[j] * m[j][0] * m[i - j][k + 1] for j in range(i - k))
            rhs = sum(row[j] * m[j][k] * m[i - j][1] for j in range(k, i))
            if (k + 1) * lhs != rhs:
                return False
    return True


def count_successes(seed: int, size: int, range_r: int, draws: int) -> int:
    return sum(
        passes(draw_matrix(seed, trial, size, range_r)) for trial in range(draws)
    )


def probability_bound(size: int, range_r: int) -> Fraction:
    return Fraction(range_r ** (2 * size - 3), range_r ** (size * (size - 1) // 2))


# ---------------------------------------------------------------------------
# Boson words acting on polynomials


def word_letters(pairs) -> str:
    """Letters of (a†)^{r_1} a^{s_1} ···, creators written as "d"."""
    return "".join(CREATOR * r + ANNIHILATOR * s for r, s in pairs)


def _act(letters: str, coeff: int, power: int) -> tuple[int, int]:
    """Apply the word to coeff·x^power; the rightmost letter acts first."""
    for letter in reversed(letters):
        if letter == CREATOR:
            power += 1
        elif power == 0:
            return 0, 0
        else:
            coeff *= power
            power -= 1
    return coeff, power


def _newton(values: list[int]) -> list[int]:
    """c_l with values[m] = Σ_l c_l·m(m−1)···(m−l+1), from forward differences."""
    diffs = list(values)
    out = []
    for l in range(len(values)):
        q, r = divmod(diffs[0], factorial(l))
        if r:
            raise ArithmeticError("falling-factorial coefficients are not integers")
        out.append(q)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return out


def normal_form(letters: str) -> dict[tuple[int, int], int]:
    """{(j, l): c} with word = Σ c·(a†)^j a^l.

    Every term has j − l = d, the word's excess, so on x^m the word gives
    Σ_l c_l·m(m−1)···(m−l+1)·x^{m+d}; m = 0..s fixes all s+1 unknowns.
    """
    s = letters.count(ANNIHILATOR)
    d = len(letters) - 2 * s
    values = [_act(letters, 1, m)[0] for m in range(s + 1)]
    return {(l + d, l): c for l, c in enumerate(_newton(values)) if c}


def stirling_rows(letters: str, n_max: int) -> list[list[int]]:
    """Rows 0..n_max of the word's generalized Stirling matrix.

    Row n holds S(n,k), k = 0..n·s: the coefficient of (a†)^{k+nd} a^k in
    the normal form of w^n when d ≥ 0, of (a†)^k a^{k+n|d|} when d < 0.
    ``states[m]`` is w^n applied to x^m, advanced by one w per row.
    """
    s = letters.count(ANNIHILATOR)
    d = len(letters) - 2 * s
    states: list[tuple[int, int]] = []
    rows = []
    for n in range(n_max + 1):
        if n:
            states = [_act(letters, c, p) for c, p in states]
        for m in range(len(states), n * s + 1):
            state = (1, m)
            for _ in range(n):
                state = _act(letters, *state)
            states.append(state)
        newton = _newton([c for c, _ in states])
        shift = n * -d if d < 0 else 0
        rows.append([
            newton[k + shift] if k + shift < len(newton) else 0
            for k in range(n * s + 1)
        ])
    return rows


def bell_value(row: list[int], x: Fraction) -> Fraction:
    value = Fraction(0)
    for coeff in reversed(row):
        value = value * x + coeff
    return value


# ---------------------------------------------------------------------------
# Truncated series and substitution matrices


def series_multiply(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(n)]


def series_divide(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """q with q·b ≡ a, for b with a nonzero constant term."""
    q: list[Fraction] = []
    for i in range(len(a)):
        q.append((a[i] - sum(q[j] * b[i - j] for j in range(i))) / b[0])
    return q


def substitution_matrix(g: list[Fraction], phi: list[Fraction], size: int):
    """M[i][k] = i!·[x^i] g·φ^k/k!, columns built by c_{k+1} = c_k·φ/(k+1)."""
    g = (list(g) + [Fraction(0)] * size)[:size]
    phi = (list(phi) + [Fraction(0)] * size)[:size]
    columns = [g]
    for k in range(size - 1):
        columns.append([c / (k + 1) for c in series_multiply(columns[-1], phi)])
    return [
        [columns[k][i] * factorial(i) for k in range(size)] for i in range(size)
    ]


def column_egf(m, k: int) -> list[Fraction]:
    return [Fraction(m[i][k]) / factorial(i) for i in range(len(m))]


def render_series(coeffs) -> str:
    """Text form of a truncated series as the program prints it."""
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "x" if i == 1 else f"x^{i}"
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"
