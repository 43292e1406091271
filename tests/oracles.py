"""Independent oracles the tests check the library against.

Nothing here may call into the closed-form code paths it verifies: the
rewriter works letter by letter with the elementary relation
a a† → a† a + 1, the x^m action applies a = d/dx and a† = x letter by
letter to a monomial (and, through forward differences, recovers whole
Stirling rows from it), the substitution check and the substitution
matrix work on plain lists of Fractions with series division and powers of
φ, the step oracles check the division-free column recurrence, one term
by term and one with the per-row weights the verdict used before it read
φ, the production-matrix verdict reads no column criterion at all but
the diagonals of M⁻¹·M̄, the matrix file reader builds a Fraction per
entry, the series stores one Fraction per coefficient, the Wilson interval
is Wilson's formula in Fraction arithmetic with its square root bounded by
`sqrt_above`, and the helpers below stay at that level.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt
from operator import itemgetter, mul

from bosonstirling import FiniteMatrix
from bosonstirling.errors import json_derived, json_list, json_value, require_items
from bosonstirling.series import exact_number, parse_rational


def rewrite_normal_order(letters: tuple[str, ...]) -> dict[tuple[int, int], int]:
    """Exhaustive single-swap rewriting of a word into its normal form.

    Maintains a bag of words with multiplicities; each step rewrites the
    first annihilator-creator adjacency of some word into the swapped word
    plus the word with the pair removed, until every word is segregated.
    Exponential, which is exactly why it is only an oracle.
    """
    pending: defaultdict[tuple[str, ...], int] = defaultdict(int)
    pending[tuple(letters)] += 1
    finished: defaultdict[tuple[int, int], int] = defaultdict(int)
    while pending:
        word, coeff = pending.popitem()
        for i in range(len(word) - 1):
            if word[i] == "a" and word[i + 1] == "d":
                pending[word[:i] + ("d", "a") + word[i + 2 :]] += coeff
                pending[word[:i] + word[i + 2 :]] += coeff
                break
        else:
            finished[(word.count("d"), word.count("a"))] += coeff
    return {key: c for key, c in finished.items() if c != 0}


def x_power_action(letters: tuple[str, ...], m: int) -> int:
    """Coefficient c with w·x^m = c·x^(m+r−s), acting with a = d/dx, a† = x.

    The letters act right to left on the monomial x^m, one at a time: a†
    raises the exponent, a multiplies by the exponent and lowers it.  A word
    with normal form Σ c_{j,l} (a†)^j a^l therefore yields Σ c_{j,l}·m^(l),
    m^(l) the falling factorial, which fixes every c_{j,l} from enough m.
    """
    coeff, exponent = 1, m
    for letter in reversed(letters):
        if letter == "a":
            coeff *= exponent
            exponent -= 1
        else:
            exponent += 1
    return coeff


def stirling_rows_by_action(letters: tuple[str, ...], n_max: int) -> list[list[int]]:
    """Rows 0..n_max of S_w(n,k), recovered from the action of w^n on x^m.

    With s annihilators, excess d and d⁻ = max(−d, 0), the normal form
    N(w^n) = Σ_k S(n,k) (a†)^{k+n·d⁺} a^{k+n·d⁻} sends x^m to c_n(m)·x^(m+n·d)
    with c_n(m) = Σ_k S(n,k)·m^(k+n·d⁻), m^(i) the falling factorial.
    Newton's forward-difference formula then gives
    S(n,k) = Δ^(k+n·d⁻) c_n(0) / (k+n·d⁻)!, read off the differences of
    c_n(0), c_n(1), ..., c_n(n·s + n·d⁻).
    """
    s = letters.count("a")
    d_minus = max(2 * s - len(letters), 0)
    rows = []
    for n in range(n_max + 1):
        shift = n * d_minus
        values = [x_power_action(tuple(letters) * n, m) for m in range(n * s + shift + 1)]
        leading = []
        while values:
            leading.append(values[0])
            values = [b - a for a, b in zip(values, values[1:])]
        row = []
        for k in range(n * s + 1):
            entry, rest = divmod(leading[k + shift], factorial(k + shift))
            assert rest == 0, "a forward difference is not divisible by its factorial"
            row.append(entry)
        rows.append(row)
    return rows


def all_words(length: int):
    """Every letter tuple of exactly the given length."""
    return itertools.product("ad", repeat=length)


@dataclass(frozen=True)
class FractionSeries:
    """The truncated series with one ``Fraction`` per coefficient: the form
    ``TruncatedSeries`` had before it stored integer EGF entries over one
    denominator, kept for its coefficients, text and JSON."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        items = require_items(self.coeffs, "coefficients")
        object.__setattr__(self, "coeffs", tuple(Fraction(exact_number(c)) for c in items))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def egf_entries(self) -> list[Fraction]:
        return [c * factorial(i) for i, c in enumerate(self.coeffs)]

    def __str__(self) -> str:
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
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

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


def matrix_from_json_obj(obj) -> FiniteMatrix:
    """``FiniteMatrix.from_json_obj`` entry by entry: each entry read by
    ``parse_rational``, the matrix built from those values by ``from_rows``."""
    json_value(obj, "size", int)
    rows = json_list(json_value(obj, "entries"), "entries", of=list)
    m = FiniteMatrix.from_rows([list(map(parse_rational, row)) for row in rows])
    json_derived(obj, "size", m.size, int)
    return m


def matrix_product(a: FiniteMatrix, b: FiniteMatrix) -> FiniteMatrix:
    """The product of two square matrices of one size, by row-times-column sums."""
    n = a.size
    return FiniteMatrix.from_rows(
        [
            [sum(a.entries[i][j] * b.entries[j][k] for j in range(n)) for k in range(n)]
            for i in range(n)
        ]
    )


def geometric_inverse_coeffs(c: int, order: int) -> list:
    """Coefficients of 1/(1 + c·x) up to `order`, by the geometric series."""
    return [Fraction((-c) ** i) for i in range(order + 1)]


def _series_multiply(a: list, b: list) -> list:
    return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(len(a))]


def _series_divide(a: list, b: list) -> list:
    """q with q·b ≡ a, for b with a nonzero constant term."""
    q: list = []
    for i in range(len(a)):
        q.append((a[i] - sum(q[j] * b[i - j] for j in range(i))) / b[0])
    return q


def substitution_matrix(g: list, phi: list, size: int) -> list[list]:
    """M[i,k] = i!·[x^i] g·φ^k/k! for i, k < size, from ordinary series powers.

    `g` and `phi` are ordinary coefficient lists (zero-padded or cut to
    `size`).  Each entry is an ``int`` when integral, else a ``Fraction``.
    """
    g = ([Fraction(c) for c in g] + [Fraction(0)] * size)[:size]
    phi = ([Fraction(c) for c in phi] + [Fraction(0)] * size)[:size]
    columns = []
    power = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for k in range(size):
        columns.append(
            [c * factorial(i) / factorial(k) for i, c in enumerate(_series_multiply(g, power))]
        )
        power = _series_multiply(power, phi)
    return [
        [v.numerator if v.denominator == 1 else v for v in (col[i] for col in columns)]
        for i in range(size)
    ]


def _series_json(coeffs: list) -> dict:
    return {"order": len(coeffs) - 1, "coeffs": [str(c) for c in coeffs]}


def substitution_report(rows) -> dict:
    """The column-EGF condition c_k = [c_0·(c_1/c_0)^k/k!]_n, column by column.

    Builds every column EGF, takes g = c_0 and φ = c_1/c_0 by series
    division, forms the powers of φ and compares every column, 0 and 1
    included, with g·φ^k/k!; there is no early exit.  Returns the JSON
    object of a substitution report: verdict, failing columns with their
    expected and actual series, g and φ.
    """
    n = len(rows) - 1
    columns = [
        [Fraction(rows[i][k]) / factorial(i) for i in range(n + 1)]
        for k in range(n + 1)
    ]
    g = columns[0]
    phi = _series_divide(columns[1], g)
    failing = []
    power = [Fraction(1)] + [Fraction(0)] * n
    for k, actual in enumerate(columns):
        expected = [c / factorial(k) for c in _series_multiply(g, power)]
        if expected != actual:
            failing.append(
                {"k": k, "expected": _series_json(expected), "actual": _series_json(actual)}
            )
        power = _series_multiply(power, phi)
    return {
        "verdict": not failing,
        "failing_columns": failing,
        "g": _series_json(g),
        "phi": _series_json(phi),
    }


def first_failing_step(rows) -> int | None:
    """First failing step k of the column recurrence, summed term by term.

    Step k, k = 1..n−2, compares (k+1)·Σ_j C(i,j)·M[j,0]·M[i−j,k+1] with
    Σ_j C(i,j)·M[j,k]·M[i−j,1] at each coefficient i = k+2..n, as the
    recurrence is written: two entry products per term and no weights, for
    k upwards and then i upwards.  `rows` are integer rows of a unipotent
    matrix.
    """
    n = len(rows) - 1
    binomials = [[comb(i, j) for j in range(i + 1)] for i in range(n + 1)]
    col0 = [row[0] for row in rows]
    col1 = [row[1] for row in rows]
    for k in range(1, n - 1):
        for i in range(k + 2, n + 1):
            binomial = binomials[i]
            lhs = sum(binomial[j] * col0[j] * rows[i - j][k + 1] for j in range(i - k))
            rhs = sum(binomial[j] * rows[j][k] * col1[i - j] for j in range(k, i))
            if (k + 1) * lhs != rhs:
                return k
    return None


def division_free_failure(rows) -> int | None:
    """First failing step k of c_0·(k+1)·c_{k+1} ≡ c_k·c_1, by per-row weights.

    The substitution verdict before it read φ: coefficient i of step k is
    (k+1)·Σ_{m=k+1}^{i} u_i[m]·M[m,k+1] = Σ_{j=k}^{i−1} v_i[j]·M[j,k], with
    u_i[m] = C(i,m)·M[i−m,0] and v_i[j] = C(i,j)·M[i−j,1] formed once per
    row, two dot products per step and row, scanned k upwards and then i
    upwards.  It reads columns 0 and 1 and no quotient; `rows` are the
    integer rows L·M of a unipotent M, the recurrence being homogeneous.
    """
    n = len(rows) - 1
    binomials = [[comb(i, j) for j in range(i + 1)] for i in range(n + 1)]
    weights = [None] * (n + 1)
    column = [row[1] for row in rows[1:]]
    for k in range(1, n - 1):
        previous, column = column, [rows[k + 1][k + 1]]
        for i in range(k + 2, n + 1):
            column.append(rows[i][k + 1])
            if weights[i] is None:
                weights[i] = (
                    list(map(mul, binomials[i], map(itemgetter(0), rows[i::-1]))),
                    list(map(mul, binomials[i], map(itemgetter(1), rows[i:0:-1]))),
                )
            u, v = weights[i]
            if (k + 1) * sum(map(mul, u[k + 1:], column)) != sum(map(mul, v[k:], previous)):
                return k
    return None


def production_verdict(rows) -> bool:
    """The substitution verdict of a unipotent matrix, read off its production matrix.

    Deutsch, Ferrari and Rinaldi (Ann. Comb. 13, 2009) characterise the
    exponential Riordan arrays, the matrices of the pairs (g, φ), by their
    production matrix P = M⁻¹·M̄, M̄ being M without its first row: M is the
    array of (g, φ) exactly when P[i,j] = (i!/j!)·(z_{i−j} + j·a_{i−j+1}),
    with φ' = A(φ) and g'/g = Z(φ).  So in the scaled matrix
    Q[j+d, j] = P[j+d, j]·j!/(j+d)! each diagonal d ≥ 0 is z_d + j·a_{d+1},
    affine in j, which is what this checks, by second differences.

    Truncation is exact: M is lower triangular, so the (n−1)×(n−1) block of
    P, for a matrix of size n, is fixed by r_{n−1}(M) alone, and it is
    M₀⁻¹·M̄₀ with M₀ rows and columns 0..n−2 of M and M̄₀ rows 1..n−1 of
    columns 0..n−2.  M₀ is unit lower triangular, so P is taken by forward
    substitution, P[i,j] = M[i+1,j] − Σ_{k<i} M[i,k]·P[k,j], in Fraction.

    The counts are the paper's.  Diagonal d of the block holds n−1−d
    entries, so being affine is n−3−d equations, and Σ_d (n−3−d) =
    (n−2)(n−3)/2 in all.  The parameters z_0..z_{n−2} and a_1..a_{n−2} are
    2n−3 in number, as many as the free entries of columns 0 and 1, and
    a_0 = 1 is forced by unipotence.  Conversely, sequences that fit the
    block generate an array whose production matrix agrees with it, and a
    unipotent M is rebuilt from P row by row (row i+1 is row i times P), so
    M is a truncation of that array.

    `rows` are the exact rows (``int`` or ``Fraction``) of a unipotent
    matrix; no criterion on its columns is read.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    assert all(row[i] == 1 and not any(row[i + 1:]) for i, row in enumerate(m)), \
        "not unipotent"
    size = len(m) - 1
    p: list[list[Fraction]] = []
    for i in range(size):
        p.append([m[i + 1][j] - sum(m[i][k] * p[k][j] for k in range(i))
                  for j in range(size)])
    for d in range(size):
        diagonal = [p[j + d][j] * factorial(j) / factorial(j + d) for j in range(size - d)]
        if any(a - 2 * b + c for a, b, c in zip(diagonal, diagonal[1:], diagonal[2:])):
            return False
    return True


def closed_form_pair(r: int, p: int, order: int) -> tuple[list, list]:
    """(g, φ) of the word (a†)^{r−p} a (a†)^p as coefficient lists through x^order.

    Blasiak, Penson and Solomon (Ann. Comb. 7, 2003) give the Stirling
    matrix of that word as the substitution pair g = (1−(r−1)x)^{−p/(r−1)}
    and φ = (1−(r−1)x)^{−1/(r−1)} − 1 for r ≥ 2, and g = e^{px}, φ = e^x − 1
    for r = 1.  The binomial series (1−c·x)^{−a} has coefficient
    a(a+1)···(a+k−1)·c^k/k! at x^k.
    """
    if r == 1:
        g = [Fraction(p**k, factorial(k)) for k in range(order + 1)]
        phi = [Fraction(0)] + [Fraction(1, factorial(k)) for k in range(1, order + 1)]
        return g, phi
    c = r - 1

    def binomial_series(a: Fraction) -> list:
        coeffs = [Fraction(1)]
        for k in range(1, order + 1):
            coeffs.append(coeffs[-1] * (a + k - 1) * c / k)
        return coeffs

    phi = binomial_series(Fraction(1, c))
    phi[0] -= 1
    return binomial_series(Fraction(p, c)), phi


def sqrt_above(value: Fraction) -> Fraction:
    """A rational above √value by at most 10⁻³⁰, for value > 0: with
    value = a/b in lowest terms, (⌊√(a·b·10⁶⁰)⌋ + 1)/(b·10³⁰)."""
    a, b = value.numerator, value.denominator
    scale = 10**30
    return Fraction(isqrt(a * b * scale * scale) + 1, b * scale)


def wilson_interval_95(successes: int, draws: int) -> tuple[Fraction, Fraction]:
    """The 95% Wilson interval in Fraction arithmetic, as Wilson (JASA 22,
    1927) writes it, with z = 1.96 and the root bounded by `sqrt_above`,
    clipped to [0, 1]."""
    n = draws
    z = Fraction(196, 100)
    phat = Fraction(successes, n)
    denom = 1 + z * z / n
    center = phat + z * z / (2 * n)
    disc = phat * (1 - phat) / n + z * z / (4 * n * n)
    margin = z * sqrt_above(disc)
    lo = (center - margin) / denom
    hi = (center + margin) / denom
    return max(Fraction(0), lo), min(Fraction(1), hi)
