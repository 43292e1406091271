"""Generalized Stirling matrices and Bell polynomials attached to a boson word.

For a word w with excess d, the normally ordered powers decompose as

    N(w^n) = (a†)^{nd} Σ_k S_w(n,k) (a†)^k a^k          (d ≥ 0)
    N(w^n) = (Σ_k S_w(n,k) (a†)^k a^k) a^{n|d|}          (d < 0)

and the integers S_w(n,k) generalize the Stirling numbers of the second
kind (w = a†a recovers them exactly).  Rows are materialized up to a
requested index; row n carries columns k = 0..n·s where s is the word's
annihilator count, so the matrix has a staircase profile of step s and is
unitriangular exactly when s = 1 (granted the word has at least one
creator).

Bell polynomials are the row generating polynomials B(n,x) = Σ_k S(n,k)x^k
and the Bell numbers their values at x = 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add

from .boson import BosonWord, excess, normal_order
from .errors import RangeError, ValidationError, json_list, json_value
from .series import TruncatedSeries, exact_number, parse_integer

NOT_SINGLE_ANNIHILATOR = "not-single-annihilator"
PURE_SUBSTITUTION = "pure-substitution"
SUBSTITUTION_WITH_PREFUNCTION = "substitution-with-prefunction"


@dataclass(frozen=True)
class GeneralizedStirlingMatrix:
    """Rows 0..n_max of the row-finite staircase matrix S_w(n,k).

    ``rows[n]`` stores the dense staircase slice k = 0..n·s_tot; entries to
    the right of the staircase are implicitly zero.  ``s_tot``, ``r_tot``
    and ``d`` are the word's annihilator count, creator count and excess.
    Immutable once built.
    """

    word: BosonWord
    rows: tuple[tuple[int, ...], ...]

    @property
    def s_tot(self) -> int:
        return self.word.annihilator_count

    @property
    def r_tot(self) -> int:
        return self.word.creator_count

    @property
    def d(self) -> int:
        return excess(self.word)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int):
        """S_w(n,k); zero beyond the staircase, RangeError beyond row n_max."""
        if not 0 <= n <= self.n_max:
            raise RangeError(f"row {n} not materialized (have 0..{self.n_max})")
        if k < 0:
            raise RangeError(f"column index {k} is negative")
        row = self.rows[n]
        return row[k] if k < len(row) else 0

    def is_lower_triangular(self) -> bool:
        return not any(any(row[n + 1:]) for n, row in enumerate(self.rows))

    def to_json_obj(self) -> dict:
        return {
            "word": self.word.text,
            "s_tot": self.s_tot,
            "d": self.d,
            "rows": [[str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_obj(cls, obj) -> GeneralizedStirlingMatrix:
        """Read :meth:`to_json_obj` output; ValidationError if a derived value disagrees.

        The rows follow from the word and the row count, so they are
        recomputed and compared, as ``s_tot`` and ``d`` are.
        """
        rows = tuple(tuple(map(parse_integer, row))
                     for row in json_list(json_value(obj, "rows"), "rows", of=list))
        word = BosonWord.from_letters(json_value(obj, "word", str))
        m = stirling_matrix(word, len(rows) - 1)
        if m.rows != rows:
            raise ValidationError(f"serialized rows are not the rows of {m.word.text!r}")
        if m.s_tot != json_value(obj, "s_tot", int) or m.d != json_value(obj, "d", int):
            raise ValidationError("serialized s_tot/d do not match the word")
        return m


def stirling_matrix(w: BosonWord, n_max: int) -> GeneralizedStirlingMatrix:
    """Materialize rows 0..n_max of S_w by a row-step kernel on ``int`` lists.

    Write d⁺ = max(d, 0), d⁻ = max(−d, 0) and the normal form of w once as
    N(w) = Σ_t c_t (a†)^{j_t} a^{l_t}.  Row n is read off N(w^n) =
    N(w^{n−1})·N(w), whose column-k1 term in row n−1 is

        S(n−1,k1) (a†)^{k1+(n−1)d⁺} a^{L},    L = k1 + (n−1)d⁻.

    The Weyl identity a^L (a†)^j = Σ_κ C(L,κ)C(j,κ)κ! (a†)^{j−κ} a^{L−κ},
    with C(L,κ)·κ! = perm(L,κ), turns that term times c_t (a†)^{j_t} a^{l_t}
    into Σ_κ S(n−1,k1)·c_t·C(j_t,κ)·perm(L,κ) times a monomial with
    annihilator exponent L − κ + l_t = k + n·d⁻, that is column
    k = k1 + (l_t − κ − d⁻).  So, with the step list
    (shift = l_t − κ − d⁻, mult = c_t·C(j_t,κ), κ) for κ = 0..j_t,

        row_n[k1 + shift] += row_{n−1}[k1] · mult · perm(k1 + (n−1)·d⁻, κ).

    Every nonzero contribution is a term of N(w^n), so it lands in columns
    0..n·s; a contribution aimed left of column 0 has perm(L,κ) = 0, so the
    columns k1 < −shift are skipped.  Steps with equal (κ, shift) share one
    summed mult, and the factors perm(L,κ) are built for κ = 0, 1, ... by
    multiplying by L − κ + 1, which is zero once κ passes L.  Row n−1 ends
    at column (n−1)·s, so L ≤ (n_max−1)·(s + d⁻) on every row built, and
    steps with a larger κ, which could only add zeros, are never made.
    """
    if len(w) == 0:
        raise ValidationError("the empty word has no Stirling matrix")
    if n_max < 0:
        raise ValidationError(f"row count must be non-negative, got {n_max}")
    s_tot = w.annihilator_count
    d_minus = max(-excess(w), 0)
    # steps[κ] maps shift to mult; the term (r_tot, s_tot) of N(w) makes
    # every κ = 0..kappa_max occur.
    kappa_max = min(w.creator_count, max((n_max - 1) * (s_tot + d_minus), 0))
    steps = [Counter() for _ in range(kappa_max + 1)]
    for (j, l), c in normal_order(w).terms.items():
        for kappa in range(min(j, kappa_max) + 1):
            steps[kappa][l - kappa - d_minus] += c * comb(j, kappa)
    rows = [[1]]
    for n in range(1, n_max + 1):
        out = [0] * (n * s_tot + 1)
        base = (n - 1) * d_minus + 1
        weighted = rows[-1]
        for kappa, shifts in enumerate(steps):
            if kappa:
                weighted = [v * (k1 + base - kappa) for k1, v in enumerate(weighted)]
            for shift, mult in shifts.items():
                lo = max(-shift, 0)
                src = weighted[lo:] if mult == 1 else [mult * v for v in weighted[lo:]]
                start, stop = lo + shift, lo + shift + len(src)
                out[start:stop] = map(add, out[start:stop], src)
        rows.append(out)
    return GeneralizedStirlingMatrix(word=w, rows=tuple(map(tuple, rows)))


def bell_polynomial(m: GeneralizedStirlingMatrix, n: int, x) -> Fraction:
    """Evaluate B_w(n, x) = Σ_k S_w(n,k) x^k at an exact rational x.

    With x = p/q in lowest terms (q > 0) and D the row's last column,
    B_w(n, x) = N/q^D for the integer N = Σ_k S_w(n,k)·p^k·q^{D−k}.  The
    homogenised Horner scheme h_D = S(n,D), h_k = h_{k+1}·p + S(n,k)·q^{D−k}
    gives N = h_0 in ``int`` arithmetic, so the fraction is reduced once
    instead of at every step.
    """
    if not 0 <= n <= m.n_max:
        raise RangeError(f"row {n} not materialized (have 0..{m.n_max})")
    x = Fraction(exact_number(x))
    p, q = x.numerator, x.denominator
    row = m.rows[n]
    value, q_power = row[-1], 1
    for coeff in reversed(row[:-1]):
        q_power *= q
        value = value * p + coeff * q_power
    return Fraction(value, q_power)


def bell_numbers(m: GeneralizedStirlingMatrix) -> list[int]:
    """Row sums B_w(n) = B_w(n, 1) for n = 0..n_max."""
    return [sum(row) for row in m.rows]


@dataclass(frozen=True)
class WordClassification:
    """Shape of a word's Stirling matrix, per its annihilator structure.

    A word with exactly one annihilator factors uniquely as
    ``(a†)^{r−p} a (a†)^p``; its matrix is the matrix of a substitution
    (p = 0) or of a substitution with prefunction (p > 0), which ``kind``
    names.  Other words have ``r`` and ``p`` None.  ``ends_with_a``
    equivalently reports whether the first matrix column is (1, 0, 0, ...),
    which the JSON key ``first_column_unit`` names.
    """

    r: int | None
    p: int | None
    ends_with_a: bool

    def __post_init__(self):
        if (self.r is None) != (self.p is None):
            raise ValidationError("r and p must both be set or both be null")
        if self.r is not None and not (
            0 <= self.p <= self.r and (self.p == 0) == self.ends_with_a
        ):
            raise ValidationError(
                f"no word (a†)^(r−p) a (a†)^p has r = {self.r}, p = {self.p} "
                f"and ends_with_a = {self.ends_with_a}"
            )

    @property
    def kind(self) -> str:
        if self.r is None:
            return NOT_SINGLE_ANNIHILATOR
        return PURE_SUBSTITUTION if self.p == 0 else SUBSTITUTION_WITH_PREFUNCTION

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "p": self.p,
            "ends_with_a": self.ends_with_a,
            "first_column_unit": self.ends_with_a,
        }

    @classmethod
    def from_json_obj(cls, obj) -> WordClassification:
        """Read :meth:`to_json_obj` output; ValidationError if a derived value disagrees."""
        c = cls(
            r=None if json_value(obj, "r") is None else json_value(obj, "r", int),
            p=None if json_value(obj, "p") is None else json_value(obj, "p", int),
            ends_with_a=json_value(obj, "ends_with_a", bool),
        )
        kind = json_value(obj, "kind")
        if c.kind != kind:
            raise ValidationError(
                f"serialized kind {kind!r} does not match r and p ({c.kind})"
            )
        if c.ends_with_a != json_value(obj, "first_column_unit", bool):
            raise ValidationError("serialized first_column_unit does not match ends_with_a")
        return c


def classify_word(w: BosonWord) -> WordClassification:
    """Classify w by its single-annihilator decomposition, if any."""
    ends_with_a = bool(w.runs) and w.runs[-1][1] > 0
    if w.annihilator_count != 1:
        return WordClassification(r=None, p=None, ends_with_a=ends_with_a)
    # The one annihilator ends the first run; p creators follow it in a
    # last run (p, 0) unless the word ends with it.
    p = 0 if ends_with_a else w.runs[-1][0]
    return WordClassification(r=w.creator_count, p=p, ends_with_a=ends_with_a)


def column_egf(matrix, k: int, order: int) -> TruncatedSeries:
    """Truncated EGF of column k: Σ_{i=0..order} M[i,k] x^i / i!.

    Accepts anything with an ``entry(i, k)`` accessor (a materialized
    Stirling matrix or a finite square matrix); entries must exist through
    row `order`, else the accessor's RangeError propagates.  A negative
    order leaves no coefficient, and the series rejects that.
    """
    return TruncatedSeries.from_egf_entries(
        [matrix.entry(i, k) for i in range(order + 1)]
    )
