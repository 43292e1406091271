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

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from operator import add, mul

from .boson import BosonWord, excess, normal_order
from .errors import ValidationError, json_derived, json_list, json_value, require_int
from .series import TruncatedSeries, exact_number, parse_integer

NOT_SINGLE_ANNIHILATOR = "not-single-annihilator"
PURE_SUBSTITUTION = "pure-substitution"
SUBSTITUTION_WITH_PREFUNCTION = "substitution-with-prefunction"


@dataclass(frozen=True, init=False)
class GeneralizedStirlingMatrix:
    """Rows 0..n_max of the row-finite staircase matrix S_w(n,k).

    ``rows[n]`` stores the dense staircase slice k = 0..n·s_tot; entries to
    the right of the staircase are implicitly zero.  ``s_tot``, ``r_tot``
    and ``d`` are the word's annihilator count, creator count and excess.
    The rows follow from the word and n_max, so the constructor takes those
    two and builds the rows by :func:`_stirling_rows`, which checks n_max.
    Immutable once built.
    """

    word: BosonWord
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, word: BosonWord, n_max: int):
        if not isinstance(word, BosonWord):
            raise ValidationError(f"word must be a BosonWord, got {word!r}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "rows", tuple(_stirling_rows(word, n_max)))

    @classmethod
    def _of_rows(cls, word: BosonWord, rows: tuple) -> GeneralizedStirlingMatrix:
        """The matrix of `word` whose rows 0..n_max `rows` are already built,
        unchecked: the path of :meth:`from_json_obj`, which built and
        compared them one by one."""
        m = object.__new__(cls)
        object.__setattr__(m, "word", word)
        object.__setattr__(m, "rows", rows)
        return m

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
        require_int(n, "row", 0, self.n_max)
        require_int(k, "column", 0)
        row = self.rows[n]
        return row[k] if k < len(row) else 0

    def column(self, k: int) -> tuple[list[int], int]:
        """Column k over rows 0..n_max, zero beyond the staircase, over denominator 1."""
        require_int(k, "column", 0)
        return [row[k] if k < len(row) else 0 for row in self.rows], 1

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
        rebuilt and compared one by one; the first row that differs ends
        the read, and the rows rebuilt are then the rows read correctly
        and one more.  ``s_tot`` and ``d`` are compared with the word's.
        """
        texts = json_list(json_value(obj, "rows"), "rows", of=list)
        word = BosonWord.from_letters(json_value(obj, "word", str))
        json_derived(obj, "s_tot", word.annihilator_count, int)
        json_derived(obj, "d", excess(word), int)
        rows = []
        for row, text in zip(_stirling_rows(word, len(texts) - 1), texts):
            if row != tuple(map(parse_integer, text)):
                raise ValidationError(f"serialized rows are not the rows of {word.text!r}")
            rows.append(row)
        return cls._of_rows(word, tuple(rows))


def stirling_matrix(w: BosonWord, n_max: int) -> GeneralizedStirlingMatrix:
    """Materialize rows 0..n_max of S_w, as :func:`_stirling_rows` yields them."""
    return GeneralizedStirlingMatrix(w, n_max)


def _stirling_rows(w: BosonWord, n_max: int):
    """Yield rows 0..n_max of S_w, built by a row-step kernel on ``int`` lists.

    Write s for the annihilator count, d⁺ = max(d, 0), d⁻ = max(−d, 0) and
    the normal form of w once as N(w) = Σ_t c_t (a†)^{j_t} a^{l_t}.  Row n
    is read off N(w^n) = N(w^{n−1})·N(w), whose column-k1 term in row n−1 is

        S(n−1,k1) (a†)^{k1+(n−1)d⁺} a^{L},    L = k1 + (n−1)d⁻.

    The Weyl identity a^L (a†)^j = Σ_κ C(L,κ)C(j,κ)κ! (a†)^{j−κ} a^{L−κ},
    with C(L,κ)·κ! = perm(L,κ), turns that term times c_t (a†)^{j_t} a^{l_t}
    into Σ_κ S(n−1,k1)·c_t·C(j_t,κ)·perm(L,κ) times a monomial with
    annihilator exponent L − κ + l_t = k + n·d⁻, that is column k = k1 + σ
    for the shift σ = l_t − κ − d⁻.  The steps (t, κ) that share a shift
    add into the same column and differ only in their factor
    c_t·C(j_t,κ)·perm(L,κ), so by distributivity they sum to one weight

        T_σ(L) = Σ_κ mult_{σ,κ}·perm(L,κ),
        mult_{σ,κ} = Σ_{t : l_t − κ − d⁻ = σ} c_t·C(j_t,κ),
        row_n[k1 + σ] += row_{n−1}[k1] · T_σ(k1 + (n−1)·d⁻),

    one pass over row n−1 per distinct shift.  A shift whose only step is
    κ = 0 with mult 1 has T_σ(L) = perm(L,0) = 1 at every L, so row n−1 is
    added as it stands, with no table and no product.

    Every contribution is non-negative and every nonzero one is a term of
    N(w^n), so it lands in columns 0..n·s; those aimed left of column 0 are
    zero, and the columns k1 < lo = −σ are skipped.  Row n−1 ends at column
    (n−1)·s, so a shift with lo past that column has nothing left to add;
    shifts are taken in decreasing order, so lo only grows and the first
    such shift ends the passes of row n.  The largest shift lies in 0..s
    (the term (r, s) of N(w) gives σ = s − d⁻ at κ = 0, and σ ≤ l_t ≤ s),
    so its pass has lo = 0 and writes the row, zeros on both sides,
    instead of adding into zeros.  Every contraction lowers l_t, so that
    term, with c_t = 1, is the shift's only step and the shift is a unit
    one: row n holds row n−1, shifted, plus non-negative terms, and the
    last row holds the matrix's largest entry.

    Row n reads T_σ only at L = k1 + (n−1)·d⁻ ≤ (n−1)·(s + d⁻), and those
    values do not depend on n, so each table is grown by s + d⁻ entries per
    row and holds exactly L = 0..(n−1)·(s + d⁻) while row n is built: the
    kernel's memory follows the rows built, not n_max.  perm(L,κ) vanishes
    for κ > L, so steps with κ > (n_max−1)·(s + d⁻), which could only add
    zeros, are never made.
    """
    if len(w) == 0:
        raise ValidationError("the empty word has no Stirling matrix")
    require_int(n_max, "row count", 0)
    s_tot = w.annihilator_count
    d_minus = max(-excess(w), 0)
    kappa_max = min(w.creator_count, max((n_max - 1) * (s_tot + d_minus), 0))
    # steps[shift] maps κ to mult.
    steps: defaultdict[int, Counter] = defaultdict(Counter)
    for (j, l), c in normal_order(w).terms.items():
        for kappa in range(min(j, kappa_max) + 1):
            steps[l - kappa - d_minus][kappa] += c * comb(j, kappa)
    shifts = sorted(steps, reverse=True)
    # tables[shift] lists T_shift(L) for L = 0, 1, ...; unit shifts have none.
    tables = {shift: [] for shift in shifts if steps[shift] != {0: 1}}
    prev = (1,)
    yield prev
    for n in range(1, n_max + 1):
        base = (n - 1) * d_minus
        end = base + len(prev)
        for shift, table in tables.items():
            mults = steps[shift].items()
            table.extend(sum(mult * perm(big_l, kappa) for kappa, mult in mults)
                         for big_l in range(len(table), end))
        out = None
        for shift in shifts:
            lo = max(-shift, 0)
            if lo >= len(prev):
                break
            table = tables.get(shift)
            part = prev[lo:] if lo else prev
            src = part if table is None else map(mul, part, table[base + lo:end])
            if out is None:
                out = [0] * shift
                out.extend(src)
                out.extend([0] * (s_tot - shift))
            else:
                start, stop = lo + shift, shift + len(prev)
                out[start:stop] = map(add, out[start:stop], src)
        prev = tuple(out)
        yield prev


#: Coefficients per block of :func:`bell_polynomial`.  On the 200 rows of
#: a†a at x = 11/23 (Python 3.11, 2 vCPU), 8 was the fastest of 4 to 32,
#: with 12 and 16 within 3%.
_BELL_BLOCK = 8


def bell_polynomial(m: GeneralizedStirlingMatrix, n: int, x) -> Fraction:
    """Evaluate B_w(n, x) = Σ_k S_w(n,k) x^k at an exact rational x.

    Write x = p/q in lowest terms (q > 0), b = ``_BELL_BLOCK`` and split the
    row into J = ⌈(D+1)/b⌉ blocks of b coefficients, D being the row's last
    column and columns past D reading as zero.  Block j is summed against
    small weights, each a product of b − 1 factors p or q:

        β_j = Σ_{r<b} S(n, jb+r)·p^r·q^{b−1−r}.

    Since k = jb + r gives p^k·q^{Jb−1−k} = p^r·q^{b−1−r}·(p^b)^j·(q^b)^{J−1−j},

        N' = Σ_k S(n,k)·p^k·q^{Jb−1−k} = Σ_j β_j·(p^b)^j·(q^b)^{J−1−j},

    and B_w(n, x) = Σ_k S(n,k)·p^k/q^k = N'/q^{Jb−1}.  The homogenised
    Horner scheme over the blocks, h_{J−1} = β_{J−1} and
    h_j = h_{j+1}·p^b + β_j·(q^b)^{J−1−j}, gives N' = h_0 in ``int``
    arithmetic: one product of two big integers per block, not per
    coefficient, and one reduction of the fraction at the end.
    """
    require_int(n, "row", 0, m.n_max)
    x = Fraction(exact_number(x))
    p, q = x.numerator, x.denominator
    b = _BELL_BLOCK
    weights = [p**r * q ** (b - 1 - r) for r in range(b)]
    row = m.rows[n]
    blocks = [sum(map(mul, row[i:i + b], weights)) for i in range(0, len(row), b)]
    p_b, q_b = p**b, q**b
    value, q_power = blocks[-1], 1
    for block in reversed(blocks[:-1]):
        q_power *= q_b
        value = value * p_b + block * q_power
    return Fraction(value, q_power * q ** (b - 1))


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
        for name, value in (("r", self.r), ("p", self.p)):
            if value is not None:
                require_int(value, name)
        if type(self.ends_with_a) is not bool:
            raise ValidationError(f"ends_with_a must be a bool, got {self.ends_with_a!r}")
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
        json_derived(obj, "kind", c.kind)
        json_derived(obj, "first_column_unit", c.ends_with_a, bool)
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

    Accepts anything with a ``column(k)`` accessor, which gives column k
    as integers over one denominator, and an ``n_max`` (a materialized
    Stirling matrix or a finite square matrix); the column's integers are
    the series' EGF entries.  An order outside 0..n_max is a RangeError
    naming `order`; the accessor's RangeError propagates for a column out
    of range.
    """
    require_int(order, "order", 0, matrix.n_max)
    entries, d = matrix.column(k)
    return TruncatedSeries.from_egf_entries(entries[: order + 1], d)
