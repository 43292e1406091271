"""Approximate-substitution tests and builders for finite unipotent matrices.

An infinite lower-triangular matrix represents the transform
f(x) ↦ g(x)·f(φ(x)) exactly when its column EGFs satisfy
Σ_n M[n,k] x^n/n! = g(x)·φ(x)^k/k!.  A finite unipotent matrix of size n+1
is a matrix of approximate substitution when the truncated shadow of that
identity holds:

    c_k = [c_0 · (c_1/c_0)^k / k!]_n     for all 0 ≤ k ≤ n,

with c_k the column-k EGF polynomial.  Columns 0 and 1 satisfy this
identically; columns 2..n are genuine constraints.

Nothing here multiplies or inverts series.  Everything works on EGF
entries, the column vectors M[:,k] themselves, where the EGF product becomes
the binomial convolution (a⊛b)[i] = Σ_j C(i,j)·a[j]·b[i−j].  A matrix M is
stored as the integer rows of L·M over one denominator L.  The verdict,
:func:`recurrence_failure`, checks the equivalent division-free column
recurrence c_0·(k+1)·c_{k+1} ≡ c_k·c_1 on those rows, as it is homogeneous,
and stops at the first failing step.  The diagnostics of a report — g, φ
and every failing column with its expected and actual series — are
computed from the matrix when first read: φ by forward substitution in
c_1 = c_0⊛Φ, and the expected columns as integer convolutions of L·M.  The
builder convolves integer entry vectors too.  Equality is exact
throughout: no tolerances and no floats.

The module also provides the two truncation operators on larger matrices:
r_n (principal submatrix, defined for all row-finite matrices, not
multiplicative) and τ_n (same extraction restricted to lower-triangular
matrices, where it is a morphism for the product).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice
from math import comb, gcd, lcm
from operator import itemgetter, mul

from .errors import RangeError, ValidationError, json_list, json_value
from .series import TruncatedSeries, exact_number, parse_rational
from .stirling import column_egf


@dataclass(frozen=True)
class FiniteMatrix:
    """Square matrix of exact rationals, indexed [i, k] from 0.

    Entry [i, k] is ``numerators[i][k] / denominator``, the denominator L
    being the LCM of the entries' reduced denominators (1 for an integer
    matrix).  That form is unique, so equality and hashing compare values.
    :meth:`from_rows` builds one from exact values.
    """

    numerators: tuple[tuple[int, ...], ...]
    denominator: int = 1

    def __post_init__(self):
        rows = tuple(map(tuple, self.numerators))
        n = len(rows)
        if n == 0:
            raise ValidationError("matrix must have at least one row")
        for row in rows:
            if len(row) != n:
                raise ValidationError(
                    f"matrix is not square: row of length {len(row)} in size {n}"
                )
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            raise ValidationError("every matrix numerator must be an int")
        d = self.denominator
        if type(d) is not int or d < 1 or d > 1 and gcd(d, *chain.from_iterable(rows)) != 1:
            raise ValidationError(
                f"matrix denominator {d!r} is not an int ≥ 1 prime to the numerators"
            )
        object.__setattr__(self, "numerators", rows)

    @property
    def size(self) -> int:
        return len(self.numerators)

    @property
    def n_max(self) -> int:
        """Index of the last row, as on a materialized Stirling matrix."""
        return len(self.numerators) - 1

    @classmethod
    def from_rows(cls, rows) -> FiniteMatrix:
        """The matrix of `rows`, each entry read by :func:`exact_number`."""
        rows = [tuple(row) for row in rows]
        if all({int}.issuperset(map(type, row)) for row in rows):
            return cls(rows)
        values, d = _over_common_denominator(list(map(exact_number, chain.from_iterable(rows))))
        values = iter(values)
        return cls([list(islice(values, len(row))) for row in rows], d)

    @classmethod
    def identity(cls, size: int) -> FiniteMatrix:
        return cls(
            [[1 if i == k else 0 for k in range(size)] for i in range(size)]
        )

    @cached_property
    def entries(self) -> tuple[tuple[int | Fraction, ...], ...]:
        """The entries, each ``int`` when integral and ``Fraction`` otherwise."""
        d = self.denominator
        return tuple(
            tuple(Fraction(v, d) if v % d else v // d for v in row)
            for row in self.numerators
        )

    def entry(self, i: int, k: int) -> int | Fraction:
        if not (0 <= i < self.size and 0 <= k < self.size):
            raise RangeError(f"index ({i}, {k}) outside size-{self.size} matrix")
        v, d = self.numerators[i][k], self.denominator
        return Fraction(v, d) if v % d else v // d

    def is_lower_triangular(self) -> bool:
        return not any(any(row[i + 1:]) for i, row in enumerate(self.numerators))

    def is_unipotent(self) -> bool:
        return self.is_lower_triangular() and all(
            row[i] == self.denominator for i, row in enumerate(self.numerators)
        )

    def entry_texts(self) -> list[list[str]]:
        """The entries as ``str`` writes :attr:`entries`: ``p/q`` in lowest
        terms, or an integer when the denominator divides the numerator."""
        d = self.denominator
        if d == 1:
            return [list(map(str, row)) for row in self.numerators]
        return [[_ratio_text(v, d) for v in row] for row in self.numerators]

    def to_json_obj(self) -> dict:
        return {"size": self.size, "entries": self.entry_texts()}

    @classmethod
    def from_json_obj(cls, obj) -> FiniteMatrix:
        """Read ``{"size": int, "entries": [[int or "p/q" string, ...], ...]}``.

        Every entry is read by :func:`parse_rational`, so anything else, a
        JSON float or boolean entry included, raises ValidationError.
        """
        size = json_value(obj, "size", int)
        rows = json_list(json_value(obj, "entries"), "entries", of=list)
        m = cls.from_rows([list(map(parse_rational, row)) for row in rows])
        if m.size != size:
            raise ValidationError(f"declared size {size} does not match {m.size} rows")
        return m


def _ratio_text(v: int, d: int) -> str:
    """``str(Fraction(v, d))`` for d ≥ 1, by one gcd and no Fraction."""
    g = gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


@dataclass(frozen=True)
class ColumnMismatch:
    """One failed column of the substitution condition."""

    k: int
    expected: TruncatedSeries
    actual: TruncatedSeries


@dataclass(frozen=True)
class SubstitutionReport:
    """Verdict plus per-column diagnostics of the substitution condition on `matrix`.

    ``extracted_g`` is the column-0 EGF and ``extracted_phi`` the exact
    quotient c_1/c_0; for a unipotent input, phi has zero constant term and
    unit linear coefficient.  ``failing_columns`` holds every column k whose
    EGF differs from g·φ^k/k!, with both series.

    The matrix is the one stored field.  Construction checks that it is
    unipotent and runs :func:`recurrence_failure`, whose first failing step
    alone gives ``verdict``; each diagnostic is computed on first access and
    then cached.  Equality and hashing compare the matrix, which determines
    every diagnostic.
    """

    matrix: FiniteMatrix

    def __post_init__(self):
        m = self.matrix
        if m.size < 2:
            raise ValidationError(
                "the substitution condition needs at least two columns (size ≥ 2)"
            )
        if not m.is_unipotent():
            raise ValidationError(
                "the substitution condition is defined for unipotent matrices "
                "(lower triangular, unit diagonal)"
            )
        vars(self)["_first_failure"] = recurrence_failure(m.numerators)

    @property
    def verdict(self) -> bool:
        """Whether every column satisfies the condition; computes no diagnostic."""
        return self._first_failure is None

    @cached_property
    def extracted_g(self) -> TruncatedSeries:
        return column_egf(self.matrix, 0, self.matrix.n_max)

    @cached_property
    def _phi_entries(self) -> list:
        """EGF entries Φ[i] = i!·φ_i of φ = c_1/c_0, ``int`` or ``Fraction``.

        With R = L·M the stored rows, coefficient i of c_1 = c_0⊛Φ reads
        R[i,1] = Σ_j C(i,j)·R[j,0]·Φ[i−j].  The j = 0 term is L·Φ[i], since
        R[0,0] = L, and the j = i term vanishes, since Φ[0] = M[0,1] = 0; so
        forward substitution

            Φ[i] = (R[i,1] − Σ_{j=1}^{i−1} C(i,j)·R[j,0]·Φ[i−j]) / L

        gives every entry, visiting only the nonzero entries of column 0.
        """
        rows, d = self.matrix.numerators, self.matrix.denominator
        n = len(rows) - 1
        binomials = _binomial_rows(n)
        col0 = [(j, row[0]) for j, row in enumerate(rows) if j and row[0]]
        phi = [0]
        for i in range(1, n + 1):
            binomial = binomials[i]
            v = rows[i][1] - sum([binomial[j] * c * phi[i - j] for j, c in col0 if j < i])
            phi.append(v if d == 1 else Fraction(v, d))
        return phi

    @cached_property
    def extracted_phi(self) -> TruncatedSeries:
        return TruncatedSeries.from_egf_entries(self._phi_entries)

    @cached_property
    def failing_columns(self) -> tuple[ColumnMismatch, ...]:
        """Scanned from the first failing column k+1: columns 0..k hold.

        The expected columns follow c_{j+1} = c_j⊛Φ/(j+1) from the actual
        column k, in integers.  With R = L·M the stored integer rows and
        D the LCM of the denominators of Φ, set N_k = R[:,k] and
        N_{j+1} = N_j⊛(D·Φ); then N_j = L·D^{j−k}·(j!/k!)·E_j, E_j the
        expected entries of column j.  Φ is of degree 0 in L and the
        expected columns of degree 1, so column j fails exactly when
        N_j ≠ D^{j−k}·(j!/k!)·R[:,j], an integer comparison.  Only a failing
        column is divided out, by L·D^{j−k}·(j!/k!)·i! at x^i, into a series.
        """
        if self.verdict:
            return ()
        k = self._first_failure
        m, rows = self.matrix, self.matrix.numerators
        n = m.n_max
        step, d = _over_common_denominator(self._phi_entries)
        column = [row[k] for row in rows]
        scale = 1
        failing = []
        for j in range(k + 1, n + 1):
            column = _egf_product(column, step, j - 1)
            scale *= d * j
            if any(column[i] != scale * rows[i][j] for i in range(j, n + 1)):
                expected = TruncatedSeries.from_egf_entries(column, m.denominator * scale)
                failing.append(ColumnMismatch(j, expected, column_egf(m, j, n)))
        return tuple(failing)

    def to_json_obj(self) -> dict:
        return {
            "verdict": self.verdict,
            "failing_columns": [
                {
                    "k": f.k,
                    "expected": f.expected.to_json_obj(),
                    "actual": f.actual.to_json_obj(),
                }
                for f in self.failing_columns
            ],
            "g": self.extracted_g.to_json_obj(),
            "phi": self.extracted_phi.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj) -> SubstitutionReport:
        """Read :meth:`to_json_obj` output; ValidationError unless it is a matrix's report.

        The verdict must agree with the failing columns.  Their indices must
        increase strictly within 2..g.order, because columns 0 and 1 hold by
        definition, and each column must differ from its expectation.  g, φ
        and the failing columns' actual series then fix the matrix, since
        every other column k is g·φ^k/k!: it is rebuilt, and the file is
        read as its report only if that report has the same verdict, g, φ
        and failing columns.
        """
        failing = tuple(
            ColumnMismatch(
                k=json_value(f, "k", int),
                expected=TruncatedSeries.from_json_obj(json_value(f, "expected")),
                actual=TruncatedSeries.from_json_obj(json_value(f, "actual")),
            )
            for f in json_list(json_value(obj, "failing_columns"), "failing_columns", of=dict)
        )
        g = TruncatedSeries.from_json_obj(json_value(obj, "g"))
        phi = TruncatedSeries.from_json_obj(json_value(obj, "phi"))
        previous = 1
        for f in failing:
            if not previous < f.k <= g.order:
                raise ValidationError(
                    f"failing column {f.k} is not in {previous + 1}..{g.order}"
                )
            if f.expected == f.actual:
                raise ValidationError(f"failing column {f.k} equals its expectation")
            previous = f.k
        verdict, serialized = not failing, json_value(obj, "verdict", bool)
        if verdict != serialized:
            raise ValidationError(
                f"serialized verdict {serialized!r} does not match "
                f"{len(failing)} failing columns"
            )
        rows = [list(row) for row in build_substitution_matrix(g, phi, g.order + 1).entries]
        for f in failing:
            for row, v in zip(rows, f.actual.egf_entries()):
                row[f.k] = v
        report = cls(FiniteMatrix.from_rows(rows))
        if (report.verdict, report.extracted_g, report.extracted_phi,
                report.failing_columns) != (verdict, g, phi, failing):
            raise ValidationError(
                "the report does not match the matrix that its g, phi and "
                "failing columns fix"
            )
        return report


@lru_cache(maxsize=32)
def _binomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(comb(i, j) for j in range(i + 1)) for i in range(n + 1))


def _over_common_denominator(values) -> tuple[list[int], int]:
    """(D·values, D) with D the LCM of the denominators of the ``int`` or ``Fraction`` values."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _egf_product(a, b, lo: int) -> list:
    """The binomial convolution (a⊛b)[i] = Σ_j C(i,j)·a[i−j]·b[j], i = 0..len(a)−1.

    a⊛b holds the entries of the product of the EGFs Σ a[i]·x^i/i! and
    Σ b[i]·x^i/i!.  `a` must vanish below index `lo`, so the result does
    too and only i ≥ lo is summed; only the nonzero entries of the sparse
    operand `b` are visited.
    """
    n = len(a) - 1
    binomials = _binomial_rows(n)
    terms = [(j, bj) for j, bj in enumerate(b[: n + 1 - lo]) if bj]
    out = [0] * (n + 1)
    for i in range(lo, n + 1):
        binomial = binomials[i]
        out[i] = sum([binomial[j] * bj * a[i - j] for j, bj in terms if j <= i - lo])
    return out


def recurrence_failure(rows) -> int | None:
    """First step k at which the column recurrence fails, or None if none does.

    `rows` is L·M for a unipotent M of size n+1 ≥ 2 and an integer L ≥ 1,
    given as integer rows.  Step k, for k = 1..n−1, is the identity

        c_0·(k+1)·c_{k+1} ≡ c_k·c_1   (mod x^{n+1})

    of column EGFs.  The EGF product has Σ_j C(i,j)·a_j·b_{i−j} at x^i/i!,
    so coefficient i of step k reads

        (k+1)·Σ_{j=0}^{i} C(i,j)·M[j,0]·M[i−j,k+1] = Σ_{j=0}^{i} C(i,j)·M[j,k]·M[i−j,1],

    with no division.  For i ≤ k both sides vanish (c_{k+1} and c_k·c_1 start
    at x^{k+1}), and for i = k+1 both equal (k+1)·L², so only i = k+2..n are
    checked.

    Per-row weights.  Put m = i−j on the left.  Since C(i,i−m) = C(i,m), it
    is (k+1)·Σ_m u_i[m]·M[m,k+1] with the weights u_i[m] = C(i,m)·M[i−m,0],
    and its terms m < k+1 vanish because M is lower triangular.  The right
    side is Σ_j v_i[j]·M[j,k] with v_i[j] = C(i,j)·M[i−j,1].  Its terms
    j < k vanish for the same reason, and so does its term j = i, which is
    C(i,i)·M[0,1]·M[i,k] with M[0,1] = 0 on a unipotent matrix; so v_i
    stops at j = i−1.  Coefficient i of step k is therefore

        (k+1)·Σ_{m=k+1}^{i} u_i[m]·M[m,k+1] = Σ_{j=k}^{i−1} v_i[j]·M[j,k],

    two dot products of row i's weights with column slices, at one product
    of entries per term where the sums above take two.

    Laziness and order.  The weights depend on row i alone, not on k, so
    each row's are formed once, when the scan first reaches that row, and
    column k+1 grows by one entry for each row that step k reaches.  The
    scan goes column by column, k = 1, 2, ... outside and i upwards inside,
    and returns at the first failing pair, whose k is then the least failing
    step with no bookkeeping; a row-by-row scan meets failures out of k
    order and would have to go on checking the earlier steps of later rows.
    A random matrix almost always fails at step 1 within its first rows, so
    it pays for column 1 and the weights of those rows only, about what the
    two-product sums cost it; forming every weight, or the whole transpose,
    before the scan would cost O(n²) for a single comparison.

    Equivalence with the column-EGF condition c_k = c_0·φ^k/k! for all
    k = 0..n, where φ = c_1/c_0 exists because c_0 has constant term 1:

    * Forward: multiplying c_k = c_0·φ^k/k! by c_1 = c_0·φ gives
      c_k·c_1 = c_0·(c_0·φ^{k+1}/k!) = c_0·(k+1)·c_{k+1}, all mod x^{n+1}.
    * Backward, by induction on k: c_0 = c_0·φ^0/0! and c_1 = c_0·φ hold by
      the definition of φ.  If c_k = c_0·φ^k/k! and step k holds, dividing
      step k by the unit (k+1)·c_0 gives
      c_{k+1} = c_k·φ/(k+1) = c_0·φ^{k+1}/(k+1)!.

    So the matrix passes exactly when every step holds, and when step k is
    the first to fail, columns 0..k satisfy the condition and column k+1 is
    the first that does not.

    Scaling: every term on either side is a product of two entries, so the
    identity is homogeneous of degree 2 and holds for L·M exactly when it
    holds for M, since L² ≠ 0.  A rational matrix therefore takes this same
    integer path on its stored numerators.
    """
    n = len(rows) - 1
    binomials = _binomial_rows(n)
    weights = [None] * (n + 1)
    column = [row[1] for row in rows[1:]]
    for k in range(1, n - 1):
        # M[m,k] for m = k..n, and M[m,k+1] for m = k+1..i as i goes up.
        previous, column = column, [rows[k + 1][k + 1]]
        for i in range(k + 2, n + 1):
            column.append(rows[i][k + 1])
            w = weights[i]
            if w is None:
                # u_i[m] for m = 0..i, and v_i[j] for j = 0..i−1.
                binomial = binomials[i]
                w = weights[i] = (
                    list(map(mul, binomial, map(itemgetter(0), rows[i::-1]))),
                    list(map(mul, binomial, map(itemgetter(1), rows[i:0:-1]))),
                )
            u, v = w
            if (k + 1) * sum(map(mul, u[k + 1:], column)) != sum(map(mul, v[k:], previous)):
                return k
    return None


def is_approximate_substitution(m: FiniteMatrix) -> SubstitutionReport:
    """Test the column-EGF condition c_k = [c_0(c_1/c_0)^k/k!]_n exactly.

    The verdict comes from :func:`recurrence_failure`; reading it does no
    series work.  The report's diagnostics are computed on first access.
    """
    return SubstitutionReport(m)


def build_substitution_matrix(
    g: TruncatedSeries, phi: TruncatedSeries, size: int
) -> FiniteMatrix:
    """Matrix of f ↦ g·(f∘φ) on the EGF monomial basis, truncated to `size`.

    M[i,k] = i! · [x^i] g(x)·φ(x)^k/k!.  Requires the normal forms
    g = 1 + O(x) and φ = x + O(x²), which make the result unipotent and
    guarantee it passes the substitution test at order size−1.

    Columns are EGF-entry vectors: column 0 is G[i] = i!·g_i, and column
    k+1 is column k ⊛ P/(k+1) with P[i] = i!·φ_i.  The work is in integers:
    with D_g and D_φ the LCMs of the denominators of G and P, the vectors
    N_0 = D_g·G and N_{k+1} = N_k⊛(D_φ·P) satisfy
    N_k = D_g·D_φ^k·k!·M[:,k].  Column k's reduced denominator is that
    factor divided by its gcd with N_k; the matrix's denominator L is the
    LCM of those, and its numerators are N_k·L divided by the factor.
    """
    if size < 2:
        raise ValidationError(f"matrix size must be at least 2, got {size}")
    n = size - 1
    if g.order < n or phi.order < n:
        raise ValidationError(
            f"need series through order {n}: got g at {g.order}, phi at {phi.order}"
        )
    if g.coeffs[0] != 1:
        raise ValidationError("g must have constant term 1")
    if phi.coeffs[0] != 0 or phi.coeffs[1] != 1:
        raise ValidationError("phi must have constant term 0 and linear coefficient 1")
    column, d_g = _over_common_denominator(g.egf_entries()[:size])
    step, d_phi = _over_common_denominator(phi.egf_entries()[:size])
    columns = [column]
    denominators = [d_g]
    for k in range(1, size):
        column = _egf_product(column, step, k - 1)
        columns.append(column)
        denominators.append(denominators[-1] * d_phi * k)
    scale = lcm(*[d // gcd(d, *column) for column, d in zip(columns, denominators)])
    return FiniteMatrix(
        tuple(zip(*[[v * scale // d for v in column]
                    for column, d in zip(columns, denominators)])),
        scale,
    )


def truncate_rn(m, n: int) -> FiniteMatrix:
    """r_n: the upper-left principal submatrix of dimension n+1.

    Defined on any row-finite matrix materialized through row n.  Not a
    morphism for the product: truncation discards cross terms that feed
    back into the retained block.
    """
    if n < 0:
        raise ValidationError(f"truncation order must be non-negative, got {n}")
    if n > m.n_max:
        raise RangeError(f"matrix materialized through row {m.n_max}, need {n}")
    return FiniteMatrix.from_rows(
        [[m.entry(i, k) for k in range(n + 1)] for i in range(n + 1)]
    )


def truncate_taun(m, n: int) -> FiniteMatrix:
    """τ_n: the same extraction, restricted to lower-triangular matrices.

    The domain restriction is what makes τ_n multiplicative:
    τ_n(AB) = τ_n(A)·τ_n(B) for lower-triangular A, B.
    """
    if not m.is_lower_triangular():
        raise ValidationError("τ_n is only defined on lower-triangular matrices")
    return truncate_rn(m, n)
