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
the binomial convolution (a⊛b)[i] = Σ_j C(i,j)·a[j]·b[i−j].  The verdict,
:func:`recurrence_failure`, checks the equivalent division-free column
recurrence c_0·(k+1)·c_{k+1} ≡ c_k·c_1 in integer arithmetic (a rational
matrix is scaled by the LCM of its denominators first) and stops at the
first failing step.  The diagnostics of a report — g, φ and every failing
column with its expected and actual series — are computed from the matrix
when first read: φ by forward substitution in c_1 = c_0⊛Φ, and the expected
columns as integer convolutions of the scaled rows.  The builder convolves
integer entry vectors too and divides once per entry.  Equality is exact
throughout: no tolerances and no floats.  Matrix entries are stored as
``int`` when integral and as ``Fraction`` otherwise.

The module also provides the two truncation operators on larger matrices:
r_n (principal submatrix, defined for all row-finite matrices, not
multiplicative) and τ_n (same extraction restricted to lower-triangular
matrices, where it is a morphism for the product).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm

from .errors import RangeError, ValidationError
from .series import TruncatedSeries, parse_rational
from .stirling import column_egf


_INT = frozenset((int,))
_JSON_ENTRY = frozenset((int, str))


def _all_int(row) -> bool:
    return _INT.issuperset(map(type, row))


def _exact(v) -> int | Fraction:
    """`v` as an exact number: ``int`` when integral, else ``Fraction``.

    A string of ASCII digits with an optional leading ``-``, the common
    matrix-file entry, is read by ``int`` directly; it gives the value, and
    past the digit limit the error, that :func:`parse_rational` would.
    """
    if type(v) is int:
        return v
    if type(v) is str:
        digits = v[1:] if v[:1] == "-" else v
        if digits.isdigit() and digits.isascii():
            return int(v)
        q = parse_rational(v)
    else:
        q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class FiniteMatrix:
    """Square matrix of exact rationals, indexed [i, k] from 0.

    Integral entries are stored as ``int`` and the others as ``Fraction``,
    whatever type they were given in; an ``int`` compares and hashes equal
    to the ``Fraction`` of the same value.
    """

    entries: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(row) if _all_int(row) else tuple(map(_exact, row))
            for row in self.entries
        )
        n = len(rows)
        if n == 0:
            raise ValidationError("matrix must have at least one row")
        for row in rows:
            if len(row) != n:
                raise ValidationError(
                    f"matrix is not square: row of length {len(row)} in size {n}"
                )
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def n_max(self) -> int:
        """Index of the last row, as on a materialized Stirling matrix."""
        return len(self.entries) - 1

    @classmethod
    def from_rows(cls, rows) -> FiniteMatrix:
        return cls(rows)

    @classmethod
    def identity(cls, size: int) -> FiniteMatrix:
        return cls.from_rows(
            [[1 if i == k else 0 for k in range(size)] for i in range(size)]
        )

    def entry(self, i: int, k: int) -> int | Fraction:
        if not (0 <= i < self.size and 0 <= k < self.size):
            raise RangeError(f"index ({i}, {k}) outside size-{self.size} matrix")
        return self.entries[i][k]

    def is_lower_triangular(self) -> bool:
        return not any(any(row[i + 1:]) for i, row in enumerate(self.entries))

    def is_unipotent(self) -> bool:
        return self.is_lower_triangular() and all(
            row[i] == 1 for i, row in enumerate(self.entries)
        )

    def __matmul__(self, other: FiniteMatrix) -> FiniteMatrix:
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValidationError(
                f"size mismatch in product: {self.size} vs {other.size}"
            )
        n = self.size
        rows = [
            [
                sum(self.entries[i][j] * other.entries[j][k] for j in range(n))
                for k in range(n)
            ]
            for i in range(n)
        ]
        return FiniteMatrix.from_rows(rows)

    def to_json_obj(self) -> dict:
        return {
            "size": self.size,
            "entries": [[str(v) for v in row] for row in self.entries],
        }

    @classmethod
    def from_json_obj(cls, obj) -> FiniteMatrix:
        """Read ``{"size": int, "entries": [[int or "p/q" string, ...], ...]}``.

        Anything else, a JSON float or boolean entry included, raises
        ValidationError.
        """
        if not isinstance(obj, dict):
            raise ValidationError("a matrix must be a JSON object")
        size, entries = obj.get("size"), obj.get("entries")
        if type(size) is not int:
            raise ValidationError(f"size must be an integer, got {size!r}")
        if not isinstance(entries, list) or not all(
            isinstance(row, list) for row in entries
        ):
            raise ValidationError("entries must be a list of lists")
        for row in entries:
            if not _JSON_ENTRY.issuperset(map(type, row)):
                bad = next(v for v in row if type(v) not in _JSON_ENTRY)
                raise ValidationError(
                    f"entry {bad!r} is neither an integer nor a string"
                )
        m = cls.from_rows(entries)
        if m.size != size:
            raise ValidationError(
                f"declared size {size} does not match {m.size} rows"
            )
        return m


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
        _require_unipotent(self.matrix)
        rows = _integer_rows(self.matrix)
        vars(self).update(_rows=rows, _first_failure=recurrence_failure(rows))

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

        Coefficient i of c_1 = c_0⊛Φ reads M[i,1] = Σ_j C(i,j)·M[j,0]·Φ[i−j].
        The j = 0 term is Φ[i], since M[0,0] = 1, and the j = i term
        vanishes, since Φ[0] = M[0,1] = 0; so forward substitution

            Φ[i] = M[i,1] − Σ_{j=1}^{i−1} C(i,j)·M[j,0]·Φ[i−j]

        gives every entry without a division, visiting only the nonzero
        entries of column 0.
        """
        entries = self.matrix.entries
        n = len(entries) - 1
        binomials = _binomial_rows(n)
        col0 = [(j, row[0]) for j, row in enumerate(entries) if j and row[0]]
        phi = [0]
        for i in range(1, n + 1):
            binomial = binomials[i]
            phi.append(
                entries[i][1]
                - sum([binomial[j] * c * phi[i - j] for j, c in col0 if j < i])
            )
        return phi

    @cached_property
    def extracted_phi(self) -> TruncatedSeries:
        return TruncatedSeries.from_egf_entries(self._phi_entries)

    @cached_property
    def failing_columns(self) -> tuple[ColumnMismatch, ...]:
        """Scanned from the first failing column k+1: columns 0..k hold.

        The expected columns follow c_{j+1} = c_j⊛Φ/(j+1) from the actual
        column k, in integers.  With R = L·M the verdict's integer rows and
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
        m, rows = self.matrix, self._rows
        n = m.n_max
        step, d = _over_common_denominator(self._phi_entries)
        column = [row[k] for row in rows]
        scale = 1
        failing = []
        for j in range(k + 1, n + 1):
            column = _egf_product(column, step, j - 1)
            scale *= d * j
            if any(column[i] != scale * rows[i][j] for i in range(j, n + 1)):
                expected = TruncatedSeries.from_egf_entries(column, rows[0][0] * scale)
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
                k=int(f["k"]),
                expected=TruncatedSeries.from_json_obj(f["expected"]),
                actual=TruncatedSeries.from_json_obj(f["actual"]),
            )
            for f in obj["failing_columns"]
        )
        g = TruncatedSeries.from_json_obj(obj["g"])
        phi = TruncatedSeries.from_json_obj(obj["phi"])
        previous = 1
        for f in failing:
            if not previous < f.k <= g.order:
                raise ValidationError(
                    f"failing column {f.k} is not in {previous + 1}..{g.order}"
                )
            if f.expected == f.actual:
                raise ValidationError(f"failing column {f.k} equals its expectation")
            previous = f.k
        verdict = not failing
        if verdict != bool(obj["verdict"]):
            raise ValidationError(
                f"serialized verdict {obj['verdict']!r} does not match "
                f"{len(failing)} failing columns"
            )
        size = g.order + 1
        rows = [list(row) for row in build_substitution_matrix(g, phi, size).entries]
        for f in failing:
            for row, v in zip(rows, f.actual.egf_entries()):
                row[f.k] = v
        report = cls(FiniteMatrix(rows))
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

        (k+1)·Σ_j C(i,j)·M[j,0]·M[i−j,k+1] = Σ_j C(i,j)·M[j,k]·M[i−j,1],

    with no division.  For i ≤ k both sides vanish (c_{k+1} and c_k·c_1 start
    at x^{k+1}), and for i = k+1 both equal (k+1)·L², so only i = k+2..n are
    checked.  The scan goes k = 1, 2, ... and i upwards, and returns at the
    first failing pair.

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
    holds for M, since L² ≠ 0.  Rational matrices therefore take this same
    integer path after multiplying by the LCM of their denominators.
    """
    n = len(rows) - 1
    binomials = _binomial_rows(n)
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


def _integer_rows(m: FiniteMatrix):
    """The entries of L·m as integers, L the LCM of the entry denominators."""
    if all(map(_all_int, m.entries)):
        return m.entries
    scale = lcm(*[v.denominator for row in m.entries for v in row])
    return [[v.numerator * (scale // v.denominator) for v in row] for row in m.entries]


def _require_unipotent(m: FiniteMatrix) -> None:
    if m.size < 2:
        raise ValidationError(
            "the substitution condition needs at least two columns (size ≥ 2)"
        )
    if not m.is_unipotent():
        raise ValidationError(
            "the substitution condition is defined for unipotent matrices "
            "(lower triangular, unit diagonal)"
        )


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
    N_k = D_g·D_φ^k·k!·M[:,k].  Each entry is divided by that common
    denominator once, at the end, and kept as ``int`` when exact.
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
    return FiniteMatrix.from_rows(
        [[_ratio(column[i], d) for column, d in zip(columns, denominators)]
         for i in range(size)]
    )


def _ratio(p: int, q: int) -> int | Fraction:
    """p/q as an ``int`` when q divides p, else as a ``Fraction``."""
    quotient, rest = divmod(p, q)
    return Fraction(p, q) if rest else quotient


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
