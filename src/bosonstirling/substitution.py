"""Approximate-substitution tests and builders for finite unipotent matrices.

An infinite lower-triangular matrix represents the transform
f(x) ↦ g(x)·f(φ(x)) exactly when its column EGFs satisfy
Σ_n M[n,k] x^n/n! = g(x)·φ(x)^k/k!.  A finite unipotent matrix of size n+1
is a matrix of approximate substitution when the truncated shadow of that
identity holds:

    c_k = [c_0 · (c_1/c_0)^k / k!]_n     for all 0 ≤ k ≤ n,

with c_k the column-k EGF polynomial.  Columns 0 and 1 satisfy this
identically; columns 2..n are genuine constraints.

Everything works on EGF entries, the column vectors M[:,k] themselves,
where the EGF product becomes the binomial convolution
(a⊛b)[i] = Σ_j C(i,j)·a[j]·b[i−j]; the product and the quotient of EGFs
are the kernels of :mod:`.series`, which this module calls on entries and
never through series objects.  A matrix M is stored as the integer rows of
L·M over one denominator L.  The verdict, :func:`recurrence_failure`,
checks the equivalent column recurrence (k+1)·c_{k+1} ≡ c_k·φ, with φ the
EGF quotient c_1/c_0 computed only as far as the scan reads it, on those
rows and stops at the first failing step.  Since c_1 = c_0·φ, a step is
the division-free c_0·(k+1)·c_{k+1} ≡ c_k·c_1 divided by the unit c_0, so
the two forms fail at the same step and row; the batch Monte Carlo path
checks the second in ``int64``.  The diagnostics of a report — g, φ and
every failing column with its expected and actual series — are computed
from the matrix when first read: φ by continuing the quotient the verdict
began, and the expected columns by one chain of integer EGF products, the
one the builder takes its columns from.  Equality is exact throughout: no
tolerances and no floats.

The module also provides the two truncation operators on larger matrices:
r_n (principal submatrix, defined for all row-finite matrices, not
multiplicative) and τ_n (same extraction restricted to lower-triangular
matrices, where it is a morphism for the product).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import gcd
from operator import itemgetter, mul

from .errors import (ValidationError, json_derived, json_list, json_value, require_int,
                     require_items)
from .series import (TruncatedSeries, _binomial_rows, _egf_product, _egf_quotient, _lowest,
                     _over_lcm, _ratio_text, _read_exact, parse_rationals)
from .stirling import column_egf

#: Largest ``g`` order that :meth:`SubstitutionReport.from_json_obj` reads.
#: The reader rebuilds and re-verifies a matrix of size order + 1, work
#: cubic in the order from a file of linear size; the largest matrices in
#: the tests, README and benchmark have size 61.
MAX_REPORT_ORDER = 256

#: Entries [i,1] and [i,0] of a row i: the pair of the quotient column 1 / column 0.
_PHI_PAIR = itemgetter(1, 0)


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
        rows = tuple(require_items(row, "matrix row")
                     for row in require_items(self.numerators, "matrix"))
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
        d = require_int(self.denominator, "matrix denominator", 1)
        if d > 1 and gcd(d, *chain.from_iterable(rows)) != 1:
            raise ValidationError(f"matrix denominator {d} is not prime to the numerators")
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
        """The matrix of `rows`, each read by :func:`.series._read_exact`:
        an integer row as it is, any other entry by
        :func:`.series.exact_number`.  :func:`.series._over_lcm` brings the
        rows over the matrix's denominator; every row is checked to be a
        sequence before any entry is read."""
        rows = [require_items(row, "matrix row") for row in require_items(rows, "matrix")]
        return cls(*_over_lcm(map(_read_exact, rows)))

    @classmethod
    def identity(cls, size: int) -> FiniteMatrix:
        require_int(size, "matrix size", 1)
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
        require_int(i, "row", 0, self.n_max)
        require_int(k, "column", 0, self.n_max)
        return self.entries[i][k]

    def column(self, k: int) -> tuple[list[int], int]:
        """Column k as its integer numerators over the matrix's denominator."""
        require_int(k, "column", 0, self.n_max)
        return [row[k] for row in self.numerators], self.denominator

    def is_lower_triangular(self) -> bool:
        return not any(any(row[i + 1:]) for i, row in enumerate(self.numerators))

    def is_unipotent(self) -> bool:
        d = self.denominator
        return all(row[i] == d and not any(row[i + 1:]) for i, row in enumerate(self.numerators))

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

        Every entry is read as :func:`parse_rational` reads it, so anything
        else, a JSON float or boolean entry included, raises ValidationError.
        Each row is read by :func:`parse_rationals` into integers over its
        own denominator, in lowest terms, and :func:`.series._over_lcm`
        brings the rows over the matrix's denominator as they are; no
        ``Fraction`` is built.
        """
        json_value(obj, "size", int)  # a mistyped size is reported before any entry
        rows = [parse_rationals(row) for row in
                json_list(json_value(obj, "entries"), "entries", of=list)]
        m = cls(*_over_lcm(rows))
        json_derived(obj, "size", m.size, int)
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
        phi = []
        vars(self)["_first_failure"] = recurrence_failure(m.numerators, phi)
        vars(self)["_phi_prefix"] = phi[0]

    @property
    def verdict(self) -> bool:
        """Whether every column satisfies the condition; computes no diagnostic."""
        return self._first_failure is None

    @cached_property
    def extracted_g(self) -> TruncatedSeries:
        return column_egf(self.matrix, 0, self.matrix.n_max)

    @cached_property
    def _phi_entries(self) -> tuple[list[int], int]:
        """EGF entries Φ[i] = i!·φ_i of φ = c_1/c_0, as integers N over one D.

        With R = L·M the stored rows, c_1 = c_0⊛Φ reads R[:,1] = R[:,0]⊛Φ,
        so Φ is the EGF quotient of column 1 by column 0.  It continues from
        the entries the verdict computed, which are not computed again.
        """
        rows = self.matrix.numerators
        quotient = self._phi_prefix
        for quotient in _egf_quotient(map(_PHI_PAIR, rows), len(rows) - 1, quotient):
            pass
        return quotient

    @cached_property
    def extracted_phi(self) -> TruncatedSeries:
        return TruncatedSeries.from_egf_entries(*self._phi_entries)

    @cached_property
    def failing_columns(self) -> tuple[ColumnMismatch, ...]:
        """Scanned from the first failing column k+1: columns 0..k hold.

        So :func:`_column_chain` from column k of R = L·M, the stored rows,
        gives N_j/s_j = L·E_j, E_j the expected column j, and column j fails
        exactly when N_j ≠ s_j·R[:,j]; only a failing column becomes a series.
        """
        if self.verdict:
            return ()
        m, rows, k = self.matrix, self.matrix.numerators, self._first_failure
        columns = _column_chain(([row[k] for row in rows], 1), k, self._phi_entries)
        failing = []
        for j, column, scale in islice(columns, 1, None):
            if any(column[i] != scale * rows[i][j] for i in range(j, len(rows))):
                expected = TruncatedSeries.from_egf_entries(column, m.denominator * scale)
                failing.append(ColumnMismatch(j, expected, column_egf(m, j, m.n_max)))
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
        and failing columns.  A g of order above :data:`MAX_REPORT_ORDER`,
        or a φ, expected or actual series of another order than g's, is
        rejected from the lengths of the coefficient lists, before any
        series is built; every series of a matrix's report has g's order, so
        no report is lost.  The rebuilt matrix comes from the builder's
        column chain and tail, :func:`_pair_columns` and
        :func:`_matrix_of_columns`, with each failing column's actual
        integers in place of the expected ones, and no ``Fraction``.
        """
        columns = json_list(json_value(obj, "failing_columns"), "failing_columns", of=dict)
        ks = [json_value(f, "k", int) for f in columns]
        series = [("g", json_value(obj, "g")), ("phi", json_value(obj, "phi"))]
        series += [(f"failing column {k}'s {key}", json_value(f, key))
                   for k, f in zip(ks, columns) for key in ("expected", "actual")]
        g_length, *lengths = [len(json_list(json_value(s, "coeffs"), "coeffs"))
                              for _, s in series]
        if g_length > MAX_REPORT_ORDER + 1:
            raise ValidationError(f"g has order {g_length - 1}; "
                                  f"reports are read up to order {MAX_REPORT_ORDER}")
        for (name, _), length in zip(series[1:], lengths):
            # An empty series is left to its reader, which names that fault.
            if g_length and length and length != g_length:
                raise ValidationError(f"{name} has order {length - 1}; "
                                      f"need series through order {g_length - 1}, as g")
        g, phi, *columns = (TruncatedSeries.from_json_obj(s) for _, s in series)
        failing = tuple(map(ColumnMismatch, ks, columns[::2], columns[1::2]))
        previous = 1
        for f in failing:
            if not previous < f.k <= g.order:
                raise ValidationError(
                    f"failing column {f.k} is not in {previous + 1}..{g.order}"
                )
            if f.expected == f.actual:
                raise ValidationError(f"failing column {f.k} equals its expectation")
            previous = f.k
        json_derived(obj, "verdict", not failing, bool)
        actual = {f.k: (f.actual.entries, f.actual.denominator) for f in failing}
        report = cls(_matrix_of_columns(actual.get(k, (column, s))
                                        for k, column, s in _pair_columns(g, phi, g.order + 1)))
        if (report.verdict, report.extracted_g, report.extracted_phi,
                report.failing_columns) != (not failing, g, phi, failing):
            raise ValidationError(
                "the report does not match the matrix that its g, phi and "
                "failing columns fix"
            )
        return report


def _column_chain(start, k: int, phi):
    """Yield (j, N_j, s_j) for j = k..n: integer columns with N_j/s_j = E_j
    in lowest terms, gcd(s_j, N_j) = 1.

    `start` is (N, s), n+1 integer EGF entries over an integer s ≥ 1, and
    E_k = N/s is zero below index k; `phi` is (D·Φ, D) for the n+1 EGF
    entries Φ of a φ with φ(0) = 0 and an integer D ≥ 1.  Each column is
    divided by its gcd with its scale when it is yielded, and the next is
    N_{j+1} = N_j⊛(D·Φ) over s_{j+1} = s_j·D·(j+1), so
    E_{j+1} = E_j⊛Φ/(j+1), zero below j+1 as Φ[0] = 0.  Column j of the
    matrix of f ↦ g·(f∘φ) holds the EGF entries of g·φ^j/j!, and
    g·φ^{j+1}/(j+1)! = (g·φ^j/j!)·φ/(j+1); ⊛ is the EGF product, and its
    entry i reads entries 0..i alone.  So by induction, if E_k is c times
    column k truncated at n, E_j is c times column j for every j ≥ k.
    Reducing each column keeps the next product's operands small: on an
    integer matrix N_j is column j itself.
    """
    column, scale = start
    step, d = phi
    for j in range(k, len(column)):
        if j > k:
            column = _egf_product(column, step, j - 1)
            scale *= d * j
        column, scale = _lowest(column, scale)
        yield j, column, scale


def recurrence_failure(rows, phi: list | None = None) -> int | None:
    """First step k at which the column recurrence fails, or None if none does.

    `rows` is R = L·M for a unipotent M of size n+1 ≥ 2 and an integer
    L ≥ 1, given as integer rows.  With φ = c_1/c_0, which exists because
    c_0 has constant term 1, step k, for k = 1..n−1, is the identity

        (k+1)·c_{k+1} ≡ c_k·φ   (mod x^{n+1})

    of column EGFs.  The EGF product has Σ_j C(i,j)·a_j·b_{i−j} at x^i/i!,
    so with Φ[m] = m!·φ_m the EGF entries of φ, coefficient i of step k
    reads, multiplied by L,

        (k+1)·R[i,k+1] = Σ_{j=0}^{i} C(i,j)·R[j,k]·Φ[i−j].

    For i ≤ k both sides vanish (c_{k+1} and c_k·φ start at x^{k+1}), and
    for i = k+1 both equal (k+1)·L, since Φ[0] = 0 and Φ[1] = 1 on a
    unipotent matrix; so only i = k+2..n are checked.  The terms j < k
    vanish because M is lower triangular.

    Per-row weights.  Put m = i−j and let D_i be the LCM of the
    denominators of Φ[0..i−1].  Multiplied by D_i, coefficient i of step k
    is the integer identity

        (k+1)·D_i·R[i,k+1] = Σ_{m=0}^{i−k} w_i[m]·R[i−m,k],   w_i[m] = C(i,m)·D_i·Φ[m],

    one dot product of row i's weights with column k read upwards from
    row i to row k.  Its term m = 0 is zero, as Φ[0] = 0; it is kept so
    that the weights and the column line up with no slice.  The weights
    read Φ[0..i−1] alone and do not depend on k.  Φ comes from
    :func:`.series._egf_quotient`, the EGF quotient of column 1 by column
    0, as integers over their LCM, which is D_i when row i's weights are
    formed.

    Trailing zeros.  C(i,m) ≥ 1 for m ≤ i and D_i ≥ 1, so w_i[m] is zero
    exactly when Φ[m] is.  Row i's weights are stored without their
    trailing zeros, and the dot product stops at the shorter of the weights
    and the column; the terms it no longer reads are the products of
    dropped weights, all zero.  Φ[1] = 1 gives w_i[1] = i·D_i ≠ 0, so the
    trim stops at index 1 or later and never empties the weights.  When
    Φ[m] = 0 for m > s, as for a φ of degree s, each step and row costs at
    most s+1 products, and the (n−1)(n−2)/2 pairs (k, i) fewer than
    n²·(s+1)/2; a Φ with no zero tail, such as a Stirling matrix's, is
    not trimmed and costs what it did.

    Laziness and order.  Each row's weights are formed once, when the scan
    first reaches that row, and Φ is computed only as far as they need,
    Φ[0] = 0 and Φ[1] = 1 being known.  The column of step k grows by one
    entry for each row the step reaches.  The scan goes column by column,
    k = 1, 2, ... outside and i upwards inside, and returns at the first
    failing pair, whose k is then the least failing step with no
    bookkeeping; a row-by-row scan meets failures out of k order and would
    have to go on checking the earlier steps of later rows.  A random
    matrix almost always fails at step 1 within its first rows r, so it
    pays for the weights of those rows and Φ[2..r−1] only; computing all
    of Φ, every weight or a whole column before the scan would cost O(n²)
    for a single comparison.  If `phi` is given, a list, the scan appends
    to it the pair (N, D) with Φ[j] = N[j]/D for the entries j = 0..m it
    held when it stopped, from which the quotient can continue.

    Equivalence with the column-EGF condition c_k = c_0·φ^k/k! for all
    k = 0..n:

    * Forward: multiplying c_k = c_0·φ^k/k! by φ gives
      c_k·φ = c_0·φ^{k+1}/k! = (k+1)·c_{k+1}, all mod x^{n+1}.
    * Backward, by induction on k: c_0 = c_0·φ^0/0! and c_1 = c_0·φ hold by
      the definition of φ.  If c_k = c_0·φ^k/k! and step k holds, dividing
      step k by k+1 gives c_{k+1} = c_k·φ/(k+1) = c_0·φ^{k+1}/(k+1)!.

    So the matrix passes exactly when every step holds, and when step k is
    the first to fail, columns 0..k satisfy the condition and column k+1 is
    the first that does not.

    The division-free form.  Since c_1 = c_0·φ, the recurrence
    c_0·(k+1)·c_{k+1} ≡ c_k·c_1, which reads the matrix's entries alone
    and which :func:`.batch.batch_verdicts` checks, is c_0·e_k ≡ 0 for
    e_k = (k+1)·c_{k+1} − c_k·φ.  Coefficient i of c_0·e_k is
    Σ_{j=0}^{i} C(i,j)·M[j,0]·e_k[i−j], and M[0,0] = 1; so if
    e_k[0..i−1] = 0 it equals e_k[i], and by induction on i the first
    nonzero coefficients of c_0·e_k and of e_k have the same index.  Both
    forms therefore fail at the same first step k and, within it, at the
    same first row i: the scans meet the same first failing pair.

    Scaling: Φ is the same for R as for M, the quotient of two columns
    that both carry the factor L, and the identity for R is the one for M
    multiplied by L; so a rational matrix takes this same integer path on
    its stored numerators.
    """
    n = len(rows) - 1
    binomials = _binomial_rows(n)
    quotient = _egf_quotient(map(_PHI_PAIR, rows), n, ((0, 1), 1))
    numerators, d = (0, 1), 1  # D·Φ[0..m] over D
    weights = [None] * (n + 1)
    try:
        for k in range(1, n - 1):
            # R[j,k] for j = i down to k, as i goes up.
            column = [rows[k + 1][k], rows[k][k]]
            for i in range(k + 2, n + 1):
                column.insert(0, rows[i][k])
                w = weights[i]
                if w is None:
                    while len(numerators) < i:
                        numerators, d = next(quotient)
                    # w_i[m] for m = 0..i−1, w_i[0] = D_i·Φ[0] = 0, less
                    # its trailing zeros; w_i[1] = i·D_i ends the trim.
                    w = list(map(mul, binomials[i], numerators))
                    while not w[-1]:
                        w.pop()
                    w = weights[i] = (d, w)
                scale, w = w
                if (k + 1) * scale * rows[i][k + 1] != sum(map(mul, w, column)):
                    return k
        return None
    finally:
        if phi is not None:
            phi.append((numerators, d))


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

    Column 0 holds g's EGF entries i!·g_i, and :func:`_pair_columns` gives
    each column k in lowest terms as N_k/s_k = M[:,k], starting from g's and
    φ's stored entries; :func:`_matrix_of_columns` puts them over one
    denominator.
    """
    return _matrix_of_columns((column, s) for _, column, s in _pair_columns(g, phi, size))


def _pair_columns(g: TruncatedSeries, phi: TruncatedSeries, size: int):
    """Check the pair (g, φ) and the size, then return :func:`_column_chain`
    from g: (k, N_k, s_k) with N_k/s_k = M[:,k] in lowest terms, k = 0..size−1."""
    n = require_int(size, "matrix size", 2) - 1
    if g.order < n or phi.order < n:
        raise ValidationError(
            f"need series through order {n}: got g at {g.order}, phi at {phi.order}"
        )
    if g.entries[0] != g.denominator:
        raise ValidationError("g must have constant term 1")
    if phi.entries[0] != 0 or phi.entries[1] != phi.denominator:
        raise ValidationError("phi must have constant term 0 and linear coefficient 1")
    return _column_chain((list(g.entries[:size]), g.denominator), 0,
                         (phi.entries[:size], phi.denominator))


def _matrix_of_columns(columns) -> FiniteMatrix:
    """The square matrix whose column k is N_k/s_k, from (N_k, s_k) in lowest terms.

    Its denominator L is the LCM of the s_k, and column k's numerators are
    N_k·(L/s_k), by :func:`.series._over_lcm`: one factor per column and no
    division of an entry.  The columns come back as vectors, and ``zip``
    turns them into the rows.  Lowest-terms columns make the matrix's form
    lowest too, as :class:`FiniteMatrix` requires.
    """
    columns, d = _over_lcm(columns)
    return FiniteMatrix(tuple(zip(*columns)), d)


def truncate_rn(m, n: int) -> FiniteMatrix:
    """r_n: the upper-left principal submatrix of dimension n+1.

    Defined on any row-finite matrix materialized through row n.  Not a
    morphism for the product: truncation discards cross terms that feed
    back into the retained block.  Each of the columns 0..n of
    ``m.column(k)`` is cut to rows 0..n and reduced by one gcd, as it may
    have lost the rows that held its denominator.
    """
    require_int(n, "truncation order", 0, m.n_max)
    return _matrix_of_columns(_lowest(column[: n + 1], d)
                              for column, d in map(m.column, range(n + 1)))


def truncate_taun(m, n: int) -> FiniteMatrix:
    """τ_n: the same extraction, restricted to lower-triangular matrices.

    The domain restriction is what makes τ_n multiplicative:
    τ_n(AB) = τ_n(A)·τ_n(B) for lower-triangular A, B.
    """
    if not m.is_lower_triangular():
        raise ValidationError("τ_n is only defined on lower-triangular matrices")
    return truncate_rn(m, n)
