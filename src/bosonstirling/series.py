"""Exact-rational arithmetic on truncated exponential generating functions.

A :class:`TruncatedSeries` is a polynomial of bounded degree with exact
rational coefficients, standing for a power series known only up to its
truncation order.  The order is carried by the value itself, as its
coefficient count, never by ambient context: a product carries the minimum
of the operand orders.

The package's EGF convention lives here alone: the series Σ c_i·x^i is the
exponential generating function of the entries i!·c_i, a matrix column in
the substitution condition.  A series is stored in the kernels' number
form, as those EGF entries: integers over one positive denominator,
reduced by one gcd, as a matrix is integer rows over one denominator.  The
form's two operations are coded here once each: :func:`_lowest` reduces
integers over a denominator by one gcd, and :func:`_over_lcm` brings
integer vectors over their own denominators to one LCM and gives them back
as vectors, so that no matrix is joined into one list and cut again.  Every
reader of exact values, the row reader and the series, matrix and report
readers, builds its integers through them, with no ``Fraction`` between,
and the EGF quotient grows its denominator through :func:`_over_lcm`.
The way in from exact values is one reader, :func:`_read_exact`, which
every series constructor, :meth:`.FiniteMatrix.from_rows` and the
per-value path of :func:`parse_rationals` call, and each series is stored
once.
:meth:`TruncatedSeries.from_egf_entries` takes that form as the kernels
return it, the coefficients are derived on read, and text and JSON write
each coefficient through one integer renderer, :func:`_ratio_text`, which
the matrix writer shares.  On entries the EGF product is the binomial
convolution (a⊛b)[i] = Σ_j C(i,j)·a[i−j]·b[j], and the package's one
product and one quotient of EGFs are the kernels here, :func:`_egf_product`
and :func:`_egf_quotient`, over the one binomial table :func:`_binomial_rows`.  :meth:`TruncatedSeries.multiply` and
:meth:`TruncatedSeries.invert` wrap them; the substitution verdict, the
builder and a report's diagnostics call them on matrix columns.

Every number the package reads from outside text (matrix files,
command-line values, the JSON readers and the exponents in word text)
follows one grammar, declared here; :func:`parse_integer` and
:func:`parse_rational` are its two readers, and :func:`parse_rationals`
reads a list of values, a matrix file's row, as :func:`parse_rational`
reads each.  The library constructors take a series coefficient, matrix
entry or Bell polynomial point by one rule, :func:`exact_number`, which
reads text through the same grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import comb, gcd, isfinite, lcm
from operator import mul

from .errors import (ValidationError, json_derived, json_list, json_value, require_int,
                     require_items)


# The number grammar, in ASCII digits only.  An integer is INTEGER_PATTERN; a
# rational is an integer, p/q with q > 0, or a decimal with digits on at least
# one side of the point.  No '+', whitespace, '_' or exponent: a few bytes of
# "1e999999999" would make Fraction build the power of ten for minutes.
INTEGER_PATTERN = "-?[0-9]+"
_FRACTION_OR_DECIMAL = re.compile(rf"({INTEGER_PATTERN})/([0-9]+)|-?(?:[0-9]+\.[0-9]*|\.[0-9]+)")
# Integers and p/q with q > 0, joined by commas: the rows that parse_rationals
# reads in one pass.  The repeats are possessive (the "+" after
# INTEGER_PATTERN makes its last one so): no piece ends with a character that
# the next may start with, so giving one back never helps, and a row that
# does not match fails in one scan.
_RATIO = rf"{INTEGER_PATTERN}+(?:/0*+[1-9][0-9]*+)?+"
_RATIONAL_ROW = re.compile(rf"{_RATIO}(?:,{_RATIO})*+")


def parse_integer(value: str | int) -> int:
    """Read an integer of the grammar or an ``int``; anything else raises ValidationError."""
    if type(value) is int or type(value) is str and re.fullmatch(INTEGER_PATTERN, value):
        return int(value)
    raise ValidationError(f"expected an integer in ASCII digits, got {value!r}")


def parse_rational(value: str | int) -> int | Fraction:
    """Read a rational of the grammar or an ``int``, as ``int`` when integral, else ``Fraction``.

    Anything else, a boolean or a float included, raises ValidationError.
    """
    if type(value) is str:
        # The common matrix entry, tested faster than by INTEGER_PATTERN.
        digits = value[1:] if value[:1] == "-" else value
        if digits.isdigit() and digits.isascii():
            return int(value)
        m = _FRACTION_OR_DECIMAL.fullmatch(value)
        if m and m[2] and not int(m[2]):
            raise ValidationError(f"zero denominator in {value!r}")
        if m:
            q = Fraction(int(m[1]), int(m[2])) if m[2] else Fraction(value)
            return q.numerator if q.denominator == 1 else q
    elif type(value) is int:
        return value
    raise ValidationError(f"not a rational (integer, p/q or decimal; no exponent): {value!r}")


def parse_rationals(values: list) -> tuple[list[int], int]:
    """The values read by :func:`parse_rational`, as ``([D·v, ...], D)`` with
    D the LCM of their denominators.

    A list of texts, each an integer or p/q, is read in one pass over its
    joined text, with no ``Fraction``: :func:`_over_lcm` brings each run of
    values over one q to a common denominator, the runs are joined into one
    list, and :func:`_lowest` reduces it by one gcd.
    Any other list, one holding a JSON integer, a decimal or a malformed
    value, goes value by value through :func:`parse_rational`, with that
    reader's results and errors.
    """
    text = ",".join(values) if {str}.issuperset(map(type, values)) else ""
    if text.count(",") != len(values) - 1 or not _RATIONAL_ROW.fullmatch(text):
        return _read_exact(values, parse_rational)
    if "/" not in text:
        return list(map(int, text.split(","))), 1
    pairs = []  # (numerators, q), one pair per run of values over one q
    for value in values:
        p, _, q = value.partition("/")
        # q before p, as parse_rational reads them, for the same digit-limit error.
        q = int(q) if q else 1
        if not pairs or pairs[-1][1] != q:
            pairs.append(([], q))
        pairs[-1][0].append(int(p))
    vectors, d = _over_lcm(pairs)
    return _lowest(list(chain.from_iterable(vectors)), d)


def _lowest(values: list[int], d: int) -> tuple[list[int], int]:
    """values/d in lowest terms, for d ≥ 1: both divided by their one gcd."""
    g = gcd(d, *values)
    return (values, d) if g == 1 else ([v // g for v in values], d // g)


def _over_lcm(pairs) -> tuple[list, int]:
    """The vectors N/q of the pairs (N, q), N integers and q ≥ 1, over one
    denominator: ``([N·(D/q), ...], D)``, one vector per pair in order, and
    D, the LCM of the q.

    A vector whose factor D/q is 1 comes back as it is, with no copy.  In
    lowest terms when every pair is: a prime's highest power in D comes
    from a pair with an integer that the prime does not divide, and that
    pair's factor D/q has no such prime.
    """
    pairs = list(pairs)
    d = lcm(*[q for _, q in pairs])
    return [v if f == 1 else [x * f for x in v] for v, f in [(v, d // q) for v, q in pairs]], d


def exact_number(value) -> int | Fraction:
    """A matrix entry, series coefficient or Bell point as ``int`` or ``Fraction``.

    Text is read by :func:`parse_rational`, and a ``bool`` or finite ``float``
    becomes its exact ``Fraction``.  Anything else, ``Decimal`` and numpy
    scalars included, raises ValidationError.
    """
    if type(value) in (int, Fraction):
        return value
    if type(value) is str:
        return parse_rational(value)
    if type(value) in (bool, float) and isfinite(value):
        return Fraction(value)
    raise ValidationError(f"not an exact number: {value!r}")


def _read_exact(values, read=exact_number) -> tuple[list[int], int]:
    """The values as ``([D·v, ...], D)``, D the LCM of their denominators:
    the one way into the number form from exact values.

    A list of ``int`` is returned as it is, over 1.  Any other list is read
    value by value by `read`, :func:`exact_number` or :func:`parse_rational`,
    with that reader's results and errors, and :func:`_over_lcm` brings the
    values, one vector each, over one denominator, in lowest terms; the
    vectors are joined into one list.
    """
    values = list(values)
    if {int}.issuperset(map(type, values)):
        return values, 1
    vectors, d = _over_lcm(([v.numerator], v.denominator) for v in map(read, values))
    return list(chain.from_iterable(vectors)), d


@lru_cache(maxsize=32)
def _binomial_rows(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(comb(i, j) for j in range(i + 1)) for i in range(n + 1))


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


def _egf_quotient(pairs, n: int, known=((), 1)):
    """Yield (N, D) after each entry Q[i] of the Q with den⊛Q = num: Q[j] = N[j]/D, j ≤ i.

    `pairs` yields (num[i], den[i]), ``int`` entries, for i = 0..n, with
    den[0] ≠ 0.  One pair is read per entry, so Q[i] reads num[0..i] and
    den[0..i] alone, and only when it is asked for.  `known` = (N₀, D₀)
    holds entries Q[0..m−1] = N₀/D₀ computed before; they are not computed
    again, and the first pair yielded is the one after Q[m].

    Coefficient i of den⊛Q reads den[0]·Q[i] + Σ_{j=1}^{i} C(i,j)·den[j]·Q[i−j],
    so forward substitution over Q[0..i−1] = N/D gives

        Q[i] = (D·num[i] − Σ_{j=1}^{i} C(i,j)·den[j]·N[i−j]) / (D·den[0]),

    one dot product of integers.  Reduced to p/q with q > 0 (the sign of
    D·den[0] moved into the numerator by a signed gcd), Q[i] joins N over
    D' = lcm(D, q).  When q does not divide D, :func:`_over_lcm` of N over
    D and the empty vector over q gives D' and the earlier numerators
    times D'/D.  So D stays the LCM of the reduced denominators if D₀ was,
    N is rebuilt only when D grows, and D stays 1 when den[0] = 1 and
    D₀ = 1.  A yielded list only grows after the yield, every entry over
    the same D, and a new list replaces it when D grows, so a yielded pair
    stays consistent.
    """
    numerators, d = known
    numerators = list(numerators)
    binomials = _binomial_rows(n)
    dens = []  # den[1..i]
    for i, (v, dj) in enumerate(pairs):
        if i:
            dens.append(dj)
        else:
            d0 = dj
        if i < len(numerators):
            continue
        # C(i,j)·den[j] for j = 1..i against N[i−1], ..., N[0].
        t = v * d - sum(map(mul, map(mul, binomials[i][1:], dens), reversed(numerators)))
        u = d * d0
        if u != 1:
            g = gcd(t, u) if u > 0 else -gcd(t, u)
            t, q = t // g, u // g
            if d % q:
                (numerators, _), d = _over_lcm([(numerators, d), ((), q)])
            t *= d // q
        numerators.append(t)
        yield numerators, d


def _factorials(n: int, d: int = 1):
    """d·i! for i = 0..n−1, one running product: the series' one factorial walk."""
    return accumulate(range(1, n), mul, initial=d)


def _ratio_text(v: int, d: int) -> str:
    """``str(Fraction(v, d))`` for d ≥ 1, by one gcd and no Fraction."""
    g = gcd(v, d)
    return str(v // g) if g == d else f"{v // g}/{d // g}"


@dataclass(frozen=True, init=False)
class TruncatedSeries:
    """Σ c_i·x^i for i = 0..order, with exact rational coefficients.

    Stored as its EGF entries over one denominator: c_i is
    entries[i]/(denominator·i!), with ``int`` entries and a denominator
    ≥ 1 prime to them.  That form is unique, so equality and hashing
    compare values, and the order is the entry count less one.
    ``TruncatedSeries(coeffs)`` builds one from exact values.
    """

    entries: tuple[int, ...]
    denominator: int

    def __init__(self, coeffs):
        self._store_coeffs(*_read_exact(require_items(coeffs, "coefficients")))

    def _store_coeffs(self, numerators: list[int], d: int) -> TruncatedSeries:
        """Set the fields to the series with coefficients numerators[i]/d, for d ≥ 1."""
        return self._store(list(map(mul, numerators, _factorials(len(numerators)))), d)

    def _store(self, entries: list[int], d: int) -> TruncatedSeries:
        """Set the fields to entries/d, for d ≥ 1, reduced by one gcd."""
        if not entries:
            raise ValidationError("a series needs at least one coefficient")
        entries, d = _lowest(entries, d)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "denominator", d)
        return self

    @property
    def order(self) -> int:
        return len(self.entries) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients c_0..c_order, as ``Fraction``."""
        return tuple(Fraction(v, q) for v, q in self._ratios())

    def _ratios(self):
        """(entries[i], denominator·i!) for i = 0..order: each coefficient, unreduced."""
        return zip(self.entries, _factorials(len(self.entries), self.denominator))

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None,
                    denominator: int = 1) -> TruncatedSeries:
        """The series with coefficients coeffs[i]/denominator, zero-padded up to
        `order` if given; `denominator` is a positive ``int``."""
        coeffs = require_items(coeffs, "coefficients")
        if order is None:
            order = max(len(coeffs) - 1, 0)
        require_int(order, "order", 0)
        require_int(denominator, "denominator", 1)
        if len(coeffs) > order + 1:
            raise ValidationError(f"{len(coeffs)} coefficients exceed order {order}")
        numerators, d = _read_exact(coeffs)
        padded = numerators + [0] * (order + 1 - len(coeffs))
        return object.__new__(cls)._store_coeffs(padded, d * denominator)

    @classmethod
    def from_egf_entries(cls, entries, denominator: int = 1) -> TruncatedSeries:
        """The series with coefficients entries[i]/(denominator·i!).

        Entries are exact values, read by :func:`_read_exact` after
        `denominator`, a positive ``int``, is checked: a common denominator
        taken out of them.  ``int`` entries are stored as they are, after
        one gcd.
        """
        entries = require_items(entries, "EGF entries")
        require_int(denominator, "denominator", 1)
        entries, d = _read_exact(entries)
        return object.__new__(cls)._store(entries, d * denominator)

    def egf_entries(self) -> list[Fraction]:
        """The EGF entries i!·c_i as ``Fraction``, inverse to :meth:`from_egf_entries`."""
        return [Fraction(v, self.denominator) for v in self.entries]

    def multiply(self, other: TruncatedSeries) -> TruncatedSeries:
        """Product truncated at min(self.order, other.order): the EGF product of the entries."""
        a = self.entries[: min(self.order, other.order) + 1]
        return TruncatedSeries.from_egf_entries(
            _egf_product(a, other.entries, 0), self.denominator * other.denominator
        )

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order.

        Requires a nonzero constant term; the inverse is the EGF quotient of
        1 by the series, exact throughout.  With the entries E over the
        denominator d, (E/d)⊛Q = 1 reads E⊛Q = d·1.
        """
        if self.entries[0] == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        one = [self.denominator] + [0] * self.order
        for quotient in _egf_quotient(zip(one, self.entries), self.order):
            pass
        return TruncatedSeries.from_egf_entries(*quotient)

    def __str__(self) -> str:
        parts: list[str] = []
        for i, (v, q) in enumerate(self._ratios()):
            if v:
                body = _ratio_text(abs(v), q)
                if i:
                    var = "x" if i == 1 else f"x^{i}"
                    body = var if body == "1" else f"{body} {var}"
                sign = "-" if v < 0 else "+"
                parts.append(f"{sign} {body}" if parts else f"-{body}" if v < 0 else body)
        return " ".join(parts) or "0"

    def to_json_obj(self) -> dict:
        return {"order": self.order, "coeffs": [_ratio_text(v, q) for v, q in self._ratios()]}

    @classmethod
    def from_json_obj(cls, obj) -> TruncatedSeries:
        """Read :meth:`to_json_obj` output; ValidationError if ``order`` disagrees.

        The coefficients are read by :func:`parse_rationals`, as integers
        over one denominator.
        """
        coeffs = json_list(json_value(obj, "coeffs"), "coeffs")
        s = object.__new__(cls)._store_coeffs(*parse_rationals(coeffs))
        json_derived(obj, "order", s.order, int)
        return s
