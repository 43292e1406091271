"""Exact-rational arithmetic on truncated exponential generating functions.

A :class:`TruncatedSeries` is a polynomial of bounded degree with
:class:`fractions.Fraction` coefficients, standing for a power series known
only up to its truncation order.  The order is carried by the value itself,
as its coefficient count, never by ambient context: a product carries the
minimum of the operand orders.

The package's EGF convention lives here alone: the series Σ c_i·x^i is the
exponential generating function of the entries i!·c_i, a matrix column in
the substitution condition.  :meth:`TruncatedSeries.from_egf_entries` and
:meth:`TruncatedSeries.egf_entries` convert between the two.

Every number the package reads from outside text (matrix files,
command-line values, the JSON readers and the exponents in word text)
follows one grammar, declared here; :func:`parse_integer` and
:func:`parse_rational` are its two readers.  The library constructors take
a series coefficient, matrix entry or Bell polynomial point by one rule,
:func:`exact_number`, which reads text through the same grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite

from .errors import ValidationError, json_derived, json_list, json_value, require_int


# The number grammar, in ASCII digits only.  An integer is INTEGER_PATTERN; a
# rational is an integer, p/q with q > 0, or a decimal with digits on at least
# one side of the point.  No '+', whitespace, '_' or exponent: a few bytes of
# "1e999999999" would make Fraction build the power of ten for minutes.
INTEGER_PATTERN = "-?[0-9]+"
_FRACTION_OR_DECIMAL = re.compile(rf"({INTEGER_PATTERN})/([0-9]+)|-?(?:[0-9]+\.[0-9]*|\.[0-9]+)")


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


@dataclass(frozen=True)
class TruncatedSeries:
    """Σ coeffs[i]·x^i for i = 0..order, with exact rational coefficients.

    The order is not stored: it is the coefficient count less one.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(Fraction(exact_number(c)) for c in self.coeffs)
        if not coeffs:
            raise ValidationError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> TruncatedSeries:
        """Build from a coefficient list, zero-padding up to `order` if given."""
        coeffs = tuple(coeffs)
        if order is None:
            order = max(len(coeffs) - 1, 0)
        require_int(order, "order", 0)
        if len(coeffs) > order + 1:
            raise ValidationError(
                f"{len(coeffs)} coefficients exceed order {order}"
            )
        return cls(coeffs + (0,) * (order + 1 - len(coeffs)))

    @classmethod
    def from_egf_entries(cls, entries, denominator: int = 1) -> TruncatedSeries:
        """The series with coefficients entries[i]/(denominator·i!).

        Entries are ``int`` or ``Fraction``; `denominator`, a positive
        ``int``, is a common denominator taken out of integer entries.
        """
        return cls(tuple(
            Fraction(v, denominator * factorial(i)) for i, v in enumerate(entries)
        ))

    def egf_entries(self) -> list[Fraction]:
        """The EGF entries i!·coeffs[i], inverse to :meth:`from_egf_entries`."""
        return [c * factorial(i) for i, c in enumerate(self.coeffs)]

    def multiply(self, other: TruncatedSeries) -> TruncatedSeries:
        """Cauchy product truncated at min(self.order, other.order)."""
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(tuple(out))

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse up to the truncation order.

        Requires a nonzero constant term; the usual recursion
        b_0 = 1/a_0, b_i = −(Σ_{u≥1} a_u b_{i−u})/a_0 stays exact.
        """
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        out = [Fraction(1, 1) / a0]
        for i in range(1, self.order + 1):
            s = sum(self.coeffs[u] * out[i - u] for u in range(1, i + 1))
            out.append(-s / a0)
        return TruncatedSeries(tuple(out))

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

    @classmethod
    def from_json_obj(cls, obj) -> TruncatedSeries:
        """Read :meth:`to_json_obj` output; ValidationError if ``order`` disagrees."""
        coeffs = json_list(json_value(obj, "coeffs"), "coeffs")
        s = cls(tuple(map(parse_rational, coeffs)))
        json_derived(obj, "order", s.order, int)
        return s
