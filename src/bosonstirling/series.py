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

:func:`parse_rational` is the one reader of rationals from outside text
(matrix files, command-line values and the JSON readers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ValidationError, json_int


def parse_rational(text: str | int) -> Fraction:
    """Read an exact rational (an integer, ``p/q`` or a decimal) from outside text.

    Exponent notation is rejected: ``Fraction("1e999999999")`` builds the
    power of ten digit by digit, in time superlinear in the exponent, so a
    few bytes of input could stall the program.  An ``int``, as a JSON
    reader returns it, is taken as it is; any other type is rejected, and so
    is a zero denominator.
    """
    if type(text) is int:
        return Fraction(text)
    if type(text) is not str:
        raise ValidationError(f"expected a rational as a string, got {text!r}")
    if "e" in text or "E" in text:
        raise ValidationError(f"exponent notation is not accepted: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class TruncatedSeries:
    """Σ coeffs[i]·x^i for i = 0..order, with exact rational coefficients.

    The order is not stored: it is the coefficient count less one.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(map(Fraction, self.coeffs))
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
        s = cls(tuple(map(parse_rational, obj["coeffs"])))
        if s.order != json_int(obj, "order"):
            raise ValidationError(
                f"serialized order {obj['order']!r} does not match "
                f"{len(s.coeffs)} coefficients"
            )
        return s
