"""Exact-rational arithmetic on truncated exponential generating functions.

A :class:`TruncatedSeries` is a polynomial of bounded degree with
:class:`fractions.Fraction` coefficients, standing for a power series known
only up to its truncation order.  The order is carried by the value itself,
never by ambient context: results of binary operations carry the minimum of
the operand orders, and truncating beyond the stored order is an error
because the dropped coefficients are unknown, not zero.

:func:`parse_rational` is the one reader of rationals from outside text
(matrix files, command-line values and the JSON readers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RangeError, ValidationError


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
    """Σ coeffs[i]·x^i for i = 0..order, with exact rational coefficients."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValidationError(f"order must be non-negative, got {self.order}")
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != self.order + 1:
            raise ValidationError(
                f"expected {self.order + 1} coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> TruncatedSeries:
        """Build from a coefficient list, zero-padding up to `order` if given."""
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = max(len(coeffs) - 1, 0)
        if len(coeffs) > order + 1:
            raise ValidationError(
                f"{len(coeffs)} coefficients exceed order {order}"
            )
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(order, tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls.from_coeffs([], order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls.from_coeffs([1], order)

    @classmethod
    def x(cls, order: int) -> TruncatedSeries:
        return cls.from_coeffs([0, 1], order)

    def truncate(self, n: int) -> TruncatedSeries:
        """Drop all terms of degree > n.  Raising the order is not possible."""
        if n > self.order:
            raise RangeError(
                f"cannot truncate order-{self.order} series at {n}: "
                "higher coefficients are unknown"
            )
        if n < 0:
            raise ValidationError(f"truncation order must be non-negative, got {n}")
        return TruncatedSeries(n, self.coeffs[: n + 1])

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
        return TruncatedSeries(n, tuple(out))

    def add(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        return TruncatedSeries(
            n, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1))
        )

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
        return TruncatedSeries(self.order, tuple(out))

    def scale(self, q) -> TruncatedSeries:
        q = Fraction(q)
        return TruncatedSeries(self.order, tuple(c * q for c in self.coeffs))

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
        return cls(int(obj["order"]), tuple(map(parse_rational, obj["coeffs"])))
