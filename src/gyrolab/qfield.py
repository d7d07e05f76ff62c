"""Exact arithmetic in the real quadratic field Q(sqrt 2).

Every coordinate, rotation-matrix entry and fold transform in this package
lives in Q(sqrt2) = {a + b*sqrt(2) : a, b rational}: the square-grid
construction only ever needs multiples of 45 degrees, whose sines and
cosines stay inside the field.  Keeping the arithmetic exact turns every
geometric predicate (coincidence, coplanarity, orthogonality) into integer
arithmetic with no tolerances.

``Q2`` values are immutable and hashable; ``+ - * /`` are the field
operations.  ``sign()`` decides the sign of the real value a + b*sqrt(2)
by rational case analysis, never through floating point.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

_RATIONAL = r"-?\d+(?:/\d+)?"
_LITERAL_RE = re.compile(
    rf"^(?P<rat>{_RATIONAL})?"
    rf"(?:(?P<sgn>[+-])?(?:(?P<coef>\d+(?:/\d+)?)\*)?(?P<s2>sqrt2))?$"
)


@total_ordering
class Q2:
    """The number a + b*sqrt(2) with rational a, b in lowest terms.

    ``Fraction`` keeps (a, b) canonical, so value equality coincides with
    component equality and instances hash consistently.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def coerce(cls, x: "Q2 | int | Fraction") -> "Q2":
        if isinstance(x, Q2):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {type(x).__name__} as Q2")

    @classmethod
    def parse(cls, text: str) -> "Q2":
        """Parse the canonical form ``a/b+c/d*sqrt2`` or its shorthands.

        Accepted shorthands: a bare rational ("3", "-1/2"), a bare sqrt2
        term ("sqrt2", "-3/4*sqrt2"), or the combined form ("1+1*sqrt2").
        No whitespace.
        """
        m = _LITERAL_RE.match(text)
        if m is None or (m.group("rat") is None and m.group("s2") is None):
            raise ValueError(f"invalid Q2 literal: {text!r}")
        a = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        b = Fraction(0)
        if m.group("s2"):
            if m.group("rat") and m.group("sgn") is None:
                raise ValueError(f"invalid Q2 literal: {text!r}")
            b = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("sgn") == "-":
                b = -b
        return cls(a, b)

    # -- field operations ------------------------------------------------

    def __add__(self, other: "Q2 | int | Fraction") -> "Q2":
        o = Q2.coerce(other)
        return Q2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: "Q2 | int | Fraction") -> "Q2":
        o = Q2.coerce(other)
        return Q2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: "Q2 | int | Fraction") -> "Q2":
        return Q2.coerce(other) - self

    def __neg__(self) -> "Q2":
        return Q2(-self.a, -self.b)

    def __mul__(self, other: "Q2 | int | Fraction") -> "Q2":
        o = Q2.coerce(other)
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        """Multiplicative inverse via the conjugate: (a - b*sqrt2)/(a^2 - 2b^2)."""
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("Q2 division by zero")
        return Q2(self.a / norm, -self.b / norm)

    def __truediv__(self, other: "Q2 | int | Fraction") -> "Q2":
        return self * Q2.coerce(other).inverse()

    def __rtruediv__(self, other: "Q2 | int | Fraction") -> "Q2":
        return Q2.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Q2":
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        n = abs(n)
        out = Q2(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Q2":
        return Q2(self.a, -self.b)

    # -- predicates and order ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt2 (-1, 0 or +1).

        Decided by comparing a^2 against 2*b^2 with case analysis on the
        component signs; sqrt(2) being irrational, a + b*sqrt2 = 0 only
        for a = b = 0.
        """
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: |a| vs |b|*sqrt2  <=>  a^2 vs 2 b^2
        a2, b2 = self.a * self.a, 2 * self.b * self.b
        if a2 == b2:  # impossible for nonzero rationals, kept for safety
            return 0
        bigger_rational = a2 > b2
        return (1 if bigger_rational else -1) if self.a > 0 else (-1 if bigger_rational else 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Q2):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other: "Q2 | int | Fraction") -> bool:
        return (self - Q2.coerce(other)).sign() < 0

    def __hash__(self) -> int:
        # rational values must hash like their Fraction (== with int/Fraction)
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __str__(self) -> str:
        sep = "-" if self.b < 0 else "+"
        b = abs(self.b)
        return (
            f"{self.a.numerator}/{self.a.denominator}"
            f"{sep}{b.numerator}/{b.denominator}*sqrt2"
        )

    def __repr__(self) -> str:
        return f"Q2({self.a!r}, {self.b!r})"


ZERO = Q2(0)
ONE = Q2(1)
SQRT2 = Q2(0, 1)


def sign(x: Q2) -> int:
    return x.sign()


def inverse(x: Q2) -> Q2:
    return x.inverse()


def parse(text: str) -> Q2:
    return Q2.parse(text)
