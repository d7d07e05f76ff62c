"""Exact arithmetic in the real quadratic field Q(sqrt 2).

Every coordinate, rotation-matrix entry and fold transform in this package
lives in Q(sqrt2) = {a + b*sqrt(2) : a, b rational}: the square-grid
construction only ever needs multiples of 45 degrees, whose sines and
cosines stay inside the field.  Keeping the arithmetic exact turns every
geometric predicate (coincidence, coplanarity, orthogonality) into integer
arithmetic with no tolerances.

A ``Q2`` holds three integers ``(p, q, d)`` standing for (p + q*sqrt2)/d,
kept canonical: d > 0 and gcd(p, q, d) = 1, so equal values have equal
components.  ``+ - * /`` are the field operations, each a few integer
products and at most one ``math.gcd`` (none for results in Z[sqrt2]);
operands with the same denominator skip the cross-multiplication.  ``sign()`` decides the sign of p + q*sqrt2 by
comparing p^2 with 2*q^2, never through floating point.  That integer
test is public as ``sign_z2(p, q)``, so code that clears denominators
itself (the hull in ``solids``, the exact kernel in ``geom``) decides signs
the same way on plain ints, without building a ``Q2``; ``z2_quotient``
turns such ints back into one ``Q2``.

``Fraction`` appears only at the boundary: the constructor accepts
int/``Fraction`` components and ``.a``/``.b`` return them as ``Fraction``.
``parse`` reads each numerator and denominator with ``int``, a rational
value hashes by Python's numeric-hash rule on ints, and ``str`` prints
each component in lowest terms.  ``fractions`` is imported only where a
``Fraction`` goes in or out, so parsing, hashing, arithmetic and comparison
never load it (nor ``decimal``, which it imports).
"""

from __future__ import annotations

import math
import re
import sys
from functools import total_ordering
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

_RATIONAL = r"-?\d+(?:/\d+)?"
_LITERAL_RE = re.compile(
    rf"^(?P<rat>{_RATIONAL})?"
    rf"(?:(?P<sgn>[+-])?(?:(?P<coef>\d+(?:/\d+)?)\*)?(?P<s2>sqrt2))?\Z"
)
_SQRT2_F = math.sqrt(2.0)


def sign_z2(p: int, q: int) -> int:
    """Sign of p + q*sqrt2 for integers p, q.

    With opposite signs, |p| vs |q|*sqrt2 is decided by p^2 vs 2*q^2;
    sqrt(2) being irrational, p + q*sqrt2 = 0 only for p = q = 0.
    """
    if not q:
        return (p > 0) - (p < 0)
    if p >= 0 and q > 0:
        return 1
    if p <= 0 and q < 0:
        return -1
    if p * p > 2 * q * q:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


@total_ordering
class Q2:
    """The number (p + q*sqrt(2))/d with integers d > 0, gcd(p, q, d) = 1.

    Immutable and hashable; rational values hash like the equal
    ``Fraction`` (and ``int``), so they compare and hash consistently with
    those.  The rational components a = p/d and b = q/d are available as
    ``.a`` and ``.b``.
    """

    __slots__ = ("p", "q", "d", "_hash")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        if type(a) is int and type(b) is int:
            self.p, self.q, self.d = a, b, 1
            return
        from fractions import Fraction

        a, b = Fraction(a), Fraction(b)
        da, db = a.denominator, b.denominator
        d = da // gcd(da, db) * db
        # a, b in lowest terms with d their lcm: gcd(p, q, d) = 1 already
        self.p, self.q, self.d = a.numerator * (d // da), b.numerator * (d // db), d

    @classmethod
    def coerce(cls, x: "Q2 | int | Fraction") -> "Q2":
        if isinstance(x, Q2):
            return x
        if isinstance(x, int) or _is_fraction(x):
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
        if m.group("s2") and m.group("rat") and m.group("sgn") is None:
            raise ValueError(f"invalid Q2 literal: {text!r}")
        p, d = _ratio(m.group("rat") or "0")
        q, e = _ratio(m.group("coef") or "1") if m.group("s2") else (0, 1)
        if not d or not e:  # a zero denominator, as in "1/0"
            raise ValueError(f"invalid Q2 literal: {text!r}")
        if m.group("sgn") == "-":
            q = -q
        return _reduced(p * e, q * d, d * e)

    @property
    def a(self) -> Fraction:
        """The rational part p/d."""
        from fractions import Fraction

        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient q/d of sqrt2."""
        from fractions import Fraction

        return Fraction(self.q, self.d)

    # -- field operations ------------------------------------------------

    def __add__(self, other: "Q2 | int | Fraction") -> "Q2":
        if type(other) is not Q2:
            if type(other) is int:  # gcd(p + k*d, q, d) = gcd(p, q, d) = 1
                return _new(self.p + other * self.d, self.q, self.d)
            other = Q2.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.p + other.p, self.q + other.q, d)
        return _reduced(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: "Q2 | int | Fraction") -> "Q2":
        if type(other) is not Q2:
            if type(other) is int:
                return _new(self.p - other * self.d, self.q, self.d)
            other = Q2.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.p - other.p, self.q - other.q, d)
        return _reduced(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other: "Q2 | int | Fraction") -> "Q2":
        return Q2.coerce(other) - self

    def __neg__(self) -> "Q2":
        return _new(-self.p, -self.q, self.d)

    def __mul__(self, other: "Q2 | int | Fraction") -> "Q2":
        if type(other) is not Q2:
            other = Q2.coerce(other)
        p, q, r, s = self.p, self.q, other.p, other.q
        return _reduced(p * r + 2 * q * s, p * s + q * r, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Q2":
        """Multiplicative inverse via the conjugate: d(p - q*sqrt2)/(p^2 - 2q^2)."""
        p, q, d = self.p, self.q, self.d
        norm = p * p - 2 * q * q
        if not norm:
            raise ZeroDivisionError("Q2 division by zero")
        return _reduced(d * p, -d * q, norm)

    def __truediv__(self, other: "Q2 | int | Fraction") -> "Q2":
        return self * Q2.coerce(other).inverse()

    def __rtruediv__(self, other: "Q2 | int | Fraction") -> "Q2":
        return Q2.coerce(other) / self

    def __pow__(self, n: int) -> "Q2":
        if not isinstance(n, int):
            return NotImplemented
        base = self.inverse() if n < 0 else self
        n = abs(n)
        out = ONE
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and order ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def sign(self) -> int:
        """Exact sign of the real value (-1, 0 or +1); d > 0 leaves it to
        p + q*sqrt2."""
        return sign_z2(self.p, self.q)

    def __eq__(self, other: object) -> bool:
        if type(other) is Q2:
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, int):
            return not self.q and self.d == 1 and self.p == other
        if _is_fraction(other):
            return (not self.q and self.p == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __lt__(self, other: "Q2 | int | Fraction") -> bool:
        """Decided by the sign of the unreduced difference."""
        if type(other) is not Q2:
            other = Q2.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return sign_z2(self.p - other.p, self.q - other.q) < 0
        return sign_z2(self.p * e - other.p * d, self.q * e - other.q * d) < 0

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        if self.q:
            h = hash((self.p, self.q, self.d))
        else:  # a rational value hashes like its int or Fraction, by Python's numeric rule
            mod = sys.hash_info.modulus  # (hash() itself turns a -1 into -2)
            h = abs(self.p) * pow(self.d, -1, mod) % mod if self.d % mod else sys.hash_info.inf
            h = h if self.p >= 0 else -h
        self._hash = h
        return h

    def __bool__(self) -> bool:
        return bool(self.p or self.q)

    # -- conversions -------------------------------------------------------

    def __float__(self) -> float:
        return self.p / self.d + self.q / self.d * _SQRT2_F

    def __str__(self) -> str:
        p, q, d = self.p, self.q, self.d
        ga, gb = gcd(p, d), gcd(q, d)
        sep = "-" if q < 0 else "+"
        return f"{p // ga}/{d // ga}{sep}{abs(q) // gb}/{d // gb}*sqrt2"

    def __repr__(self) -> str:
        return f"Q2({self.a!r}, {self.b!r})"


def _is_fraction(x: object) -> bool:
    """x is a ``Fraction``; decided without loading ``fractions``, before which there is none."""
    return "fractions" in sys.modules and isinstance(x, sys.modules["fractions"].Fraction)


def _ratio(text: str) -> tuple[int, int]:
    """Numerator and denominator of a rational literal, read with ``int``."""
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _new(p: int, q: int, d: int) -> Q2:
    """A Q2 from components already in canonical form."""
    x = object.__new__(Q2)
    x.p, x.q, x.d = p, q, d
    return x


def _reduced(p: int, q: int, d: int) -> Q2:
    """A Q2 from any components with d != 0."""
    if d != 1:  # values in Z[sqrt2] skip the gcd
        if d < 0:
            p, q, d = -p, -q, -d
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    x = object.__new__(Q2)
    x.p, x.q, x.d = p, q, d
    return x


ZERO = Q2(0)
ONE = Q2(1)
SQRT2 = Q2(0, 1)


def z2_quotient(p: int, q: int, r: int, s: int) -> Q2:
    """(p + q*sqrt2)/(r + s*sqrt2) for integers: (p + q*sqrt2)(r - s*sqrt2)/(r^2 - 2s^2)."""
    return _reduced(p * r - 2 * q * s, q * r - p * s, r * r - 2 * s * s)


def parse(text: str) -> Q2:
    return Q2.parse(text)
