"""Exact scalar and polynomial arithmetic shared by the whole package.

Rationals are ``fractions.Fraction`` throughout.  This module adds the two
algebraic structures the map sums need on top of that: dense univariate
polynomials in the deformation variable ``gamma``, and the quadratic
extension Q[sqrt(2)] used for the alpha in {2, 1/2} special-value checks.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

NEG_INF = float("-inf")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Sqrt2:
    """Exact element a + b*sqrt(2) of the field Q[sqrt(2)]."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt2 values are immutable")

    @classmethod
    def of(cls, x) -> "Sqrt2":
        if isinstance(x, Sqrt2):
            return x
        return cls(_as_fraction(x), 0)

    def to_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def __add__(self, other):
        other = Sqrt2.of(other)
        return Sqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Sqrt2.of(other))

    def __rsub__(self, other):
        return Sqrt2.of(other) + (-self)

    def __mul__(self, other):
        other = Sqrt2.of(other)
        return Sqrt2(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Sqrt2":
        # (a + b*sqrt2)^-1 = (a - b*sqrt2) / (a^2 - 2 b^2); the norm is zero
        # only for a = b = 0 since sqrt(2) is irrational.
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        return Sqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        return self * Sqrt2.of(other).inverse()

    def __rtruediv__(self, other):
        return Sqrt2.of(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        base = self if k >= 0 else self.inverse()
        out = Sqrt2(1, 0)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, Sqrt2):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"Sqrt2({self.a!r}, {self.b!r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        return f"{self.a} + {self.b}*sqrt2"


SQRT2 = Sqrt2(0, 1)


def gamma_of(a):
    """Deformation parameter 1/A - A for a nonzero A (rational or Q[sqrt2])."""
    if not isinstance(a, Sqrt2):
        a = _as_fraction(a)
    if not a:
        raise ZeroDivisionError("gamma is undefined at A = 0")
    return 1 / a - a


class GammaPoly:
    """Dense univariate polynomial in gamma with Fraction coefficients.

    Trailing zero coefficients are trimmed; the zero polynomial has degree
    -inf.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("GammaPoly values are immutable")

    @classmethod
    def const(cls, c) -> "GammaPoly":
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other):
        if not isinstance(other, GammaPoly):
            other = GammaPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return GammaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return GammaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, GammaPoly):
            other = GammaPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GammaPoly):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return GammaPoly(out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "GammaPoly":
        c = _as_fraction(c)
        if c == 0:
            return ZERO
        return GammaPoly(tuple(c * x for x in self.coeffs))

    def evaluate(self, x):
        """Horner evaluation; works for Fraction and Sqrt2 arguments."""
        out = x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        if isinstance(other, GammaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) <= 1 and self.coefficient(0) == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "GammaPoly(0)"
        parts = [f"{c}*g^{k}" for k, c in enumerate(self.coeffs) if c]
        return "GammaPoly(" + " + ".join(parts) + ")"


ZERO = GammaPoly()
ONE = GammaPoly((1,))
GAMMA = GammaPoly((0, 1))
