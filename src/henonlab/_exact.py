"""Exact rational-complex scalars and the one exactness rule.

QC is a complex number with Fraction real and imaginary parts.  Mixed
arithmetic with floats/complex degrades to complex, so generic code can
use ordinary operators and stay exact exactly when all inputs are exact.

The rule is decided here and nowhere else: `field` puts a list of scalars
into one field up front (all QC when every one is exact, all complex
otherwise), and `support` says which of them are nonzero (exactly nonzero
in Q(i), above the caller's tolerance in floats).
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


_RATIONAL = (int, Fraction)


class QC:
    """Gaussian rational: re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # -- conversions ---------------------------------------------------
    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"QC({self.re!r}, {self.im!r})"

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, QC):
            return QC(self.re + other.re, self.im + other.im)
        if isinstance(other, _RATIONAL):
            return QC(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (QC, *_RATIONAL)):
            return self + (-other if isinstance(other, QC) else QC(-other))
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QC):
            return QC(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)
        if isinstance(other, _RATIONAL):
            return QC(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QC):
            den = other.re * other.re + other.im * other.im
            if not den:
                raise ZeroDivisionError("division by zero QC")
            return QC((self.re * other.re + self.im * other.im) / den,
                      (self.im * other.re - self.re * other.im) / den)
        if isinstance(other, _RATIONAL):
            return QC(self.re / other, self.im / other)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        return QC(other) / self if isinstance(other, _RATIONAL) else other / complex(self)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return QC(1) / self ** (-n)
        out = QC(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __abs__(self) -> float:
        return abs(complex(self))


def as_exact(v):
    """Return v as QC if it is exactly representable, else None.

    Floats and complex are deliberately not coerced: a float input means
    the caller already left the exact world.
    """
    if isinstance(v, QC):
        return v
    if isinstance(v, Rational):
        return QC(Fraction(v))
    return None


def field(values) -> list:
    """values as QC when every one is exact, else every one as complex."""
    exact = [as_exact(v) for v in values]
    if any(q is None for q in exact):
        return [complex(v) for v in values]
    return exact


def zero_of(v):
    """The zero of v's field: QC(0) for an exact v, 0.0 for an inexact one."""
    return QC(0) if as_exact(v) is not None else 0.0


def support(values, tol: float) -> list:
    """Indices of the nonzero entries of field(values): an exact entry
    unless it is exactly zero, an inexact one when its modulus exceeds tol."""
    return [j for j, v in enumerate(field(values))
            if (not v.is_zero() if isinstance(v, QC) else abs(v) > tol)]


def is_zero(v) -> bool:
    if isinstance(v, QC):
        return v.is_zero()
    return v == 0
