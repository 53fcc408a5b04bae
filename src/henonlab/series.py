"""Sparse algebra on monomials x^i y^m (i >= 0, m in Z).

A LaurentSeries2 is a dict (i, m) -> coefficient with no explicit zeros
and an optional grade floor dmin on delta = i + m:

- dmin=None: an exact bivariate polynomial (used for map composition);
- dmin an int: a truncated series that silently drops terms with
  delta < dmin.  Truncated multiplication is exact for the use here
  because every multiplied factor has all grades <= 0 (valid on
  |x| <= |y|, |y| large).

Coefficients may be exact (QC/Fraction/int) or complex floats; mixed
arithmetic degrades to complex.  Scalars are coerced to constants in
+, - and *.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._exact import is_zero


class LaurentSeries2:
    __slots__ = ("terms", "dmin")

    def __init__(self, dmin: int | None, terms=None):
        self.dmin = dmin
        self.terms = {}
        if terms:
            for (i, mth), v in terms.items():
                if (dmin is None or i + mth >= dmin) and not is_zero(v):
                    self.terms[(i, mth)] = v

    # -- constructors --------------------------------------------------
    @classmethod
    def const(cls, c, dmin: int | None):
        return cls(dmin, {(0, 0): c})

    @classmethod
    def mono(cls, coeff, i: int, m: int, dmin: int | None):
        return cls(dmin, {(i, m): coeff})

    # -- basic ops -----------------------------------------------------
    def _new(self, terms):
        s = LaurentSeries2.__new__(LaurentSeries2)
        s.dmin = self.dmin
        s.terms = terms
        return s

    def _coerce(self, other):
        if isinstance(other, LaurentSeries2):
            return other
        return LaurentSeries2.const(other, self.dmin)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries2):
            other = LaurentSeries2.const(other, self.dmin)
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return self._new(out)

    def __radd__(self, other):
        return self._coerce(other) + self

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries2):
            other = LaurentSeries2.const(other, self.dmin)
        dmin = -math.inf if self.dmin is None else self.dmin   # a polynomial keeps every term
        out = {}
        for (i1, m1), v1 in self.terms.items():
            for (i2, m2), v2 in other.terms.items():
                i, mth = i1 + i2, m1 + m2
                if i + mth < dmin:
                    continue
                k = (i, mth)
                s = out.get(k, 0) + v1 * v2
                if is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return self._new(out)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries2):
            return NotImplemented
        return self.dmin == other.dmin and self.terms == other.terms

    def scaled(self, c):
        if is_zero(c):
            return self._new({})
        return self._new({k: c * v for k, v in self.terms.items()})

    def shifted(self, i0: int, m0: int):
        """Multiply by the monomial x^{i0} y^{m0}.

        The result is only complete down to grade dmin + i0 + m0; callers
        shifting upward must have headroom in dmin.
        """
        dmin = self.dmin
        out = {}
        for (i, mth), v in self.terms.items():
            k = (i + i0, mth + m0)
            if (dmin is None or k[0] + k[1] >= dmin) and k[0] >= 0:
                out[k] = v
        return self._new(out)

    def max_grade(self):
        return max((i + m for (i, m) in self.terms), default=None)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, i: int, m: int):
        return self.terms.get((i, m), 0)

    # -- polynomial evaluation and substitution ------------------------
    def substitute(self, px: "LaurentSeries2", py: "LaurentSeries2") -> "LaurentSeries2":
        """Evaluate self (all m >= 0) at x = px, y = py over cached powers."""
        out = LaurentSeries2(px.dmin)
        xpow = {0: LaurentSeries2.const(1, px.dmin)}
        ypow = {0: LaurentSeries2.const(1, px.dmin)}

        def power(cache, base, n):
            if n not in cache:
                cache[n] = power(cache, base, n - 1) * base
            return cache[n]

        for (i, j), v in self.terms.items():
            out = out + power(xpow, px, i) * power(ypow, py, j) * v
        return out

    def eval(self, x, y):
        acc = 0
        for (i, j), v in self.terms.items():
            acc = acc + v * x ** i * y ** j
        return acc

    def max_abs(self) -> float:
        return max((abs(complex(v)) for v in self.terms.values()), default=0.0)

    def approx_eq(self, other: "LaurentSeries2", tol: float = 1e-12) -> bool:
        keys = set(self.terms) | set(other.terms)
        scale = max(1.0, self.max_abs(), other.max_abs())
        return all(
            abs(complex(self.terms.get(k, 0)) - complex(other.terms.get(k, 0))) <= tol * scale
            for k in keys)

    # -- powers of a series --------------------------------------------
    def binomial_pow(self, r):
        """(1 + u)^r for self = 1 + u with all grades of u <= -1.

        r may be any Fraction/int (negative allowed); the binomial series
        terminates at order -dmin because u^k has top grade <= -k.
        """
        one = self.coeff(0, 0)
        if is_zero(one - 1):
            u = self - one
        else:
            raise ValueError("binomial_pow requires constant term 1")
        mg = u.max_grade()
        if mg is not None and mg > -1:
            raise ValueError("binomial_pow requires u with grades <= -1")
        r = Fraction(r) if isinstance(r, int) else r
        out = LaurentSeries2.const(1, self.dmin)
        upow = LaurentSeries2.const(1, self.dmin)
        coef = Fraction(1)
        for k in range(1, -self.dmin + 1):
            coef = coef * (r - (k - 1)) / k
            upow = upow * u
            if upow.is_zero():
                break
            out = out + upow.scaled(coef)
        return out

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0]))
        return f"LaurentSeries2(dmin={self.dmin}, {dict(items)!r})"
