"""Henon maps H(x,y) = (y, p(y) - ax) with p centered monic of degree d.

Provides exact construction and normalization, forward/inverse evaluation,
the overflow limit past which escape is certain, the sparse polynomial
Poly2 (evaluate on the coordinate polynomials gives H and H^{-1} as
polynomial maps, and evaluating one map at another composes them
exactly: the oracles of normalization and symmetries), the bound
_u_bound on |q/y^d| that every tail bound uses, and the proven
filtration radius.

Since |y'| >= |y|^d - sum_j |a_j||y|^j - |a||y| on V_r+ = {|y| >= max(|x|, r)},
the doubling |y'| >= 2|y| holds there once

    lead/r^{d-1} + sum_j |a_j|/r^{d-j} <= 1        (lead = 2 + |a|),

and with lead = 1 + 2|a| the same inequality proves |x'| = |p(x) - y|/|a|
>= 2|x| on V_r- = {|x| >= max(|y|, r)}.  The left side falls as r grows;
R is the least r >= max(1, (2(1+S))^{1/(d-1)}) that satisfies it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._exact import QC, as_exact, field, is_zero, support, zero_of
from .errors import InvalidMapError


@dataclass(frozen=True)
class HenonMap:
    """Centered monic Henon map: H(x,y) = (y, y^d + a_{d-2}y^{d-2} + ... + a_0 - ax).

    coeffs holds a_0 .. a_{d-2} (length d-1).  Entries may be exact
    (int/Fraction/QC) or inexact (float/complex); derived objects are
    exact exactly when every entry is (the `_exact.field` rule).
    """

    d: int
    a: object
    coeffs: tuple = ()

    def __post_init__(self):
        if self.d < 2:
            raise InvalidMapError(f"degree must be >= 2, got {self.d}")
        if is_zero(self.a):
            raise InvalidMapError("parameter a must be nonzero")
        if len(self.coeffs) != self.d - 1:
            raise InvalidMapError(
                f"need {self.d - 1} coefficients a_0..a_{self.d - 2}, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    # -- exactness -----------------------------------------------------
    @property
    def exact(self) -> bool:
        return as_exact(self.a) is not None and all(as_exact(c) is not None for c in self.coeffs)

    @property
    def a_complex(self) -> complex:
        return complex(self.a)

    @property
    def coeffs_complex(self) -> tuple:
        return tuple(complex(c) for c in self.coeffs)

    @cached_property
    def doubles(self) -> "HenonMap":
        """The map in complex doubles, built once: evaluate on it does the IEEE
        operations that exact or float coefficients reduce to at a complex point."""
        return HenonMap(self.d, self.a_complex, self.coeffs_complex)

    @cached_property
    def q_constants(self) -> tuple:
        """(A, B) = (sum |a_j|, |a|), so |q(x,y)| <= A|y|^{d-2} + B|x| for |y| >= 1;
        computed once per map (the cache leaves equality and hashing alone)."""
        return sum(abs(c) for c in self.coeffs_complex), abs(self.a_complex)

    @property
    def coeff_bound(self) -> float:
        """S = |a| + sum |a_j|; controls |q(x,y)| <= S*max(|y|,1)^{d-1} on |x| <= |y|."""
        A, B = self.q_constants
        return B + A

    # -- evaluation ----------------------------------------------------
    def p(self, y):
        """Evaluate p(y) = y^d + a_{d-2} y^{d-2} + ... + a_0: monic with no y^(d-1)
        term, so y leads the Horner coefficients and the first product is y*y."""
        return horner((*self.coeffs, y), y)


def horner(coeffs, t):
    """sum_k coeffs[k] t^k, coefficients low to high, by Horner's rule; works
    for exact scalars, complex floats, mpmath numbers and numpy arrays.  Each
    coefficient is added in place to the fresh product: no product is in place."""
    it = reversed(coeffs)
    acc = next(it)
    for c in it:
        acc = acc * t
        acc += c
    return acc


@dataclass(frozen=True)
class AffineConjugation:
    """Diagonal affine change of variables (x,y) -> (scale*x + shift, scale*y + shift)."""

    scale: object
    shift: object

    def __post_init__(self):
        if is_zero(self.scale):
            raise InvalidMapError("conjugation scale must be nonzero")

    def apply(self, z):
        x, y = z
        return (self.scale * x + self.shift, self.scale * y + self.shift)

    def inverse(self) -> "AffineConjugation":
        scale, shift = field([self.scale, self.shift])
        inv = 1 / scale
        return AffineConjugation(inv, -(inv * shift))


# ---------------------------------------------------------------------------
# Polynomial maps and composition
# ---------------------------------------------------------------------------

class Poly2:
    """Sparse polynomial in x and y: a dict {(i, m): c} for the terms
    c x^i y^m, with no explicit zeros.  Scalars act as constants in
    + - and *, so evaluate and horner run on it as on numbers, and the
    coefficients stay exact when every scalar is (m may be negative: a
    Laurent polynomial in y)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if not is_zero(v)}

    @staticmethod
    def _of(v) -> "Poly2":
        return v if isinstance(v, Poly2) else Poly2({(0, 0): v})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in Poly2._of(other).terms.items():
            out[k] = out[k] + v if k in out else v
        return Poly2(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly2({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly2._of(other)

    def __mul__(self, other):
        other, out = Poly2._of(other).terms, {}
        for (i1, m1), v1 in self.terms.items():
            for (i2, m2), v2 in other.items():
                k, v = (i1 + i2, m1 + m2), v1 * v2
                out[k] = out[k] + v if k in out else v
        return Poly2(out)

    __rmul__ = __mul__

    def __truediv__(self, c):
        """Division by a scalar, as multiplication by 1/c."""
        return self * (1 / c)

    def __pow__(self, n: int):
        out = Poly2({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"Poly2({self.terms!r})"

    def eval(self, x, y):
        return sum((v * x ** i * y ** m for (i, m), v in self.terms.items()), 0)

    def approx_eq(self, other: "Poly2", tol: float = 1e-12) -> bool:
        """Every coefficient of self - other within tol times the largest
        coefficient of either (or of 1)."""
        scale = max((abs(complex(v)) for v in (*self.terms.values(), *other.terms.values())),
                    default=0.0)
        return all(abs(complex(v)) <= tol * max(1.0, scale) for v in (self - other).terms.values())


# the coordinate polynomials (x, y)
XY = (Poly2({(1, 0): 1}), Poly2({(0, 1): 1}))


@dataclass
class PolyMap2:
    """Polynomial self-map of C^2: (x, y) -> (first(x,y), second(x,y))."""

    first: Poly2
    second: Poly2

    def eval(self, z):
        x, y = z
        return (self.first.eval(x, y), self.second.eval(x, y))

    def approx_eq(self, other: "PolyMap2", tol: float = 1e-12) -> bool:
        return self.first.approx_eq(other.first, tol) and self.second.approx_eq(other.second, tol)


def poly_map_of(m: HenonMap, inverse: bool = False) -> PolyMap2:
    """H (or H^{-1}) as a PolyMap2: evaluate at the coordinate polynomials,
    exact for an exact map."""
    if inverse:  # 1/a in the field of the map
        a, *coeffs = field([m.a, *m.coeffs])
        m = HenonMap(m.d, a, tuple(coeffs))
    return PolyMap2(*evaluate(m, XY, inverse))


def compose_poly_maps(f: PolyMap2, g: PolyMap2) -> PolyMap2:
    """f o g, exact for exact coefficients: f evaluated at g."""
    return PolyMap2(*f.eval((g.first, g.second)))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _principal_root(c, n: int):
    """Principal n-th root; stays exact for exact inputs when the root is rational."""
    if n == 1:
        return c
    cq = as_exact(c)
    if cq is not None and cq.im == 0 and cq.re > 0:
        f = cq.re
        num = round(f.numerator ** (1.0 / n))
        den = round(f.denominator ** (1.0 / n))
        if num > 0 and den > 0 and num ** n == f.numerator and den ** n == f.denominator:
            return QC(Fraction(num, den))
    return cmath.exp(cmath.log(complex(c)) / n)


def normalize(coeffs, a) -> tuple[HenonMap, AffineConjugation]:
    """Center and normalize a raw map (x,y) -> (y, P(y) - ax).

    coeffs is the full low-to-high coefficient list c_0..c_d of P.  Returns
    (H, A) with H centered monic and A(x,y) = (lam*x + mu, lam*y + mu) such
    that A o H o A^{-1} equals the raw map exactly (verifiable with
    compose_poly_maps).  lam is the principal (d-1)-th root of 1/c_d and mu
    kills the y^{d-1} coefficient.
    """
    coeffs = list(coeffs)
    d = len(coeffs) - 1
    if d < 2:
        raise InvalidMapError("polynomial degree must be >= 2")
    cd = coeffs[-1]
    if is_zero(cd):
        raise InvalidMapError("leading coefficient must be nonzero")
    if is_zero(a):
        raise InvalidMapError("parameter a must be nonzero")

    # the field is fixed once the root is known: a root that leaves the
    # rationals puts the whole normalization in floats
    *coeffs, a_val = field([*coeffs, a])
    *coeffs, a_val, lam = field([*coeffs, a_val, _principal_root(1 / coeffs[-1], d - 1)])
    mu = -coeffs[-2] / (d * coeffs[-1])

    # q(y) = (P(lam*y + mu) - (a+1)*mu) / lam, expanded by binomials
    n_terms = [0] * (d + 1)
    for k, ck in enumerate(coeffs):
        if is_zero(ck):
            continue
        for r in range(k + 1):
            # coefficient of y^r from ck * (lam*y + mu)^k
            n_terms[r] = n_terms[r] + ck * math.comb(k, r) * lam ** r * mu ** (k - r)
    n_terms[0] = n_terms[0] - (a_val + 1) * mu
    inv_lam = 1 / lam
    q = [inv_lam * t for t in n_terms]

    # sanity: finite, monic, centered
    if not all(cmath.isfinite(complex(t)) for t in q):
        raise InvalidMapError("normalization leaves the float range")
    scale = max(1.0, max(abs(complex(t)) for t in q))
    if abs(complex(q[d]) - 1) > 1e-9 * scale or abs(complex(q[d - 1])) > 1e-9 * scale:
        raise InvalidMapError("normalization failed to produce a centered monic polynomial")
    keep = support(q[: d - 1], 1e-13 * scale)  # inexact coefficients below it become 0.0
    tail = [t if j in keep else zero_of(t) for j, t in enumerate(q[: d - 1])]
    return HenonMap(d, a_val, tuple(tail)), AffineConjugation(lam, mu)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(m: HenonMap, z, inverse: bool = False):
    """One step of H (forward) or H^{-1} (inverse).

    Works for exact scalars, complex floats, mpmath numbers and Poly2, and
    for numpy arrays on m.doubles.
    """
    x, y = z
    if not inverse:
        return (y, m.p(y) - m.a * x)
    # mixed-type division resolves through QC's reflected operators
    return ((m.p(x) - y) / m.a, x)


def overflow_limit(d: int) -> float:
    """Magnitude above which the next step could overflow doubles; escape is then certain."""
    return 10.0 ** (260.0 / d)


def _u_bound(m: HenonMap, yabs: float, inverse: bool = False) -> float:
    """Upper bound A/|y|^2 + B/|y|^{d-1} for |q(x,y)/y^d| on |x| <= |y|,
    |y| = yabs >= 1, or backwards for |(q(x) - y)/x^d| on |y| <= |x|,
    |x| = yabs >= 1; A = sum |a_j| and B = |a| are the map's cached
    q_constants, and B = 1 backwards.  yabs is a float or a numpy array."""
    A, B = (m.q_constants[0], 1.0) if inverse else m.q_constants
    try:
        return A / yabs ** 2 + B / yabs ** (m.d - 1)
    except OverflowError:  # |y|^k past the float range; the negative powers underflow
        return A * yabs ** -2 + B * yabs ** (1 - m.d)


# ---------------------------------------------------------------------------
# Filtration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationRadius:
    """Radius R >= 1 with H(V_R+) in V_R+ and |y'| >= 2|y| there, proven."""

    R: float


def in_v_plus(z, R: float) -> bool:
    x, y = complex(z[0]), complex(z[1])
    return abs(y) >= max(abs(x), R)


def doubling_radius(m: HenonMap, lead: float) -> float:
    """Least r >= max(1, (2(1+S))^{1/(d-1)}) with lead/r^{d-1} +
    sum_j |a_j|/r^{d-j} <= 1: lead 2+|a| proves forward doubling on V_r+,
    lead 1+2|a| backward doubling on V_r- (see the module docstring)."""
    d = m.d
    b = [0.0] * (d + 1)  # the left side as a polynomial in t = 1/r <= 1
    for j, c in enumerate(m.coeffs_complex):
        b[d - j] = abs(c)
    b[d - 1] += lead

    def holds(r):
        return horner(b, 1.0 / r) <= 1.0

    lo = max(1.0, (2.0 * (1.0 + m.coeff_bound)) ** (1.0 / (d - 1)))
    if holds(lo):
        return lo
    # for r >= 1 the left side is at most sum(b)/r, so hi holds with room
    hi = 2.0 * sum(b)
    while True:  # bisect geometrically: the ends may be 1e300 apart
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return hi
        if holds(mid):
            hi = mid
        else:
            lo = mid


def estimate_filtration_radius(m: HenonMap) -> FiltrationRadius:
    """The forward doubling radius: H maps V_R+ = {|y| >= max(|x|, R)} into
    itself with |y'| >= 2|y| (x' = y, so H(z) stays in V_R+)."""
    return FiltrationRadius(doubling_radius(m, 2.0 + abs(m.a_complex)))


def filtration_of(m: HenonMap, filtration: Optional[FiltrationRadius]) -> FiltrationRadius:
    """filtration, or the map's estimate_filtration_radius when it is None."""
    return filtration if filtration is not None else estimate_filtration_radius(m)
