"""Exact algebra of the covering-space layer over the escaping set.

Fiber-preserving affine maps (z, zeta) -> (beta z + gamma, alpha zeta)
with alpha a (d^2-1)-th root of unity and beta = alpha^{d+1}; the push
operations transporting them through the covering model in both
directions; deck transformations indexed by classes k/d^n of Z[1/d]/Z,
each held as the dyadic.RingElem m/d^k with 0 <= m < d^k; and the
constraint set of exponents compatible with a given lift polynomial,
solved in closed form by congruence_subgroup.

Roots of unity are exact integer exponents modulo d^2-1 throughout;
complex embedding happens only at evaluation boundaries, from the exact
rational angle (no accumulated rotation error).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from ._exact import QC, as_exact
from .boettcher import LiftPolynomial
from .dyadic import RingElem
from .errors import DomainError


def root_value(e: int, modulus: int):
    """exp(2*pi*i*e/modulus); exact (int or QC) at quarter-turn angles."""
    e %= modulus
    t = Fraction(e, modulus)
    if t == 0:
        return 1
    if t == Fraction(1, 2):
        return -1
    if t == Fraction(1, 4):
        return QC(0, 1)
    if t == Fraction(3, 4):
        return QC(0, -1)
    return cmath.exp(2j * math.pi * e / modulus)


@dataclass(frozen=True)
class RootOfUnity:
    """alpha = exp(2*pi*i*e/modulus) stored as the exact exponent e."""

    e: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "e", self.e % self.modulus)

    @classmethod
    def for_degree(cls, d: int, e: int) -> "RootOfUnity":
        return cls(e, d * d - 1)

    def value(self):
        return root_value(self.e, self.modulus)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return RootOfUnity(self.e + other.e, self.modulus)

    def __pow__(self, n: int) -> "RootOfUnity":
        return RootOfUnity(self.e * n, self.modulus)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.e, self.modulus)


@dataclass(frozen=True)
class FiberAffineMap:
    """(z, zeta) -> (beta z + gamma, alpha zeta) with beta = alpha^{d+1}."""

    d: int
    alpha: RootOfUnity
    gamma: object

    def __post_init__(self):
        if self.alpha.modulus != self.d * self.d - 1:
            raise ValueError("alpha modulus must be d^2 - 1")

    @property
    def beta_exponent(self) -> int:
        return (self.d + 1) * self.alpha.e % self.alpha.modulus

    @property
    def beta(self):
        return root_value(self.beta_exponent, self.alpha.modulus)

    def apply(self, point):
        z, zeta = point
        return (self.beta * z + self.gamma, self.alpha.value() * zeta)


def fiber_compose(f: FiberAffineMap, g: FiberAffineMap) -> FiberAffineMap:
    """f o g; exact whenever beta_f and the gammas are exact."""
    if f.d != g.d:
        raise ValueError("degree mismatch")
    return FiberAffineMap(f.d, f.alpha * g.alpha, f.beta * g.gamma + f.gamma)


def fiber_invert(f: FiberAffineMap) -> FiberAffineMap:
    beta_inv = root_value(-f.beta_exponent, f.alpha.modulus)
    return FiberAffineMap(f.d, f.alpha.inverse(), -(beta_inv * f.gamma))


# ---------------------------------------------------------------------------
# c_alpha and the push formulas
# ---------------------------------------------------------------------------

def c_alpha(alpha: RootOfUnity, q: LiftPolynomial):
    """(alpha^{d+1} - 1) * A_0; exactly 0 when alpha^{d+1} = 1.

    Depends only on the exponent (d+1)e mod d^2-1, which is invariant
    under e -> d*e, so c_{alpha^d} = c_alpha identically.
    """
    be = (q.d + 1) * alpha.e % alpha.modulus
    if be == 0:
        return 0
    return (root_value(be, alpha.modulus) - 1) * q.A[0]


def push(f: FiberAffineMap, direction: str, q: LiftPolynomial, a) -> FiberAffineMap:
    """Transport f through the covering model one level.

    plus:  gamma -> (a/d) gamma - c_alpha;  minus: gamma -> (d/a) gamma + c_alpha;
    both: exponent e -> d*e (fixing beta, since beta^{d-1} = 1).
    """
    d = f.d
    c = c_alpha(f.alpha, q)
    if direction == "plus":
        gamma = a / Fraction(d) * f.gamma - c
    elif direction == "minus":
        gamma = Fraction(d) / a * f.gamma + c
    else:
        raise ValueError("direction must be 'plus' or 'minus'")
    return FiberAffineMap(d, f.alpha ** d, gamma)


def push_iterated(f: FiberAffineMap, direction: str, n: int, q: LiftPolynomial,
                  a) -> FiberAffineMap:
    """Closed form of n pushes, gamma -> r gamma + c each: gamma_n =
    r^n gamma + c (r^n - 1)/(r - 1)  (n c when r = 1), with r = d/a,
    c = c_alpha (minus) or r = a/d, c = -c_alpha (plus, subtracted as push
    does: -0.0 + 0 is 0.0); e -> d^n e mod d^2-1 (as c_{alpha^d} = c_alpha).
    Exact for exact input while r^n stays under 10^6 bits; past that it is
    taken in mpmath from the exact r at 53 + ceil(log2 n) + 10 bits, as r's
    rounding grows n-fold in r^n, and rounded once to doubles."""
    if direction not in ("plus", "minus"):
        raise ValueError("direction must be 'plus' or 'minus'")
    if n < 0:
        raise ValueError("n must be >= 0")
    d = f.d
    c, gamma = c_alpha(f.alpha, q), f.gamma
    r = Fraction(d) / a if direction == "minus" else a / Fraction(d)  # exact for exact a
    exact = as_exact(r)  # exactly, (1/3)^(10^8) took 122 s
    big = exact is not None and n * max(math.log2(max(abs(t.numerator), t.denominator))
                                        for t in (exact.re, exact.im)) > 10 ** 6

    def closed(r, c, gamma):
        rn = r ** n
        geo = n if r == 1 or n == 1 else (rn - 1) / (r - 1)  # z/z need not be 1 for complex z
        step = rn * gamma
        return gamma if not n else step + c * geo if direction == "minus" else step - c * geo

    if big:
        import mpmath as mp

        def big_float(v):
            # an exact value rounded once to the working precision; a float,
            # or an exact value of imaginary part 0, as an mpf
            if isinstance(v, float):
                return mp.mpf(v)
            t = as_exact(v)
            if t is None:
                return mp.mpc(complex(v))
            re = mp.mpf(t.re.numerator) / t.re.denominator
            return mp.mpc(re, mp.mpf(t.im.numerator) / t.im.denominator) if t.im else re

        with mp.workprec(53 + (n - 1).bit_length() + 10):
            gamma = closed(*map(big_float, (r, c, gamma)))
        gamma = complex(gamma) if isinstance(gamma, mp.mpc) else float(gamma)
        if not cmath.isfinite(gamma):
            raise OverflowError("gamma_n is past the float range")
    else:
        gamma = closed(r, c, gamma)
    return FiberAffineMap(d, f.alpha ** pow(d, n, d * d - 1), gamma)


# ---------------------------------------------------------------------------
# Deck transformations
# ---------------------------------------------------------------------------

def deck_rational(k: int, n: int, d: int) -> RingElem:
    """The class of k/d^n mod Z, as m/d^k in normal form with 0 <= m < d^k."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return RingElem(d, k % d ** n, n)


def deck_compose(r1: RingElem, r2: RingElem) -> RingElem:
    """The class of r1 + r2 mod Z."""
    s = r1 + r2
    return RingElem(s.d, s.m % s.d ** s.k, s.k)


def deck_eval(r: RingElem, point, q: LiftPolynomial, a) -> tuple:
    """gamma_{m/d^k}(z, zeta) = (z + (d/a) sum_{l<k} (d/a)^l (Q(zeta^{d^l}) -
    Q((w zeta)^{d^l})), w zeta) with w = exp(2*pi*i*m/d^k); terms with
    l >= k vanish identically, so the sum is finite."""
    z, zeta = complex(point[0]), complex(point[1])
    if abs(zeta) <= 1.0:
        raise DomainError("deck transformations act on |zeta| > 1")
    d = r.d
    w = cmath.exp(2j * math.pi * r.m / d ** r.k)
    ratio = d / complex(a)
    shift = 0j
    for l in range(r.k):
        shift += ratio ** l * (q.q_eval(zeta ** (d ** l)) - q.q_eval((w * zeta) ** (d ** l)))
    return (z + ratio * shift, w * zeta)


def henon_lift(point, q: LiftPolynomial, a) -> tuple:
    """The covering model map (z, zeta) -> ((a/d) z + Q(zeta), zeta^d)."""
    z, zeta = point
    return ((complex(a) / q.d) * z + q.q_eval(zeta), zeta ** q.d)


# ---------------------------------------------------------------------------
# The exponent constraint set of Q
# ---------------------------------------------------------------------------

def congruence_subgroup(M: int, multipliers) -> range:
    """The exponents e mod M with c*e = 0 mod M for every c in multipliers.

    c*e = 0 mod M exactly when M/gcd(M, c) divides e, so the solutions are
    the multiples of the lcm of those quotients: a cyclic subgroup of Z_M.
    """
    return range(0, M, math.lcm(*(M // math.gcd(M, c) for c in multipliers)))


def compute_L_prime(q: LiftPolynomial) -> list:
    """All exponents e with (d+1-j)e = 0 mod d^2-1 for every nonzero A_j,
    1 <= j <= d-1 (the zeta^{d+1} term is automatic and A_0 is absorbed by
    c_alpha)."""
    d = q.d
    M = d * d - 1
    return [RootOfUnity(e, M)
            for e in congruence_subgroup(M, [d + 1 - j for j in q.nonzero_indices()])]
