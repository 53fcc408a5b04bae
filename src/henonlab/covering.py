"""Exact algebra of the covering-space layer over the escaping set.

Fiber-preserving affine maps (z, zeta) -> (beta z + gamma, alpha zeta)
with alpha a (d^2-1)-th root of unity and beta = alpha^{d+1}; the push
operations transporting them through the covering model in both
directions; deck transformations indexed by k/d^n in Z[1/d]/Z; and the
constraint set of exponents compatible with a given lift polynomial.

Roots of unity are exact integer exponents modulo d^2-1 throughout;
complex embedding happens only at evaluation boundaries, from the exact
rational angle (no accumulated rotation error).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from ._exact import QC, is_zero
from .boettcher import LiftPolynomial
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

    def is_identity(self) -> bool:
        return self.alpha.e == 0 and is_zero(self.gamma)


def fiber_identity(d: int) -> FiberAffineMap:
    return FiberAffineMap(d, RootOfUnity.for_degree(d, 0), 0)


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


def _ratio(num, den):
    """num/den staying exact for integer inputs."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def push(f: FiberAffineMap, direction: str, q: LiftPolynomial, a) -> FiberAffineMap:
    """Transport f through the covering model one level.

    plus:  gamma -> (a/d) gamma - c_alpha;  minus: gamma -> (d/a) gamma + c_alpha;
    both: exponent e -> d*e (fixing beta, since beta^{d-1} = 1).
    """
    d = f.d
    c = c_alpha(f.alpha, q)
    if direction == "plus":
        gamma = _ratio(a, d) * f.gamma - c
    elif direction == "minus":
        gamma = _ratio(d, a) * f.gamma + c
    else:
        raise ValueError("direction must be 'plus' or 'minus'")
    return FiberAffineMap(d, f.alpha ** d, gamma)


def push_iterated(f: FiberAffineMap, direction: str, n: int, q: LiftPolynomial,
                  a) -> FiberAffineMap:
    """Closed form of n minus-pushes with r = d/a:
    gamma_n = r^n gamma + c_alpha (r^n - 1)/(r - 1)  (n c_alpha when r = 1),
    exponent e -> d^n e mod d^2-1 (valid because c_{alpha^d} = c_alpha)."""
    if direction != "minus":
        raise ValueError("closed form implemented for the minus direction")
    if n < 0:
        raise ValueError("n must be >= 0")
    d = f.d
    r = _ratio(d, a)
    c = c_alpha(f.alpha, q)
    rn = r ** n
    geo = n if r == 1 else (rn - 1) / (r - 1)
    gamma = rn * f.gamma + c * geo if n else f.gamma
    return FiberAffineMap(d, f.alpha ** pow(d, n, d * d - 1), gamma)


# ---------------------------------------------------------------------------
# Deck transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeckRational:
    """Class k/d^n mod Z, normalized: 0 <= k < d^n and (d does not divide k or n = 0)."""

    k: int
    n: int
    d: int


def deck_rational(k: int, n: int, d: int) -> DeckRational:
    if n < 0:
        raise ValueError("n must be >= 0")
    k %= d ** n
    while n > 0 and k % d == 0:
        k //= d
        n -= 1
    if k == 0:
        n = 0
    return DeckRational(k, n, d)


def deck_compose(r1: DeckRational, r2: DeckRational) -> DeckRational:
    if r1.d != r2.d:
        raise ValueError("degree mismatch")
    n = max(r1.n, r2.n)
    d = r1.d
    k = r1.k * d ** (n - r1.n) + r2.k * d ** (n - r2.n)
    return deck_rational(k, n, d)


def deck_eval(r: DeckRational, point, q: LiftPolynomial, a) -> tuple:
    """gamma_{k/d^n}(z, zeta) = (z + (d/a) sum_{l<n} (d/a)^l (Q(zeta^{d^l}) -
    Q((w zeta)^{d^l})), w zeta) with w = exp(2*pi*i*k/d^n); terms with
    l >= n vanish identically, so the sum is finite."""
    z, zeta = complex(point[0]), complex(point[1])
    if abs(zeta) <= 1.0:
        raise DomainError("deck transformations act on |zeta| > 1")
    d = r.d
    w = cmath.exp(2j * math.pi * r.k / d ** r.n)
    ratio = d / complex(a)
    shift = 0j
    for l in range(r.n):
        shift += ratio ** l * (q.q_eval(zeta ** (d ** l)) - q.q_eval((w * zeta) ** (d ** l)))
    return (z + ratio * shift, w * zeta)


def henon_lift(point, q: LiftPolynomial, a, variant: str = "a-over-d") -> tuple:
    """The covering model map; variant 'd-over-a' exists only so the
    convention-pinning test can demonstrate that it fails."""
    if variant not in ("a-over-d", "d-over-a"):
        raise ValueError(f"unknown variant {variant!r}")
    z, zeta = point
    first = ((complex(a) / q.d) if variant == "a-over-d" else (q.d / complex(a))) * z \
        + q.q_eval(zeta)
    return (first, zeta ** q.d)


# ---------------------------------------------------------------------------
# The exponent constraint set of Q
# ---------------------------------------------------------------------------

def compute_L_prime(q: LiftPolynomial, zero_threshold: float = 1e-9) -> list:
    """All exponents e with (d+1-j)e = 0 mod d^2-1 for every retained
    nonzero A_j, 1 <= j <= d-1 (the zeta^{d+1} term is automatic and A_0
    is absorbed by c_alpha).  Always a subgroup of Z_{d^2-1}."""
    if zero_threshold <= 0:
        raise ValueError("zero_threshold must be positive")
    d = q.d
    M = d * d - 1
    idx = q.nonzero_indices(zero_threshold)
    out = [e for e in range(M)
           if all((d + 1 - j) * e % M == 0 for j in idx)]
    members = set(out)
    for e1 in out:  # subgroup sanity, cheap at this size
        for e2 in out:
            assert (e1 + e2) % M in members
    return [RootOfUnity(e, M) for e in out]
