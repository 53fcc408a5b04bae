"""Exact arithmetic in Z[1/d] = {m/d^k} and its unit group.

Normal form: divide m by d while possible, so k = 0 or d does not divide
m; this form is unique.  Units are exactly the elements +-p1^{n1}...pl^{nl}
over the primes p1 < ... < pl dividing d, so the unit group is
Z^l x Z_2; the multiplier-action line inside the exponent lattice is
t * (m1, ..., ml) where d = p1^{m1}...pl^{ml}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Prime factorization by trial division (desk scale), ((p, e), ...)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@dataclass(frozen=True)
class RingElem:
    """m / d^k, normalized (k = 0 or d does not divide m)."""

    d: int
    m: int
    k: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        m, k = self.m, self.k
        while k > 0 and m % self.d == 0:
            m //= self.d
            k -= 1
        if m == 0:
            k = 0
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    @property
    def value(self) -> Fraction:
        return Fraction(self.m, self.d ** self.k)

    def _check(self, other: "RingElem"):
        if self.d != other.d:
            raise ValueError("ring mismatch")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        k = max(self.k, other.k)
        m = self.m * self.d ** (k - self.k) + other.m * self.d ** (k - other.k)
        return RingElem(self.d, m, k)

    def __neg__(self) -> "RingElem":
        return RingElem(self.d, -self.m, self.k)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return RingElem(self.d, self.m * other.m, self.k + other.k)


def ring_from_fraction(d: int, value: Fraction) -> Optional[RingElem]:
    """Represent an exact fraction in Z[1/d], or None if impossible."""
    den = value.denominator
    k = 0
    dk = 1
    while dk % den != 0:
        dk *= d
        k += 1
        if k > 64:
            return None
    return RingElem(d, value.numerator * (dk // den), k)


@dataclass(frozen=True)
class UnitDecomposition:
    d: int
    sign: int
    exponents: tuple  # over sorted primes of d

    def value(self) -> RingElem:
        primes = [p for p, _ in factorize(self.d)]
        mults = [e for _, e in factorize(self.d)]
        # lift to m/d^k: choose k so all shifted exponents are >= 0
        k = 0
        for n, mu in zip(self.exponents, mults):
            if n < 0:
                k = max(k, (-n + mu - 1) // mu)  # ceil(-n/mu)
        m = self.sign
        for p, n, mu in zip(primes, self.exponents, mults):
            m *= p ** (n + k * mu)
        return RingElem(self.d, m, k)

    def __mul__(self, other: "UnitDecomposition") -> "UnitDecomposition":
        if self.d != other.d:
            raise ValueError("ring mismatch")
        return UnitDecomposition(
            self.d, self.sign * other.sign,
            tuple(x + y for x, y in zip(self.exponents, other.exponents)))


def unit_decompose(x: RingElem) -> Optional[UnitDecomposition]:
    """Decompose a unit as sign * prod p_i^{n_i}; None if x is not a unit
    (including x = 0).  x is a unit iff |m| factors over the primes of d."""
    if x.m == 0:
        return None
    base = dict(factorize(x.d))
    primes = sorted(base)
    mfac = dict(factorize(abs(x.m)))
    if any(p not in base for p in mfac):
        return None
    exps = tuple(mfac.get(p, 0) - x.k * base[p] for p in primes)
    return UnitDecomposition(x.d, 1 if x.m > 0 else -1, exps)


def subgroup_membership(u: UnitDecomposition) -> Optional[int]:
    """t with u = d^t, i.e. exponents = t*(m_1..m_l) and positive sign;
    None when u is outside the multiplier line."""
    if u.sign != 1:
        return None
    mults = [e for _, e in factorize(u.d)]
    t = None
    for n, mu in zip(u.exponents, mults):
        if n % mu != 0:
            return None
        ti = n // mu
        if t is None:
            t = ti
        elif ti != t:
            return None
    return 0 if t is None else t


def brute_force_inverse(x: RingElem, m_bound: int, k_bound: int) -> Optional[RingElem]:
    """Search for y with x*y = 1, |numerator| <= m_bound, power <= k_bound.

    Equivalent to the naive scan over all m'/d^{k'}: x*y = 1 forces
    m' * m = d^{k+k'}, i.e. m | d^{k+k'} with quotient in range, so only
    divisibility needs checking.
    """
    if x.m == 0:
        return None
    for kp in range(k_bound + 1):
        target = x.d ** (x.k + kp)
        if target % abs(x.m) == 0:
            mp_ = target // x.m  # carries the sign of m
            if abs(mp_) <= m_bound:
                return RingElem(x.d, mp_, kp)
    return None
