"""Exact arithmetic in Z[1/d] = {m/d^k} and its unit group.

Normal form: divide m by d while possible, so k = 0 or d does not divide
m; this form is unique.  Units are exactly the elements +-p1^{n1}...pl^{nl}
over the primes p1 < ... < pl dividing d, so the unit group is
Z^l x Z_2; the multiplier-action line inside the exponent lattice is
t * (m1, ..., ml) where d = p1^{m1}...pl^{ml}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981  # Miller-Rabin on _MR_BASES is exact below this
_RHO_CAP = 1 << 16  # rho steps per cofactor


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple:
    """Prime factorization ((p, e), ...): trial division by the primes below
    10^4, then Miller-Rabin and Brent's rho; ValueError past _MR_EXACT or _RHO_CAP."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = {}
    for p in itertools.chain((2,), range(3, 10 ** 4, 2)):  # a composite p never divides
        if p * p > n:
            break
        while n % p == 0:
            n, out[p] = n // p, out.get(p, 0) + 1
    rest = [n] if n > 1 else []
    while rest:  # no factor left has a prime below 10^4, so below 10^8 it is prime
        n = rest.pop()
        if n >= 10 ** 8 and _composite(n):
            rest += _rho(n)
        elif n >= _MR_EXACT:
            raise ValueError(f"cannot prove {n} prime: Miller-Rabin is exact below {_MR_EXACT}")
        else:
            out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def _composite(n: int) -> bool:
    """Miller-Rabin on _MR_BASES for odd n > 41; True is a proof."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    return any(pow(a, (n - 1) >> s, n) != 1
               and all(pow(a, (n - 1) >> s << i, n) != n - 1 for i in range(s))
               for a in _MR_BASES)


def _rho(n: int) -> tuple:
    """Split the composite n into two proper factors by Brent's rho, within _RHO_CAP steps."""
    c, k, x, y = 1, 0, 2, 2
    for _ in range(_RHO_CAP):
        y, k = (y * y + c) % n, k + 1
        g = math.gcd(x - y, n)
        if 1 < g < n:
            return g, n // g
        if g == n:  # the orbit closed modulo n: take another polynomial
            c, k, x, y = c + 1, 0, 2, 2
        elif k & (k - 1) == 0:  # Brent: the slow point jumps to the fast one at powers of 2
            x = y
    raise ValueError(f"no factor of {n} found within {_RHO_CAP} rho steps")


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


def _peel(n: int, d: int) -> int:
    """n with every prime of d divided out, by gcd steps: d is never factored."""
    while (g := math.gcd(n, d)) > 1:
        n //= g
    return n


def ring_from_fraction(d: int, value: Fraction) -> Optional[RingElem]:
    """Represent an exact fraction in Z[1/d], or None when a prime of its
    denominator does not divide d."""
    den = value.denominator
    if _peel(den, d) != 1:
        return None
    k, dk = 0, 1
    while dk % den:
        dk *= d
        k += 1
    return RingElem(d, value.numerator * (dk // den), k)


@dataclass(frozen=True)
class UnitDecomposition:
    d: int
    sign: int
    exponents: tuple  # over sorted primes of d

    def value(self) -> RingElem:
        primes, mults = zip(*factorize(self.d))
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
    (including x = 0); x is a unit iff dividing out the primes of d leaves 1,
    which is decided before d is factored."""
    if x.m == 0 or _peel(abs(x.m), x.d) != 1:
        return None
    rest, exps = abs(x.m), []
    for p, e in factorize(x.d):
        n = 0
        while rest % p == 0:
            rest, n = rest // p, n + 1
        exps.append(n - x.k * e)
    return UnitDecomposition(x.d, 1 if x.m > 0 else -1, tuple(exps))


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
