"""Henon maps H(x,y) = (y, p(y) - ax) with p centered monic of degree d.

Provides exact construction and normalization, forward/inverse evaluation,
orbit iteration with overflow-as-escape semantics, exact bivariate
polynomial composition (used to verify normalization and symmetries), and
the certified filtration radius R with its doubling property
|y'| >= 2|y| on V_R+ = {|y| >= max(|x|, R)}.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from ._exact import QC, as_exact, is_zero
from .errors import InvalidMapError
from .series import LaurentSeries2


def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


@dataclass(frozen=True)
class HenonMap:
    """Centered monic Henon map: H(x,y) = (y, y^d + a_{d-2}y^{d-2} + ... + a_0 - ax).

    coeffs holds a_0 .. a_{d-2} (length d-1).  Entries may be exact
    (int/Fraction/QC) or inexact (float/complex); arithmetic stays exact
    when all inputs are exact.
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

    @property
    def coeff_bound(self) -> float:
        """S = |a| + sum |a_j|; controls |q(x,y)| <= S*max(|y|,1)^{d-1} on |x| <= |y|."""
        return abs(self.a_complex) + sum(abs(c) for c in self.coeffs_complex)

    # -- evaluation ----------------------------------------------------
    def p(self, y):
        """Evaluate p(y) = y^d + a_{d-2} y^{d-2} + ... + a_0."""
        return horner((*self.coeffs, 0, 1), y)


def horner(coeffs, t):
    """sum_k coeffs[k] t^k, coefficients low to high, by Horner's rule; works
    for exact scalars, complex floats, mpmath numbers and numpy arrays."""
    it = reversed(coeffs)
    acc = next(it)
    for c in it:
        acc = acc * t + c
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
        s = self.scale
        inv = (QC(1) / s) if isinstance(s, QC) else (
            Fraction(1) / s if isinstance(s, (int, Fraction)) else 1.0 / s)
        return AffineConjugation(inv, -(inv * self.shift))


# ---------------------------------------------------------------------------
# Polynomial maps and composition
# ---------------------------------------------------------------------------

@dataclass
class PolyMap2:
    """Polynomial self-map of C^2: (x, y) -> (first(x,y), second(x,y))."""

    first: LaurentSeries2   # polynomials: dmin=None
    second: LaurentSeries2

    def eval(self, z):
        x, y = z
        return (self.first.eval(x, y), self.second.eval(x, y))

    def approx_eq(self, other: "PolyMap2", tol: float = 1e-12) -> bool:
        return self.first.approx_eq(other.first, tol) and self.second.approx_eq(other.second, tol)


def poly_map_of(m: HenonMap, inverse: bool = False) -> PolyMap2:
    """H (or H^{-1}) as an exact PolyMap2."""
    if not inverse:
        py = {(0, m.d): 1}
        for j, c in enumerate(m.coeffs):
            if not is_zero(c):
                py[(0, j)] = c
        py[(1, 0)] = -m.a
        return PolyMap2(LaurentSeries2.mono(1, 0, 1, None), LaurentSeries2(None, py))
    a = m.a
    ainv = (QC(1) / a) if isinstance(a, QC) else (
        Fraction(1, 1) / a if isinstance(a, (int, Fraction)) else 1.0 / complex(a))
    px = {(m.d, 0): ainv}
    for j, c in enumerate(m.coeffs):
        if not is_zero(c):
            px[(j, 0)] = ainv * c
    px[(0, 1)] = -ainv
    return PolyMap2(LaurentSeries2(None, px), LaurentSeries2.mono(1, 1, 0, None))


def compose_poly_maps(f: PolyMap2, g: PolyMap2) -> PolyMap2:
    """Exact coefficient-level composition f o g."""
    return PolyMap2(f.first.substitute(g.first, g.second),
                    f.second.substitute(g.first, g.second))


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

    cd_x = as_exact(cd)
    all_exact = cd_x is not None and as_exact(a) is not None and \
        all(as_exact(c) is not None for c in coeffs)
    if all_exact:
        coeffs = [as_exact(c) for c in coeffs]
        a_val = as_exact(a)
        inv_lead = QC(1) / coeffs[-1]
    else:
        coeffs = [complex(c) for c in coeffs]
        a_val = complex(a)
        inv_lead = 1.0 / coeffs[-1]

    lam = _principal_root(inv_lead, d - 1)
    if isinstance(lam, complex) and all_exact:
        # root left the rationals; continue in floats
        coeffs = [complex(c) for c in coeffs]
        a_val = complex(a_val)
    cdd = coeffs[-1]
    cdm1 = coeffs[-2]
    mu = -cdm1 / (d * cdd) if not is_zero(cdm1) else (QC(0) if as_exact(cdd) is not None and not isinstance(lam, complex) else 0.0)

    # q(y) = (P(lam*y + mu) - (a+1)*mu) / lam, expanded by binomials
    n_terms = [0] * (d + 1)
    for k, ck in enumerate(coeffs):
        if is_zero(ck):
            continue
        for r in range(k + 1):
            # coefficient of y^r from ck * (lam*y + mu)^k
            n_terms[r] = n_terms[r] + ck * _binom(k, r) * lam ** r * mu ** (k - r)
    n_terms[0] = n_terms[0] - (a_val + 1) * mu
    inv_lam = (QC(1) / lam) if isinstance(lam, QC) else 1.0 / lam
    q = [inv_lam * t for t in n_terms]

    # sanity: monic, centered
    scale = max(1.0, max(abs(complex(t)) for t in q))
    if abs(complex(q[d]) - 1) > 1e-9 * scale or abs(complex(q[d - 1])) > 1e-9 * scale:
        raise InvalidMapError("normalization failed to produce a centered monic polynomial")
    tail = []
    for t in q[: d - 1]:
        if as_exact(t) is None and abs(complex(t)) <= 1e-13 * scale:
            t = 0.0
        tail.append(t)
    return HenonMap(d, a_val, tuple(tail)), AffineConjugation(lam, mu)


# ---------------------------------------------------------------------------
# Evaluation and orbits
# ---------------------------------------------------------------------------

def evaluate(m: HenonMap, z, inverse: bool = False):
    """One step of H (forward) or H^{-1} (inverse).

    Works for exact scalars, complex floats, and mpmath numbers alike.
    """
    x, y = z
    if not inverse:
        return (y, m.p(y) - m.a * x)
    # mixed-type division resolves through QC's reflected operators
    return ((m.p(x) - y) / m.a, x)


@dataclass
class Orbit:
    points: list
    overflow: bool = False

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]


def overflow_limit(d: int) -> float:
    """Magnitude above which the next step could overflow doubles; escape is then certain."""
    return 10.0 ** (260.0 / d)


def iterate_orbit(m: HenonMap, z, n: int) -> Orbit:
    """Orbit [z, H^{s}z, ..., H^{sn}z] with s = sign(n); truncates on overflow.

    Overflow is a certificate of escape (the filtration doubling bound),
    never an error.
    """
    direction = n < 0
    steps = abs(n)
    pts = [z]
    lim = overflow_limit(m.d)
    cur = z
    for _ in range(steps):
        mag = max(abs(complex(cur[0])), abs(complex(cur[1])))
        if not math.isfinite(mag) or mag > lim:
            return Orbit(pts, overflow=True)
        cur = evaluate(m, cur, inverse=direction)
        pts.append(cur)
    m0, m1 = abs(complex(pts[-1][0])), abs(complex(pts[-1][1]))
    if not (math.isfinite(m0) and math.isfinite(m1)):
        return Orbit(pts[:-1], overflow=True)
    return Orbit(pts, overflow=False)


# ---------------------------------------------------------------------------
# Filtration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiltrationRadius:
    """Radius R >= 1 with H(V_R+) in V_R+ and |y'| >= 2|y|, sample-certified."""

    R: float
    certificate_samples: tuple = field(default_factory=tuple)


def in_v_plus(z, R: float) -> bool:
    x, y = complex(z[0]), complex(z[1])
    return abs(y) >= max(abs(x), R)


def in_v_minus(z, R: float) -> bool:
    x, y = complex(z[0]), complex(z[1])
    return abs(x) >= max(abs(y), R)


def _certificate_ok(m: HenonMap, R: float, samples) -> bool:
    for z in samples:
        _, y1 = evaluate(m, z)
        if abs(complex(y1)) < 2 * abs(complex(z[1])) - 1e-12:
            return False
    return True


def estimate_filtration_radius(m: HenonMap, samples: int = 200, seed: int = 7) -> FiltrationRadius:
    """R = max(1, (2(1+|a|+sum|a_j|))^{1/(d-1)}), certified on boundary samples.

    Certificate points sit on the boundary |y| = max(|x|, R) of V_R+ and a
    band above it; each must satisfy |y'| >= 2|y| (which already implies
    H(z) stays in V_R+ since x' = y).  If a sample fails, R is escalated
    by 1.5x until the certificate passes.
    """
    S = m.coeff_bound
    R = max(1.0, (2.0 * (1.0 + S)) ** (1.0 / (m.d - 1)))
    rng = random.Random(seed)
    for _ in range(60):
        pts = []
        for i in range(samples):
            t1, t2, u = rng.random(), rng.random(), rng.random()
            if i % 2 == 0:
                # on the sphere |y| = R, |x| <= R
                y = R * cmath.exp(2j * math.pi * t1)
                x = R * u * cmath.exp(2j * math.pi * t2)
            else:
                # diagonal boundary |x| = |y| = r >= R, plus interior band
                r = R * (1.0 + 3.0 * u)
                y = r * cmath.exp(2j * math.pi * t1)
                x = r * rng.choice([1.0, rng.random()]) * cmath.exp(2j * math.pi * t2)
            pts.append((x, y))
        if _certificate_ok(m, R, pts):
            return FiltrationRadius(R, tuple(pts))
        R *= 1.5
    raise InvalidMapError("could not certify a filtration radius for this map")
