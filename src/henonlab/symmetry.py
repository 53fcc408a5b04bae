"""Linear symmetries L_eta(x,y) = (eta x, eta^d y) preserving the
non-escaping set, certification at the potential level, and the
automorphism-group bookkeeping around the lift constraint set.

Detection is exact: eta = exp(2*pi*i*e/(d^2-1)) is a symmetry iff
d(d-j)e = 0 mod d^2-1 for every nonzero coefficient a_j of p, and every
candidate is additionally verified by symbolic composition
H o L_eta = L_{eta^d} o H (which implies H^2 o L_eta = L_eta o H^2
since eta^{d^2} = eta).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ._exact import is_zero
from .boettcher import LiftPolynomial
from .covering import RootOfUnity, compute_L_prime, root_value
from .errors import DomainError
from .maps import (FiltrationRadius, HenonMap, PolyMap2, compose_poly_maps,
                   estimate_filtration_radius, iterate_orbit, poly_map_of)
from .potential import green_plus, sample_escaping_points
from .series import LaurentSeries2

_COEFF_ZERO = 1e-12


@dataclass(frozen=True)
class SymmetryGroup:
    """Cyclic group of detected symmetry exponents mod d^2-1."""

    d: int
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))

    @property
    def modulus(self) -> int:
        return self.d * self.d - 1

    @property
    def order(self) -> int:
        return len(self.exponents)

    def __contains__(self, e: int) -> bool:
        return e % self.modulus in self.exponents

    def elements(self):
        return [RootOfUnity(e, self.modulus) for e in self.exponents]


def symmetry_poly_map(d: int, e: int) -> PolyMap2:
    """L_eta as an exact-as-possible polynomial map."""
    M = d * d - 1
    return PolyMap2(LaurentSeries2.mono(root_value(e, M), 1, 0, None),
                    LaurentSeries2.mono(root_value(d * e % M, M), 0, 1, None))


def apply_symmetry(d: int, e: int, z) -> tuple:
    M = d * d - 1
    eta = complex(root_value(e, M))
    etad = complex(root_value(d * e % M, M))
    return (eta * complex(z[0]), etad * complex(z[1]))


def _nonzero_indices(m: HenonMap):
    out = []
    for j, c in enumerate(m.coeffs):
        if is_zero(c):
            continue
        if abs(complex(c)) > _COEFF_ZERO or m.exact:
            out.append(j)
    return out


def symbolic_symmetry_check(m: HenonMap, e: int, tol: float = 1e-12) -> bool:
    """Coefficient-wise H o L_eta = L_{eta^d} o H via exact composition."""
    d = m.d
    h = poly_map_of(m)
    left = compose_poly_maps(h, symmetry_poly_map(d, e))
    right = compose_poly_maps(symmetry_poly_map(d, d * e % (d * d - 1)), h)
    return left.approx_eq(right, tol)


def detect_linear_symmetries(m: HenonMap) -> SymmetryGroup:
    """Congruence enumeration plus symbolic verification of each candidate."""
    d = m.d
    M = d * d - 1
    idx = _nonzero_indices(m)
    candidates = [e for e in range(M)
                  if all(d * (d - j) * e % M == 0 for j in idx)]
    verified = [e for e in candidates if symbolic_symmetry_check(m, e)]
    group = SymmetryGroup(d, tuple(verified))
    members = set(group.exponents)
    for e1 in members:  # subgroup sanity
        for e2 in members:
            if (e1 + e2) % M not in members:
                raise AssertionError("detected symmetry set is not closed under addition")
    return group


def green_invariance_check(m: HenonMap, group: SymmetryGroup, sample_count: int = 200,
                           seed: int = 11,
                           filtration: Optional[FiltrationRadius] = None) -> float:
    """max |G+(L_eta z) - G+(z)| over escaping samples and group elements."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    pts = sample_escaping_points(m, sample_count, seed=seed, filtration=filt)
    worst = 0.0
    base = [green_plus(m, z, filtration=filt).value for z in pts]
    for e in group.exponents:
        if e == 0:
            continue
        for z, g0 in zip(pts, base):
            g1 = green_plus(m, apply_symmetry(m.d, e, z), filtration=filt).value
            worst = max(worst, abs(g1 - g0))
    return worst


@dataclass(frozen=True)
class Aut1Classification:
    case: str  # "i" | "ii" | "iii"
    k: int
    k_prime: int
    k_divides_k_prime: bool


def classify_aut1(m: HenonMap, q: LiftPolynomial,
                  zero_threshold: float = 1e-9) -> Aut1Classification:
    """Case i: p(0) != 0; case ii: p = y^d; case iii: otherwise.

    k counts the detected linear symmetries, k' the lift-compatible
    exponents of Q; asserts k <= k' and that both divide d^2 - 1.
    """
    d = m.d
    idx = _nonzero_indices(m)
    if 0 in idx:
        case = "i"
    elif not idx:
        case = "ii"
    else:
        case = "iii"
    k = detect_linear_symmetries(m).order
    k_prime = len(compute_L_prime(q, zero_threshold))
    M = d * d - 1
    if not (k <= k_prime and M % k == 0 and M % k_prime == 0):
        raise AssertionError(
            f"classification invariants violated: k={k}, k'={k_prime}, d^2-1={M}")
    if case == "i" and k != 1:
        raise AssertionError("case i must have k = 1")
    if case == "ii" and (k != M or k_prime != M):
        raise AssertionError("case ii must have k = k' = d^2-1")
    return Aut1Classification(case, k, k_prime, k_prime % k == 0)


def verify_rigidity_family(m: HenonMap, e: int, s: int, samples: int = 100,
                           seed: int = 23,
                           filtration: Optional[FiltrationRadius] = None) -> float:
    """max |G+(L_eta H^s z) - d^s G+(z)| over escaping samples, for a
    member f = L_eta o H^s of the invariance family."""
    group = detect_linear_symmetries(m)
    if e % group.modulus not in group.exponents:
        raise DomainError(f"exponent {e} is not a detected symmetry")
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    pts = sample_escaping_points(m, samples, seed=seed, filtration=filt)
    worst = 0.0
    scale = float(m.d) ** s
    for z in pts:
        orb = iterate_orbit(m, z, s)
        if orb.overflow:
            continue
        w = apply_symmetry(m.d, e, orb[-1])
        g1 = green_plus(m, w, filtration=filt).value
        g0 = green_plus(m, z, filtration=filt).value
        worst = max(worst, abs(g1 - scale * g0))
    return worst
