"""Linear symmetries L_eta(x,y) = (eta x, eta^d y) preserving the
non-escaping set, certification at the potential level, and the
automorphism-group bookkeeping around the lift constraint set.

eta = exp(2*pi*i*e/(d^2-1)) is a symmetry, H o L_eta = L_{eta^d} o H, iff
d(d-j)e = 0 mod d^2-1 for every nonzero coefficient a_j of p.  Detection
solves these congruences in closed form (covering.congruence_subgroup)
and composes nothing; symbolic_symmetry_check evaluates both sides on the
coordinate polynomials (maps.Poly2) and is kept as the independent oracle
of the self-check and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ._exact import support
from .boettcher import LiftPolynomial
from .covering import compute_L_prime, congruence_subgroup, root_value
from .errors import DomainError, InconsistencyError
from .maps import (XY, FiltrationRadius, HenonMap, PolyMap2, evaluate, filtration_of,
                   overflow_limit)
from .potential import green_plus, sample_escaping_points

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


def _linear(d: int, e: int, z) -> tuple:
    """L_eta z with eta = exp(2 pi i e/(d^2-1)), exact where root_value is."""
    M = d * d - 1
    return (root_value(e, M) * z[0], root_value(d * e % M, M) * z[1])


def apply_symmetry(d: int, e: int, z) -> tuple:
    return _linear(d, e, (complex(z[0]), complex(z[1])))


def symbolic_symmetry_check(m: HenonMap, e: int, tol: float = 1e-12) -> bool:
    """Coefficient-wise H o L_eta = L_{eta^d} o H, both sides evaluated on
    the coordinate polynomials."""
    left = evaluate(m, _linear(m.d, e, XY))
    right = _linear(m.d, m.d * e, evaluate(m, XY))
    return PolyMap2(*left).approx_eq(PolyMap2(*right), tol)


def detect_linear_symmetries(m: HenonMap) -> SymmetryGroup:
    """The exponents solving d(d-j)e = 0 mod d^2-1 over the support of p."""
    d = m.d
    idx = support(m.coeffs, _COEFF_ZERO)
    return SymmetryGroup(d, tuple(congruence_subgroup(d * d - 1, [d * (d - j) for j in idx])))


@dataclass(frozen=True)
class Aut1Classification:
    case: str  # "i" | "ii" | "iii"
    k: int
    k_prime: int
    k_divides_k_prime: bool


def classify_aut1(m: HenonMap, q: LiftPolynomial) -> Aut1Classification:
    """Case i: p(0) != 0; case ii: p = y^d; case iii: otherwise.

    k counts the detected linear symmetries, k' the lift-compatible
    exponents of Q (both divide d^2 - 1 by construction); raises
    InconsistencyError unless k <= k' and the case's counts hold.
    """
    idx = support(m.coeffs, _COEFF_ZERO)
    case = "i" if 0 in idx else "iii" if idx else "ii"
    k = detect_linear_symmetries(m).order
    k_prime = len(compute_L_prime(q))
    M = m.d * m.d - 1
    if k > k_prime:
        raise InconsistencyError(
            f"classification invariants violated: k={k}, k'={k_prime}, d^2-1={M}")
    if case == "i" and k != 1:
        raise InconsistencyError("case i must have k = 1")
    if case == "ii" and (k != M or k_prime != M):
        raise InconsistencyError("case ii must have k = k' = d^2-1")
    return Aut1Classification(case, k, k_prime, k_prime % k == 0)


def verify_rigidity_family(m: HenonMap, s: int, exponents=None, samples: int = 100,
                           seed: int = 23,
                           filtration: Optional[FiltrationRadius] = None) -> float:
    """Worst excess of |G+(L_eta H^s z) - d^s G+(z)| over its certified bound
    err(L_eta H^s z) + d^s err(z), across escaping samples z and the members
    f = L_eta o H^s of the invariance family with eta in exponents (default:
    the detected group).  A value <= 0 certifies G+ o f = d^s G+ at every
    compared sample.  Samples whose orbit passes the overflow limit within
    |s| steps are skipped (certain escape); DomainError when all of them are.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    group = detect_linear_symmetries(m)
    exps = group.exponents if exponents is None else [e % group.modulus for e in exponents]
    for e in exps:
        if e not in group.exponents:
            raise DomainError(f"exponent {e} is not a detected symmetry")
    filt = filtration_of(m, filtration)
    pts = sample_escaping_points(m, samples, seed=seed, filtration=filt)
    worst = -math.inf
    scale = float(m.d) ** s
    lim = overflow_limit(m.d)
    for z in pts:
        hz = z
        for _ in range(abs(s)):
            hz = evaluate(m.doubles, hz, inverse=s < 0)
            if not max(abs(hz[0]), abs(hz[1])) <= lim:  # certain escape: skip the sample
                break
        else:
            g0 = green_plus(m, z, filtration=filt)
            for e in exps:
                w = apply_symmetry(m.d, e, hz)
                g1 = g0 if w == z else green_plus(m, w, filtration=filt)
                dev = abs(g1.value - scale * g0.value)
                worst = max(worst, dev - (g1.error_bound + scale * g0.error_bound))
    if worst == -math.inf:
        raise DomainError(f"every sample passes the overflow limit within {abs(s)} steps")
    return worst
