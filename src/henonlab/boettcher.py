"""Boettcher coordinate phi on V_R+, the lift polynomial Q, and psi.

phi(x,y) = y * prod_{j>=0} (1 + q(x_j,y_j)/y_j^d)^(1/d^{j+1}) with
q(x,y) = p(y) - ax - y^d, satisfying phi o H = phi^d and G+ = log|phi|.
Every factor uses the principal branch, which is safe while
|q/y^d| < 1/2 (enforced at runtime, never assumed).

Q(zeta) = zeta^{d+1} + A_{d-1} zeta^{d-1} + ... + A_0 is the first-
coordinate polynomial of the covering model ((a/d)z + Q(zeta), zeta^d).
Two independent derivations are provided:

* formal-series: expand E = x1*y1 - (a/d)xy - Q(phi) in monomials
  x^i y^m; convergence of the telescoping sum defining psi requires every
  coefficient with orbit grade m*d + i > 0 to vanish (on deep orbits
  x_N ~ y_N^{1/d}, so x^i y^m scales like y_N^{(m*d+i)/d}).  Those
  vanishing conditions are linear in A_1..A_{d-1} and are solved exactly
  in rational-complex arithmetic when the map is rational.
* bigfloat-fit: evaluate T = x1*y1 - phi^{d+1} at x=0 over geometric
  radii in arbitrary precision and fit T = sum A_k phi^k + sum e_j rho^{-j}
  (the rho^{-j} block plays the role of Richardson extrapolation).

The constant A_0 is a gauge freedom of psi whenever a != d (shifting psi
by a constant reshuffles A_0); both strategies pin A_0 = 0.

psi_N(z) = (d/a)^N x_N y_N - sum_{j<N} (d/a)^{j+1} Q(phi(H^j z)), the
telescoping form of the second covering coordinate; the two large terms
cancel catastrophically, so precision is sized from the depth before
evaluation and silent precision loss is forbidden.
"""

from __future__ import annotations

import cmath
import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from ._exact import QC, as_exact, is_zero
from .errors import DomainError, InconsistencyError, PrecisionError, UnderdeterminedError
from .maps import (FiltrationRadius, HenonMap, estimate_filtration_radius, evaluate, horner,
                   in_v_plus, overflow_limit)
from .series import LaurentSeries2


# ---------------------------------------------------------------------------
# Tail and branch bounds
# ---------------------------------------------------------------------------

def _u_bound(m: HenonMap, yabs: float) -> float:
    """Upper bound for |q(x,y)/y^d| on |x| <= |y|, |y| >= 1; yabs may be a numpy array."""
    A = sum(abs(c) for c in m.coeffs_complex)
    B = abs(complex(m.a))
    try:
        return A / yabs ** 2 + B / yabs ** (m.d - 1)
    except OverflowError:  # |y|^k past the float range; the negative powers underflow
        return A * yabs ** -2 + B * yabs ** (1 - m.d)


def phi_tail_bound(m: HenonMap, y0abs: float, J: int) -> float:
    """Certified bound on |log phi - log phi_J| using |y_j| >= 2^j |y_0|."""
    if y0abs <= 1.0:
        return float("inf")
    d = m.d
    total = 0.0
    with suppress(OverflowError):  # 2^J or d^(j+1) past the float range: the rest is < 1e-300
        yj = y0abs * 2.0 ** J
        for j in range(J, J + 400):
            u = _u_bound(m, yj)
            term = 2.0 * u / d ** (j + 1)
            total += term
            if term < 1e-300:
                break
            yj *= 2.0
    return total


# ---------------------------------------------------------------------------
# phi evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoettcherValue:
    value: complex
    truncation: int
    error_bound: float


def _q_value(m: HenonMap, x, y):
    """q(x,y) = p(y) - y^d - a*x computed from the tail coefficients
    (avoids the catastrophic p(y) - y^d cancellation)."""
    return horner(m.coeffs_complex, y) - complex(m.a) * x


def phi_product(m: HenonMap, z, J: int) -> complex:
    """Raw truncated product (no domain checks); caller guarantees z in V_R+."""
    x, y = complex(z[0]), complex(z[1])
    d = m.d
    lim = overflow_limit(d)
    val = y
    cur = (x, y)
    for j in range(J):
        xj, yj = cur
        if abs(yj) > lim:  # y^d could overflow past the limit; |q/y^d| is negligible there
            break
        u = _q_value(m, xj, yj) / yj ** d
        if abs(u) >= 0.5:
            raise DomainError(
                f"branch safety violated: |q/y^d| = {abs(u):.3f} >= 1/2 at step {j}; "
                "use a larger filtration radius")
        if abs(u) > 1e-19:
            val *= cmath.exp(cmath.log(1 + u) / d ** (j + 1))
        cur = evaluate(m, cur)
    return val


def phi(m: HenonMap, z, truncation: int = 20,
        filtration: Optional[FiltrationRadius] = None) -> BoettcherValue:
    """Boettcher coordinate at z in V_R+, with certified product-tail bound."""
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    if not in_v_plus(z, filt.R):
        raise DomainError("phi requires z in V_R+; iterate the point forward first")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    val = phi_product(m, z, truncation)
    yabs = abs(complex(z[1]))
    tail = phi_tail_bound(m, yabs, truncation)
    # tail bounds |log phi - log phi_J|; convert to an absolute bound
    err = abs(val) * (math.expm1(tail) if tail < 700 else float("inf"))
    return BoettcherValue(val, truncation, err + 1e-15 * abs(val))


def phi_mp(m: HenonMap, z, dps: int):
    """Arbitrary-precision phi; truncation chosen so the tail is below the
    working precision.  Must be called inside an mp.workdps context."""
    x = mp.mpmathify(complex(z[0])) if not isinstance(z[0], (mp.mpf, mp.mpc)) else z[0]
    y = mp.mpmathify(complex(z[1])) if not isinstance(z[1], (mp.mpf, mp.mpc)) else z[1]
    d = m.d
    a = mp.mpmathify(complex(m.a))
    coeffs = [mp.mpmathify(c) for c in m.coeffs_complex]
    p_coeffs = (*coeffs, 0, 1)
    val = y
    cur = (x, y)
    cutoff = mp.mpf(10) ** (-(dps + 10))
    Asum = sum(abs(c) for c in coeffs) if coeffs else mp.mpf(0)
    Babs = abs(a)
    for j in range(4 * dps + 60):
        xj, yj = cur
        ya = abs(yj)
        # certified bound on this and all later factors (|y| keeps doubling)
        if Asum / ya ** 2 + Babs / ya ** (d - 1) < cutoff:
            break
        u = (horner(coeffs, yj) - a * xj) / yj ** d
        if abs(u) >= 0.5:
            raise DomainError("branch safety violated in phi_mp")
        if u != 0:
            val *= mp.exp(mp.log(1 + u) / mp.mpf(d) ** (j + 1))
        cur = (yj, horner(p_coeffs, yj) - a * xj)
    return val


# ---------------------------------------------------------------------------
# Lift polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftPolynomial:
    """Q(zeta) = zeta^{d+1} + A_{d-1} zeta^{d-1} + ... + A_0 (monic, no zeta^d)."""

    d: int
    A: tuple

    def __post_init__(self):
        if len(self.A) != self.d:
            raise ValueError(f"need {self.d} coefficients A_0..A_{self.d - 1}")
        object.__setattr__(self, "A", tuple(self.A))

    @property
    def A_complex(self) -> tuple:
        return tuple(complex(c) for c in self.A)

    def q_eval(self, zeta):
        """Evaluate Q; exact for exact zeta and coefficients."""
        return horner((*self.A, 0, 1), zeta)

    def nonzero_indices(self, threshold: float = 1e-9):
        return [j for j in range(1, self.d) if abs(complex(self.A[j])) >= threshold]


def derive_lift_polynomial(m: HenonMap, strategy: str = "formal-series",
                           digits: int = 80, truncation: Optional[int] = None) -> LiftPolynomial:
    if strategy == "formal-series":
        return _derive_formal(m, truncation)
    if strategy == "bigfloat-fit":
        return _derive_fit(m, digits)
    raise ValueError(f"unknown strategy {strategy!r}")


def cross_check_lift(m: HenonMap, tol: float = 1e-8, digits: int = 80) -> LiftPolynomial:
    """Run both strategies; raise InconsistencyError on disagreement."""
    qf = _derive_formal(m, None)
    qn = _derive_fit(m, digits)
    for j in range(m.d):
        diff = abs(complex(qf.A[j]) - complex(qn.A[j]))
        if diff > tol:
            raise InconsistencyError(
                f"lift strategies disagree at A_{j}: {diff:.2e} > {tol:.0e}")
    return qf


# -- formal-series strategy -------------------------------------------------

def _phi_factor_bases(m: HenonMap, dmin: int):
    """Bases (1 + u_j, d^{j+1}) with phi = y * prod (1+u_j)^{1/d^{j+1}}.

    Uses y_j = y^{d^j} Y_j, x_j = y^{d^{j-1}} Y_{j-1} with Y_0 = 1,
    Y_{j+1} = Y_j^d (1 + u_j); all series have grades <= 0.
    """
    d = m.d
    exact = m.exact
    if exact:
        coeffs = [as_exact(c) for c in m.coeffs]
        a = as_exact(m.a)
    else:
        coeffs = [complex(c) for c in m.coeffs]
        a = complex(m.a)

    one = LaurentSeries2.const(1, dmin)
    # u_0 = sum a_k y^{k-d} - a x y^{-d}
    u0 = LaurentSeries2(dmin)
    for k, c in enumerate(coeffs):
        if not is_zero(c):
            u0 = u0 + LaurentSeries2.mono(c, 0, k - d, dmin)
    u0 = u0 + LaurentSeries2.mono(-a, 1, -d, dmin)

    bases = [(one + u0, d)]
    Yprev = one
    Ycur = one + u0
    for j in range(1, 60):
        uj = LaurentSeries2(dmin)
        for k, c in enumerate(coeffs):
            if is_zero(c):
                continue
            e = d ** j * (k - d)
            if e >= dmin:
                uj = uj + Ycur.binomial_pow(k - d).shifted(0, e).scaled(c)
        e2 = -(d ** (j - 1)) * (d * d - 1)
        if e2 >= dmin:
            uj = uj + (Yprev * Ycur.binomial_pow(-d)).shifted(0, e2).scaled(-a)
        if uj.is_zero():
            break
        bases.append((one + uj, d ** (j + 1)))
        Yprev, Ycur = Ycur, Ycur ** d * (one + uj)
    return bases


def _f_power(bases, k: int, dmin: int):
    """F^k where phi = y*F, as prod (1+u_j)^{k/d^{j+1}}."""
    out = LaurentSeries2.const(1, dmin)
    for base, denom in bases:
        out = out * base.binomial_pow(Fraction(k, denom))
    return out


def _derive_formal(m: HenonMap, truncation: Optional[int]) -> LiftPolynomial:
    d = m.d
    dmin = -(d + 4) if truncation is None else -abs(truncation)
    if dmin > -d:
        raise UnderdeterminedError(
            f"truncation floor {dmin} too shallow; need at least -(d) = {-d}")
    exact = m.exact
    bases = _phi_factor_bases(m, dmin)

    if exact:
        a = as_exact(m.a)
        a_scaled = a * (1 + Fraction(1, d))
        coeffs = [as_exact(c) for c in m.coeffs]
    else:
        a = complex(m.a)
        a_scaled = a * (1 + 1.0 / d)
        coeffs = [complex(c) for c in m.coeffs]

    # E0 = y*p(y) - (a + a/d)*x*y - y^{d+1} F^{d+1}
    E0 = LaurentSeries2.mono(1, 0, d + 1, dmin)
    for j, c in enumerate(coeffs):
        if not is_zero(c):
            E0 = E0 + LaurentSeries2.mono(c, 0, j + 1, dmin)
    E0 = E0 + LaurentSeries2.mono(-a_scaled, 1, 1, dmin)
    E0 = E0 - _f_power(bases, d + 1, dmin).shifted(0, d + 1)

    G = {k: _f_power(bases, k, dmin).shifted(0, k) for k in range(1, d)}

    # vanishing conditions: all monomials with orbit grade m*d + i > 0
    keys = set(E0.terms)
    for g in G.values():
        keys |= set(g.terms)
    keys = sorted(k for k in keys if k[1] * d + k[0] > 0)

    # E = E0 - sum_k A_k G_k, so each condition reads sum_k A_k G_k = E0
    nunk = d - 1
    rows = [[G[k + 1].coeff(i, mth) for k in range(nunk)] + [E0.coeff(i, mth)]
            for (i, mth) in keys]
    sol = _solve_overdetermined(rows, nunk, exact)
    zero = QC(0) if exact else 0.0
    return LiftPolynomial(d, (zero, *sol))


def _solve_overdetermined(rows, nunk, exact):
    """Gauss-Jordan with consistency check of the leftover rows."""
    work = [list(r) for r in rows]
    piv_rows = []
    row_of_col = {}
    used = set()
    for col in range(nunk):
        best, best_mag = None, 0.0
        for ri, r in enumerate(work):
            if ri in used or is_zero(r[col]):
                continue
            mag = abs(complex(r[col]))
            if exact:
                best = ri
                break
            if mag > best_mag:
                best, best_mag = ri, mag
        if best is None:
            raise UnderdeterminedError(
                f"truncation too low: no condition determines coefficient A_{col + 1}")
        used.add(best)
        row_of_col[col] = best
        pr = work[best]
        piv = pr[col]
        if exact and not isinstance(piv, QC):
            piv = QC(piv)
        inv = (QC(1) / piv) if isinstance(piv, QC) else 1.0 / piv
        work[best] = [inv * v for v in pr]
        for ri, r in enumerate(work):
            if ri == best or is_zero(r[col]):
                continue
            f = r[col]
            work[ri] = [rv - f * pv for rv, pv in zip(r, work[best])]
    sol = [work[row_of_col[c]][nunk] for c in range(nunk)]
    # leftover rows must be (near) zero
    scale = max((abs(complex(v)) for r in rows for v in r), default=1.0)
    for ri, r in enumerate(work):
        if ri in used:
            continue
        resid = max((abs(complex(v)) for v in r), default=0.0)
        if (exact and resid != 0.0) or (not exact and resid > 1e-9 * max(scale, 1.0)):
            raise InconsistencyError(
                f"formal conditions inconsistent: residual {resid:.2e}")
    return sol


# -- bigfloat-fit strategy --------------------------------------------------

def _derive_fit(m: HenonMap, digits: int) -> LiftPolynomial:
    d = m.d
    M = d + 6
    nunk = (d - 1) + (M + 1)
    with mp.workdps(digits):
        # geometric radii over two decades keep the rho^{-j} columns well
        # above the precision floor (wider spreads go numerically singular)
        npts = nunk + 4
        radii = [mp.mpf(1000) * mp.mpf(100) ** (mp.mpf(i) / (npts - 1)) for i in range(npts)]
        rows, rhs = [], []
        for rho in radii:
            phiv = phi_mp(m, (mp.mpf(0), rho), digits)
            # T = x1*y1 - (a/d)*x*y - phi^{d+1}, with x = 0
            y1 = horner((*(mp.mpmathify(c) for c in m.coeffs_complex), 0, 1), rho)
            T = rho * y1 - phiv ** (d + 1)
            basis = [phiv ** k for k in range(1, d)] + [rho ** (-j) for j in range(M + 1)]
            rows.append(basis)
            rhs.append(T)
        Amat = mp.matrix(rows)
        bvec = mp.matrix(rhs)
        sol = mp.qr_solve(Amat, bvec)[0]
        A = [0j] * d
        for k in range(1, d):
            v = sol[k - 1]
            A[k] = complex(v)
    return LiftPolynomial(d, tuple(A))


# ---------------------------------------------------------------------------
# psi and the semiconjugacy residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiValue:
    value: complex
    depth: int
    precision_digits: int
    convergence_gap: float


def digits_needed(m: HenonMap, z, depth: int) -> int:
    """Decimal digits required for the x_N*y_N cancellation at this depth."""
    lx = math.log10(max(abs(complex(z[0])), 1.0))
    ly = math.log10(max(abs(complex(z[1])), 2.0))
    S = max(m.coeff_bound, 1.0)
    for _ in range(depth):
        lx, ly = ly, m.d * max(ly, 0.0) + math.log10(2.0 + S)
    return int(1.1 * (lx + ly)) + 40


def _psi_partials(m: HenonMap, z, q: LiftPolynomial, depth: int, dps: int):
    """(psi_depth, psi_{depth-1}) inside an mp context of dps digits."""
    d = m.d
    a = mp.mpmathify(complex(m.a))
    p_coeffs = (*(mp.mpmathify(c) for c in m.coeffs_complex), 0, 1)
    doa = mp.mpf(d) / a
    cur = (mp.mpmathify(complex(z[0])), mp.mpmathify(complex(z[1])))
    phi0 = phi_mp(m, cur, dps)
    q_coeffs = (*(mp.mpmathify(c) for c in q.A_complex), 0, 1)
    qsum = mp.mpf(0)
    prev = None
    for j in range(depth):
        if j == depth - 1:
            prev = doa ** (depth - 1) * cur[0] * cur[1] - qsum
        qsum += doa ** (j + 1) * horner(q_coeffs, phi0 ** (d ** j))
        cur = (cur[1], horner(p_coeffs, cur[1]) - a * cur[0])
    psi_n = doa ** depth * cur[0] * cur[1] - qsum
    return psi_n, prev


def psi(m: HenonMap, z, q: LiftPolynomial, depth: int,
        precision_digits: Optional[int] = None,
        filtration: Optional[FiltrationRadius] = None) -> PsiValue:
    """Telescoping psi_N with validated precision budget."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    if not in_v_plus(z, filt.R):
        raise DomainError("psi requires z in V_R+")
    need = digits_needed(m, z, depth)
    if precision_digits is None:
        dps = need
    elif precision_digits < need:
        raise PrecisionError(
            f"depth {depth} at this point needs about {need} digits, "
            f"got {precision_digits}")
    else:
        dps = precision_digits
    with mp.workdps(dps):
        psi_n, psi_prev = _psi_partials(m, z, q, depth, dps)
        gap = abs(psi_n - psi_prev) if psi_prev is not None else float("nan")
        return PsiValue(complex(psi_n), depth, dps, float(gap))


def semiconjugacy_residual(m: HenonMap, q: LiftPolynomial, sample_points: Sequence,
                           depth: int, precision_digits: int,
                           filtration: Optional[FiltrationRadius] = None) -> float:
    """max over samples of ||((a/d)psi + Q(phi), phi^d) - (psi o H, phi o H)||.

    Depth-matched: the same depth N is used at z and H(z).
    """
    if not sample_points:
        return 0.0
    filt = filtration if filtration is not None else estimate_filtration_radius(m)
    worst = 0.0
    for z in sample_points:
        if not in_v_plus(z, filt.R):
            raise DomainError("semiconjugacy sample point outside V_R+")
        hz = evaluate(m, (complex(z[0]), complex(z[1])))
        need = max(digits_needed(m, z, depth), digits_needed(m, hz, depth))
        if precision_digits < need:
            raise PrecisionError(
                f"depth {depth} needs about {need} digits, got {precision_digits}")
        with mp.workdps(precision_digits):
            a = mp.mpmathify(complex(m.a))
            aod = a / mp.mpf(m.d)
            psi_z, _ = _psi_partials(m, z, q, depth, precision_digits)
            psi_hz, _ = _psi_partials(m, hz, q, depth, precision_digits)
            phi_z = phi_mp(m, z, precision_digits)
            phi_hz = phi_mp(m, hz, precision_digits)
            q_phi = horner((*(mp.mpmathify(c) for c in q.A_complex), 0, 1), phi_z)
            r1 = abs(aod * psi_z + q_phi - psi_hz)
            r2 = abs(phi_z ** m.d - phi_hz)
            worst = max(worst, float(r1), float(r2))
    return worst
