"""Boettcher coordinate phi on V_R+, the lift polynomial Q, and psi.

phi(x,y) = y * prod_{j>=0} (1 + q(x_j,y_j)/y_j^d)^(1/d^{j+1}) with
q(x,y) = p(y) - ax - y^d, satisfying phi o H = phi^d and G+ = log|phi|.
Every factor uses the principal branch, which needs only Re(1+u) > 0 for
u = q/y^d; the guard |u| < 1 is enforced at runtime, never assumed (on
V_R+ the doubling radius gives |u| <= 1 - 2/|y|^{d-1}, not 1/2).  The
product to J equals y_J^{1/d^J}: phi_mp stops once the factors left are
below 10^-(dps+10), tracks the winding theta_{j+1} = d theta_j + Arg(1+u_j)
in doubles (u_j too is a double quotient, except where the big-float one
must decide |u_j| < 1), and takes the root by a log and an exp at
min(prec, 512) bits, then Newton steps doubling the bits up to prec.  phi
is phi_mp at 30 digits rounded to a complex double.  mpmath computes a
high-precision mpc**n, n > 2, as exp(n log z), so powers go by squaring.
phi_mp is the one phi kernel: G+ needs only |phi_J| = |y_J|^{1/d^J},
which the potential module reads from the height of its own walk.

Q(zeta) = zeta^{d+1} + A_{d-1} zeta^{d-1} + ... + A_0 is the first-
coordinate polynomial of the covering model ((a/d)z + Q(zeta), zeta^d).
With phi = y*F, convergence of the telescoping sum defining psi requires
every monomial x^i y^m of orbit grade m*d + i > 0 in E = x1*y1 - (a/d)xy -
Q(phi) = E0 - sum A_k G_k, G_k = y^k F^k, to vanish (on deep orbits x_N ~
y_N^{1/d}).  Only the x^0 conditions can fail: a monomial x^i y^m of G_k
has m <= k - d*i, so its grade is at most kd - i(d^2 - 1), positive only
for i = 0 or for i = 1, k = d+1; the terms left over, x*y and x in G_{d+1}
and y^d, y^{d+1}, cancel identically in E0.  At x = 0, with t = 1/y and
s = sum_{i=2..d} a_{d-i} t^i, phi = y (1 + s)^{1/d} to t^d (the later
factors start at t^{2d}), and the x^0 conditions, that y*p(y) - Q(phi)
have no positive power of y, have the closed solution

    A_{d-k} = -[y^-1] phi^k / k,   k = 1, ..., d-1.

Proof: y p(y) = y phi^d + O(y^{1-d}), since y^d (1 + s) = p(y); Lagrange-
Buermann gives A_j = (1/j) [y^-1] phi^-j (y p)'; and (y phi^d)' phi^-j =
phi^{d-j} + (d/(d-j)) y (phi^{d-j})', whose [y^-1] is -(j/(d-j)) [y^-1]
phi^{d-j}, since [y^-1] y f' = -[y^-1] f.  Both strategies read Q from it:

* formal-series: [y^-1] phi^k = [t^{k+1}] (1 + s)^{k/d} (k + 1 <= d, inside
  the t^d truncation), one coefficient of a univariate series; exact in
  rational-complex arithmetic when the map is rational.
* bigfloat-fit: the trapezoidal rule on N = 2d+10 points of |y| = rho =
  1000 R gives [y^-1] phi^k as the mean of y phi(0, y)^k, with aliasing
  error (R/rho)^N.  The largest summand, y phi^{d-1}, has size rho^d and
  carries that times each sample's rounding, so the fit runs at
  ceil(d (3 + log10 R)) + 20 digits.  A real map walks phi only at the
  d + 6 samples of Im y >= 0: the others are their conjugates.

The constant A_0 is a gauge freedom of psi whenever a != d (shifting psi
by a constant reshuffles A_0); both strategies pin A_0 = 0.

psi_N(z) = (d/a)^N x_N y_N - sum_{j<N} (d/a)^{j+1} Q(phi(H^j z)), the
telescoping form of the second covering coordinate; the two large terms
cancel catastrophically, so precision is sized from the depth before
evaluation and silent precision loss is forbidden.  The orbit H^j z is the
one phi_mp walks at the same precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Optional, Sequence

from ._exact import as_exact, field, is_zero, support, zero_of
from .errors import DomainError, InconsistencyError, PrecisionError
from .maps import (FiltrationRadius, HenonMap, estimate_filtration_radius, evaluate,
                   filtration_of, horner, in_v_plus)
# kept for perfbench, whose traced run records spans under these names and
# patches them by identity: they must be the very functions potential calls
from .potential import phi_product, phi_tail_bound


# ---------------------------------------------------------------------------
# phi evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoettcherValue:
    value: complex
    error_bound: float


# phi's working precision.  phi_mp stops once the factors left are below
# 10^-(dps+10); its J steps at dps digits carry each step's rounding into
# log phi divided by d^(j+1).  Its root w = y_J^(1/n), n = d^J, starts from
# a log and an exp at b = min(prec, _ROOT_START) bits, off by |log phi|
# (below 10^3 for any double y) times 2^-b.  Past START bits, from p = START
# - g - 20, a Newton step e -> (n - 1) e^2/2 plus rounding at p + g bits keeps
# w within 2^-(p + g/2) as p doubles to prec.  So the computed log phi is
# within 10^-(dps-10) with room to spare; at 30 digits no Newton step runs
_PHI_DPS = 30
_PHI_REL = 2.0 ** -52 + 10.0 ** -(_PHI_DPS - 10)
_ROOT_START = 512


def phi(m: HenonMap, z, filtration: Optional[FiltrationRadius] = None) -> BoettcherValue:
    """Boettcher coordinate at z in V_R+: phi_mp at 30 digits rounded to a
    complex double, with bound |phi| (2^-52 + 10^-20)."""
    import mpmath as mp
    filt = filtration_of(m, filtration)
    if not in_v_plus(z, filt.R):
        raise DomainError("phi requires z in V_R+; iterate the point forward first")
    with mp.workdps(_PHI_DPS):
        val = complex(phi_mp(m, z, _PHI_DPS))
    return BoettcherValue(val, abs(val) * _PHI_REL)


def _mp(v):
    """v at the working mpmath precision: int, Fraction and QC exactly (a
    double would cut 1/3 to 53 bits), floats and complex as they are.  Any
    of them but a complex comes back as an mpf when its imaginary part is
    0: a real map's coefficients then multiply an mpc with half the big-int
    work of an mpc product, and the rounded result is the same."""
    import mpmath as mp
    if isinstance(v, (mp.mpf, mp.mpc)):
        return v
    if isinstance(v, float):
        return mp.mpf(v)
    q = as_exact(v)
    if q is None:
        return mp.mpc(complex(v))
    re = mp.mpf(q.re.numerator) / q.re.denominator
    return mp.mpc(re, mp.mpf(q.im.numerator) / q.im.denominator) if q.im else re


@lru_cache(maxsize=128)
def _mp_all(values: tuple, prec: int) -> tuple:
    """_mp of each value at prec = mp.mp.prec bits, once per precision; values
    are a map's (a, a_0, ..., a_{d-2}) or a lift polynomial's A."""
    return tuple(map(_mp, values))


def _ipow(w, n: int):
    """w**n, n >= 1, by squaring: mpmath's w**2 is mpc_square (3 real products),
    while its mpc**n for n > 2 is exp(n log w) past about 10^4 bits."""
    out = w
    for bit in bin(n)[3:]:
        out = out ** 2 * w if bit == "1" else out ** 2
    return out


def phi_mp(m: HenonMap, z, dps: int, orbit: Optional[list] = None):
    """Arbitrary-precision phi = exp((Log y_J + 2 pi i k)/d^J), J chosen so the
    tail is below the working precision.  Call inside an mp.workdps context.
    If orbit is a list, the walk's points H^0 z .. H^J z are appended to it."""
    import mpmath as mp
    x, y = _mp(z[0]), _mp(z[1])
    d = m.d
    a, *coeffs = _mp_all((m.a, *m.coeffs), mp.mp.prec)
    # stop once _u_bound(|y|), which bounds this and every later factor, is
    # below 10^-(dps+10), read in doubles from binary exponents: L = max(mag
    # Re y, mag Im y) - 1 <= log2|y| gives _u_bound <= 2 max(A 2^-2L, B 2^-(d-1)L)
    log_a, log_b = (math.log2(c) if c else -math.inf for c in m.q_constants)
    stop = -(dps + 10) * math.log2(10) - 1
    # Arg y from its parts scaled exactly into the double range (complex(y) may be inf)
    e = -max(mp.mag(y.real), mp.mag(y.imag))
    theta, J = cmath.phase(complex(mp.ldexp(y.real, e), mp.ldexp(y.imag, e))), 0
    if orbit is not None:
        orbit.append((x, y))
    while J < 4 * dps + 60:
        L = max(mp.mag(y.real), mp.mag(y.imag)) - 1
        if max(log_a - 2 * L, log_b - (d - 1) * L) < stop:
            break
        q = horner(coeffs, y) - a * x
        yd = _ipow(y, d)
        # only u's guard and phase are read, so u is a double quotient while
        # |y|^d, between 2^(dL) and 2^(d(L+2)), is in the double range; the
        # big-float quotient decides the guard where |u| is within 1e-12 of 1
        # (or not finite), so the guard raises where it always did
        u = complex(q) / complex(yd) if d * (abs(L) + 2) < 1000 else math.nan
        if not abs(abs(u) - 1.0) > 1e-12:
            u = complex(q / yd)
        if abs(u) >= 1.0:
            raise DomainError("branch safety violated in phi_mp")
        theta = d * theta + cmath.phase(1 + u)
        x, y, J = y, yd + q, J + 1
        if orbit is not None:
            orbit.append((x, y))
    n, prec = d ** J, mp.mp.prec
    log_y = mp.ln(y, prec=min(prec, _ROOT_START))
    turns = (theta - float(log_y.imag)) / (2 * math.pi)
    # |theta| < 2^40 keeps its double rounding error far below a quarter turn
    if not (abs(theta) < 2.0 ** 40 and abs(turns - round(turns)) <= 0.25):
        raise PrecisionError(f"phi_mp winding not resolved: {turns:.3f} turns")
    k = round(turns)
    w = mp.exp((log_y + (mp.mpc(0, 2 * mp.pi * k) if k else 0)) / n, prec=min(prec, _ROOT_START))
    # Newton on w^n = y_J, w^n as J d-th powers, w within 2^-(p + g/2) of the root
    g = 2 * n.bit_length() + 10
    p = prec if prec <= _ROOT_START else _ROOT_START - g - 20
    while p < prec:
        p = min(2 * p, prec)
        with mp.workprec(p + g):
            w += w * (y / reduce(_ipow, [d] * J, w) - 1) / n
    return +w


def _q_mp(A: tuple, w, wd):
    """Q(w) = w w^d + sum_{i<d} A_i w^i, given wd = w^d."""
    return w * wd + horner(A, w)


# ---------------------------------------------------------------------------
# Lift polynomial
# ---------------------------------------------------------------------------

# an inexact A_j at or below this modulus counts as zero
_A_ZERO = 1e-9


@dataclass(frozen=True)
class LiftPolynomial:
    """Q(zeta) = zeta^{d+1} + A_{d-1} zeta^{d-1} + ... + A_0 (monic, no zeta^d)."""

    d: int
    A: tuple

    def __post_init__(self):
        if len(self.A) != self.d:
            raise ValueError(f"need {self.d} coefficients A_0..A_{self.d - 1}")
        object.__setattr__(self, "A", tuple(self.A))
        # a float overflow in either derivation shows up here as inf or nan
        if any(as_exact(c) is None and not cmath.isfinite(c) for c in self.A):
            raise OverflowError("lift polynomial has a non-finite coefficient")

    @property
    def A_complex(self) -> tuple:
        return tuple(complex(c) for c in self.A)

    def q_eval(self, zeta):
        """Evaluate Q; exact for exact zeta and coefficients."""
        return horner((*self.A, 0, 1), zeta)

    def nonzero_indices(self):
        """Indices j >= 1 of the nonzero A_j under the support rule of _exact."""
        return [j for j in support(self.A, _A_ZERO) if j >= 1]


def derive_lift_polynomial(m: HenonMap, strategy: str = "formal-series") -> LiftPolynomial:
    if strategy == "formal-series":
        return _derive_formal(m)
    if strategy == "bigfloat-fit":
        return _derive_fit(m)
    raise ValueError(f"unknown strategy {strategy!r}")


def cross_check_lift(m: HenonMap, tol: float = 1e-8) -> LiftPolynomial:
    """Run both strategies; raise InconsistencyError on disagreement."""
    qf = _derive_formal(m)
    qn = _derive_fit(m)
    for j in range(m.d):
        diff = abs(complex(qf.A[j]) - complex(qn.A[j]))
        if diff > tol:
            raise InconsistencyError(
                f"lift strategies disagree at A_{j}: {diff:.2e} > {tol:.0e}")
    return qf


# -- formal-series strategy -------------------------------------------------

# cap on _formal_cost, re-timed with _FIT_CAP in one process on a 2-core Xeon
# (median of 3 under 2 s, else one run; two such runs on the shared host
# differed by up to 1.5x): p = y^200 + 2y^198 + 1 (4.0e6) took 0.66 s, a dense
# d = 60 (a_k = k + 1, 2.2e6) 0.94-1.4 s, a dense d = 74 (5.0e6) 2.0 s,
# p = y^316 + 2y (948) 0.01 s and a dense d = 100 (1.7e7) 5.7 s; with random
# 30-digit p/q coefficients (b = 100, weight 4.6) a dense d = 40 (2.0e6)
# 0.79 s and a dense d = 60 (1.0e7) 5.0 s, and with 300-digit ones (b = 997,
# weight 179) a dense d = 20 (4.7e6) 0.57 s (the weight fits a dense d = 60 at
# b = 34, 100 and 333, 1.7, 4.5 and 30 times its time at b = 6, within 15 %);
# of float maps (a_k = k + 1.0) a dense d = 100 (1.8e6) 0.63 s, a dense
# d = 139 (4.9e6) 2.5 s, d = 140 (5.0e6) 2.4 s and d = 200 (1.5e7) 6.9 s
_FORMAL_CAP = 5 * 10 ** 6
# a float map's product, a Fraction times two complex doubles, took 3.3-5.6 us
# at d = 60..200, about 11 times the 0.35-0.40 us of an exact unit at the
# dense d = 74
_FLOAT_PRODUCT = 11
# the fit's cap on digits^2 * walks * d: d = 100 with a = 1e100 (1.9e9) took
# 0.46 s and with a = 1e100 i (3.7e9, not a real map) 0.83 s, d = 120 with
# a = 1e100 i (7.0e9) 1.4 s, d = 150 with a = 1e100 (7.6e9) 1.2 s, and y^200
# with a = 3 (1.6e10) 2.7 s and with a = 1e300 (3.5e10) 5.4 s
_FIT_CAP = 5 * 10 ** 9


def _formal_cost(d: int, s: list, exact: bool) -> tuple:
    """(cost, b) of the formal Q over the nonzero s_i: the products of
    Miller's recurrence.  A float product counts _FLOAT_PRODUCT times.  An
    exact one counts d times, as its operands grow with d, and ((b + 72)/80)^2
    >= 1 times, as they grow with the largest numerator or denominator bit
    length b of the s_i too (b is None for a float map)."""
    # s_i makes one product at each order n = i..k+1: (d+1-i)(d+2-i)/2 over all k
    products = sum((d + 1 - i) * (d + 2 - i) // 2 for i, _ in s)
    if not exact:
        return products * _FLOAT_PRODUCT, None
    bits = max((max(abs(t.numerator).bit_length(), t.denominator.bit_length())
                for _, c in s for t in (c.re, c.im)), default=0)
    return d * products * max(80, bits + 72) ** 2 // 80 ** 2, bits


def _derive_formal(m: HenonMap) -> LiftPolynomial:
    d = m.d
    a, *coeffs = field([m.a, *m.coeffs])
    zero = zero_of(a)
    # at x = 0, phi = y (1 + s)^{1/d} to t^d, t = 1/y, s = sum_{i=2..d} a_{d-i} t^i
    s = [(d - k, c) for k, c in enumerate(coeffs) if not is_zero(c)]
    cost, bits = _formal_cost(d, s, m.exact)
    if cost > _FORMAL_CAP:
        raise ValueError(
            f"the exact formal Q of this map costs about d * products = {cost}, past the cap "
            f"{_FORMAL_CAP}, a product counting ((b + 72)/80)^2 >= 1 times for coefficients "
            f"of b = {bits} bits" if m.exact else
            f"the float formal Q of this map costs about products * {_FLOAT_PRODUCT} = "
            f"{cost}, past the cap {_FORMAL_CAP}")

    lo = min((i for i, _ in s), default=d + 1)  # g_n = 0 for 0 < n < lo
    A = []  # A_1 .. A_{d-1}
    for k in range(d - 1, 0, -1):
        # A_{d-k} = -[y^-1] phi^k / k = -[t^{k+1}] (1 + s)^{k/d} / k, by J.C.P.
        # Miller's recurrence n g_n = sum_i ((k/d + 1) i - n) s_i g_{n-i}
        r1, g = Fraction(k, d) + 1, [1] + [zero] * (lo - 1)
        for n in range(lo, k + 2):
            g.append(sum(((r1 * i - n) * c * g[n - i] for i, c in s if i <= n), zero) / n)
        A.append(zero - g[k + 1] / k)
    # field makes a float map's empty sums complex
    return LiftPolynomial(d, (zero, *field(A)))


# -- bigfloat-fit strategy --------------------------------------------------

def fit_digits_needed(d: int, R: float) -> int:
    """Digits the fit needs on |y| = rho = 1000 R.  It reads A_{d-k} =
    -[y^-1] phi^k / k (proved in the module docstring) as the mean of
    y phi(y)^k over the samples; the largest summand, y phi^{d-1}, has size
    rho^d and carries that times each sample's rounding, and 20 digits are
    kept past that."""
    return math.ceil(d * (3 + math.log10(R))) + 20


def _derive_fit(m: HenonMap) -> LiftPolynomial:
    import mpmath as mp
    d = m.d
    R = estimate_filtration_radius(m).R
    digits = fit_digits_needed(d, R)
    N = 2 * d + 10  # aliasing error (R/rho)^N
    with mp.workdps(digits):
        # a real map (_mp makes every coefficient an mpf) commutes with
        # conjugation, so phi(0, conj y) = conj phi(0, y); as y_{N-n} = conj
        # y_n, it walks n = 0..N/2 only and sums Re(y_n phi_n^k), twice for
        # 0 < n < N/2, which makes its A exactly real
        real = all(isinstance(c, mp.mpf) for c in _mp_all((m.a, *m.coeffs), mp.mp.prec))
        walks = N // 2 + 1 if real else N
        if digits ** 2 * walks * d > _FIT_CAP:
            raise ValueError(f"the fit Q of this map costs about digits^2 * walks * d = "
                             f"{digits ** 2 * walks * d}, past the cap {_FIT_CAP}")
        rho = 1000 * mp.mpf(R)
        res = [0] * d  # res[k]: N [y^-1] phi^k by the trapezoidal rule
        for n in range(walks):
            y = rho * mp.expjpi(mp.mpf(2 * n) / N)
            f, t = phi_mp(m, (mp.mpf(0), y), digits), y
            w = 2 if real and 0 < n < N // 2 else 1
            for k in range(1, d):
                t *= f
                res[k] += w * t.real if real else t
        # A_{d-k} = -[y^-1] phi^k / k
        return LiftPolynomial(d, (0j, *(complex(-res[k] / (N * k)) for k in range(d - 1, 0, -1))))


# ---------------------------------------------------------------------------
# psi and the semiconjugacy residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiValue:
    """psi_N at depth N, with no bound on its distance to the limit.

    Use exact coefficients for deep psi: a float map's Q carries ~1e-16
    errors in its A_j, which (d/a)^{j+1} phi_j^k amplifies.  At z = (0.4-0.3i,
    -6.2853-7.2772i) HenonMap(3, 5+4j, (0.5-1j, 1+0.25j)) gives psi_4 =
    -4.1e35 and psi_5 = 2.9e141, while its exact QC twin gives
    -4.7113-0.9870i at every depth from 3 to 6."""

    value: complex
    depth: int
    precision_digits: int


def digits_needed(m: HenonMap, z, depth: int) -> int:
    """Decimal digits required for the x_N*y_N cancellation at this depth."""
    lx = math.log10(max(abs(complex(z[0])), 1.0))
    ly = math.log10(max(abs(complex(z[1])), 2.0))
    S = max(m.coeff_bound, 1.0)
    for _ in range(depth):
        lx, ly = ly, m.d * max(ly, 0.0) + math.log10(2.0 + S)
    return int(1.1 * (lx + ly)) + 40


def _psi_partials(m: HenonMap, z, q: LiftPolynomial, depth: int, dps: int):
    """(psi_depth, phi(z)) inside an mp context of dps digits.
    The orbit H^j z is phi_mp's walk, extended here only if it stopped short."""
    import mpmath as mp
    d = m.d
    a, *coeffs = _mp_all((m.a, *m.coeffs), mp.mp.prec)
    orbit = []
    phi0 = phi_mp(m, z, dps, orbit)
    while len(orbit) <= depth:
        x, y = orbit[-1]
        orbit.append((y, _ipow(y, d) + (horner(coeffs, y) - a * x)))
    A = _mp_all(q.A, mp.mp.prec)
    doa = mp.mpf(d) / a
    qsum = mp.mpf(0)
    scale, phij = mp.mpf(1), phi0  # (d/a)^j and phi(H^j z) = phi0^(d^j)
    for j in range(depth):
        scale *= doa
        phin = _ipow(phij, d)
        qsum += scale * _q_mp(A, phij, phin)
        phij = phin
    return scale * orbit[depth][0] * orbit[depth][1] - qsum, phi0


def psi(m: HenonMap, z, q: LiftPolynomial, depth: int,
        precision_digits: Optional[int] = None,
        filtration: Optional[FiltrationRadius] = None) -> PsiValue:
    """Telescoping psi_N with validated precision budget.  OverflowError when
    psi_N lies past the double range: no value can be reported."""
    import mpmath as mp
    if depth < 1:
        raise ValueError("depth must be >= 1")
    filt = filtration_of(m, filtration)
    if not in_v_plus(z, filt.R):
        raise DomainError("psi requires z in V_R+")
    need = digits_needed(m, z, depth)
    dps = need if precision_digits is None else precision_digits
    if dps < need:
        raise PrecisionError(f"depth {depth} at this point needs about {need} digits, got {dps}")
    with mp.workdps(dps):
        value = complex(_psi_partials(m, z, q, depth, dps)[0])
    if not cmath.isfinite(value):
        raise OverflowError(f"psi at depth {depth} leaves the double range")
    return PsiValue(value, depth, dps)


def semiconjugacy_residual(m: HenonMap, q: LiftPolynomial, sample_points: Sequence,
                           depth: int, precision_digits: int,
                           filtration: Optional[FiltrationRadius] = None) -> float:
    """max over samples of ||((a/d)psi + Q(phi), phi^d) - (psi o H, phi o H)||.

    Depth-matched: the same depth N is used at z and H(z).
    """
    import mpmath as mp
    if not sample_points:
        return 0.0
    filt = filtration_of(m, filtration)
    worst = 0.0
    for z in sample_points:
        if not in_v_plus(z, filt.R):
            raise DomainError("semiconjugacy sample point outside V_R+")
        hz = evaluate(m.doubles, (complex(z[0]), complex(z[1])))
        need = max(digits_needed(m, z, depth), digits_needed(m, hz, depth))
        if precision_digits < need:
            raise PrecisionError(
                f"depth {depth} needs about {need} digits, got {precision_digits}")
        with mp.workdps(precision_digits):
            aod = _mp_all((m.a, *m.coeffs), mp.mp.prec)[0] / m.d
            psi_z, phi_z = _psi_partials(m, z, q, depth, precision_digits)
            psi_hz, phi_hz = _psi_partials(m, hz, q, depth, precision_digits)
            phi_zd = _ipow(phi_z, m.d)
            r1 = abs(aod * psi_z + _q_mp(_mp_all(q.A, mp.mp.prec), phi_z, phi_zd) - psi_hz)
            r2 = abs(phi_zd - phi_hz)
            worst = max(worst, float(r1), float(r2))
    return worst
