"""Boettcher coordinate phi on V_R+, the lift polynomial Q, and psi.

phi(x,y) = y * prod_{j>=0} (1 + q(x_j,y_j)/y_j^d)^(1/d^{j+1}) with
q(x,y) = p(y) - ax - y^d, satisfying phi o H = phi^d and G+ = log|phi|.
Every factor uses the principal branch, which needs only Re(1+u) > 0 for
u = q/y^d; the guard |u| < 1 is enforced at runtime, never assumed (on
V_R+ the doubling radius gives |u| <= 1 - 2/|y|^{d-1}, not 1/2).  The
product to J equals y_J^{1/d^J}: phi_mp stops once the factors left are
below 10^-(dps+10), tracks the winding theta_{j+1} = d theta_j + Arg(1+u_j)
in doubles (u_j is the quotient of the top bits of q and y_j^d, except
where the big-float one at the working precision must decide |u_j| < 1),
and takes the root by Newton steps from a complex-double start, on a ladder
of precisions built down from the working one, each step's correction at the
bits it carries.  phi is phi_mp at 30 digits rounded to a
complex double.  phi_mp is the one phi entry point: G+ needs only |phi_J| =
|y_J|^{1/d^J}, which the potential module reads from the height of its own
walk.

The walk, the root, psi, the semiconjugacy residual and the fit's sums
compute on _Gauss, a complex big float held as a Gaussian integer of
Python ints over one binary exponent: a product is three integer products
(two with a real factor), a square two, powers go by squaring, and each
result is cut to the working precision by one right shift.  Doubles and
dyadic rationals enter exactly.  mpmath stays at the edges, imported where
it is used: phi_mp takes and returns its numbers and reads its precision,
and the fit's sample points are mpmath values.

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
one phi_mp walks at the same precision, and the powers phi(H^j z) = phi^(d^j)
are read off its root's last Newton step.  The head (d/a)^N x_N y_N and the
sum run at the working precision P; each term (d/a)^(j+1) Q(phi_j) is formed
at the bits that keep its absolute error below 2^-P |head|, so only the
deepest terms, whose size is near the head's, take all P bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._exact import QC, as_exact, field, is_zero, support, zero_of
from .errors import DomainError, InconsistencyError, PrecisionError
from .maps import (FiltrationRadius, HenonMap, estimate_filtration_radius, evaluate,
                   filtration_of, horner, in_v_plus)
# kept for perfbench, whose traced run records spans under these names and
# patches them by identity: they must be the very functions potential calls
from .potential import phi_product, phi_tail_bound


# ---------------------------------------------------------------------------
# Gaussian-integer big floats
# ---------------------------------------------------------------------------

def _dyadic(t, p: int) -> tuple:
    """(n, e) with n 2^e = t for an int, float, mpf or dyadic Fraction; for
    any other Fraction n is t 2^-e rounded down, of p or p + 1 bits."""
    if hasattr(t, "_mpf_"):
        sign, man, e, _ = t._mpf_
        if not man and e:
            raise ValueError("not a finite number")
        return (-int(man) if sign else int(man)), e
    n, q = t.as_integer_ratio()
    if not q & (q - 1):
        return n, 1 - q.bit_length()
    k = p + q.bit_length() - n.bit_length()
    return (n << k) // q if k >= 0 else n // (q << -k), -k


def _float(n: int, e: int) -> float:
    """n 2^e rounded to the nearest double (an infinity past the range)."""
    try:
        return float(n << e) if e >= 0 else n / (1 << -e)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


class _Gauss:
    """The complex big float (re + i im) 2^e: a Gaussian integer re + i im
    of Python ints and one binary exponent e shared by both parts.  A value
    keeps at most p bits (the longer part's bit length): each result is
    formed exactly in integers and then cut to p bits by one right shift, so
    each part is off by less than one unit of its last bit and, normwise,
    |error| < sqrt(2) 2^e <= 2^(1.5 - p) |result|.  A product takes three
    integer products (Gauss: re = c(a + b) - b(c + d), im = c(a + b) +
    a(d - c)), two when either factor is real, and a square two.  A sum whose
    exponents lie more than p bits apart cuts the one of lower exponent to
    the other's exponent - p first, an error below 2^(0.5 - p) times the
    other operand (zero excepted, which adds nothing).  A quotient, a floor
    division of integers before the cut, is within 2^(2.5 - p).  Binary
    operations take a _Gauss on the left and work at its p; the right
    operand, if not a _Gauss, enters by of."""

    __slots__ = ("re", "im", "e", "p")

    def __init__(self, re: int, im: int, e: int, p: int):
        n, m = re.bit_length(), im.bit_length()
        if m > n:
            n = m
        n -= p
        if n > 0:
            re >>= n
            im >>= n
            e += n
        self.re, self.im, self.e, self.p = re, im, e, p

    @staticmethod
    def of(v, p: int) -> "_Gauss":
        """v at p bits: an int, Fraction, float, complex, QC, mpf or mpc.  A
        double and a dyadic rational enter exactly while they fit in p bits,
        so an orbit's first products stay short; any other value is rounded
        down to p bits."""
        if isinstance(v, (int, float, Fraction)) or hasattr(v, "_mpf_"):
            n, e = _dyadic(v, p)
            return _Gauss(n, 0, e, p)
        re, im = (v.re, v.im) if isinstance(v, QC) else (v.real, v.imag)
        (nr, er), (ni, ei) = _dyadic(re, p), _dyadic(im, p)
        e = min(er if nr else ei, ei if ni else er)
        return _Gauss(nr << (er - e) if nr else 0, ni << (ei - e) if ni else 0, e, p)

    def at(self, p: int) -> "_Gauss":
        """This value cut to p bits, or relabelled p if it is shorter."""
        return self if p == self.p else _Gauss(self.re, self.im, self.e, p)

    def to_mp(self):
        """The mpmath mpc nearest to this value at mpmath's working precision."""
        import mpmath as mp
        return mp.mpc(mp.mpf((self.re, self.e)), mp.mpf((self.im, self.e)))

    def __complex__(self) -> complex:
        return complex(_float(self.re, self.e), _float(self.im, self.e))

    def top(self) -> tuple:
        """(t, k): this value is t 2^k, t a complex double of the top 64 bits
        (relative error below 2^-52)."""
        k = max(self.re.bit_length(), self.im.bit_length()) - 64
        if k <= 0:
            return complex(self.re, self.im), self.e
        return complex(self.re >> k, self.im >> k), self.e + k

    def mag(self) -> int:
        """The least m with both parts below 2^m in modulus."""
        return max(self.re.bit_length(), self.im.bit_length()) + self.e

    def __abs__(self) -> float:
        t, k = self.top()
        try:
            return math.ldexp(abs(t), k)
        except OverflowError:
            return math.inf

    def __neg__(self) -> "_Gauss":
        return _Gauss(-self.re, -self.im, self.e, self.p)

    def __add__(self, other) -> "_Gauss":
        o = other if other.__class__ is _Gauss else _Gauss.of(other, self.p)
        return self._add(o.re, o.im, o.e)

    def __sub__(self, other) -> "_Gauss":
        if other.__class__ is not _Gauss:
            return self + -other
        return self._add(-other.re, -other.im, other.e)

    def _add(self, re: int, im: int, e: int) -> "_Gauss":
        """self + (re + i im) 2^e at self's p."""
        p, sr, si, se = self.p, self.re, self.im, self.e
        if se < e:
            sr, si, se, re, im, e = re, im, e, sr, si, se
        g = se - e
        if g <= p:
            return _Gauss((sr << g) + re, (si << g) + im, e, p)
        if not (sr or si):  # a zero's exponent says nothing of its size
            return _Gauss(re, im, e, p)
        g -= p
        return _Gauss((sr << p) + (re >> g), (si << p) + (im >> g), se - p, p)

    def __mul__(self, other) -> "_Gauss":
        p = self.p
        if other.__class__ is int and other.bit_length() <= p:  # exact, as of would enter it
            return _Gauss(self.re * other, self.im * other, self.e, p)
        o = other if other.__class__ is _Gauss else _Gauss.of(other, p)
        a, b, c, d = self.re, self.im, o.re, o.im
        if not b:
            return _Gauss(a * c, a * d, self.e + o.e, p)
        if not d:
            return _Gauss(a * c, b * c, self.e + o.e, p)
        k = c * (a + b)
        return _Gauss(k - b * (c + d), k + a * (d - c), self.e + o.e, p)

    def square(self) -> "_Gauss":
        a, b = self.re, self.im
        return _Gauss((a + b) * (a - b), (a * b) << 1, 2 * self.e, self.p)

    def __pow__(self, n: int) -> "_Gauss":
        """self^n, n >= 1, by squaring."""
        out = self
        for bit in bin(n)[3:]:
            out = out.square()
            if bit == "1":
                out = out * self
        return out

    def __truediv__(self, other) -> "_Gauss":
        """The quotient rounded down to p bits; an int divides exactly."""
        p = self.p
        if isinstance(other, int):
            nr, ni, den, e = self.re, self.im, other, self.e
        else:
            o = other if other.__class__ is _Gauss else _Gauss.of(other, p)
            c, d = o.re, o.im
            nr, ni = self.re * c + self.im * d, self.im * c - self.re * d
            den, e = c * c + d * d, self.e - o.e
        k = max(p + den.bit_length() - max(nr.bit_length(), ni.bit_length()) + 1, 0)
        return _Gauss((nr << k) // den, (ni << k) // den, e - k, p)


# ---------------------------------------------------------------------------
# phi evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoettcherValue:
    value: complex
    error_bound: float


# phi's working precision.  phi_mp stops once the factors left are below
# 10^-(dps+10).  Its J steps run on _Gauss values of P = mp.prec bits, each
# result within one unit of its last bit (normwise 2^(1.5 - P)), and a step's
# error enters log phi divided by d^(j+1).  The root w = y_J^(1/n), n = d^J,
# starts from the double exp(c), c = (Log y_J + 2 pi i k)/n = log phi, with
# Log y_J read from y_J = t 2^k2, t its top 64 bits: a relative error e0 <=
# 2^-52 (4 + 4|c| + (64 + 2|k2| + 13|k|)/n), below 2^-40 for any double y.
# A Newton step w <- w (1 + eta), eta = (y_J - w^n)/(n w^n), takes e to
# (n - 1) e^2/2, so it contracts where (n - 1)|e|/2 < 1.  The steps climb a
# ladder built down from P (P, ceil(P/2) + 2, ...) to the first rung r0 the
# start holds, e0 <= 2^-(r0 + bitlen(n) + 5).  The step to rung p from the
# rung r below forms the chain W_j = w^(d^j) and y_J - w^n at p + g bits, g =
# 2 bitlen(n) + 10; the difference's leading bits cancel, as |eta| is within
# 2^-r of |e| <= 2^-(r + bitlen(n) + 5), so eta and w eta are formed at the
# h = p + g - r bits it carries, which adds less than 2^-(p + g) |w|: no
# quotient is taken at p + g bits, and the steps keep e below 2^-(p +
# bitlen(n) + 5).  phi_mp raises PrecisionError if r0 < 8 (n e0 > 2^-13: n
# near 2^30 for a double y, far past any walk's reach).  So the computed log
# phi is within 10^-(dps-10) with room to spare; at 30 digits two steps run,
# at 54 and 103 bits.  The last step also hands out the powers phi^(d^j) =
# (w (1 + eta))^(d^j) as W_j + d^j (W_j eta): as d^j <= n and 2r >= P + 4,
# the terms of (1 + eta)^(d^j) it drops are below (n |eta|)^2 <= 2^-(P + 14)
# of |W_j|, within 2^-(P + 7) with the roundings of W_j and of d^j W_j eta
_PHI_DPS = 30
_PHI_REL = 2.0 ** -52 + 10.0 ** -(_PHI_DPS - 10)
_LN2 = math.log(2.0)


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


def phi_mp(m: HenonMap, z, dps: int, orbit: Optional[list] = None,
           powers: Optional[list] = None):
    """Arbitrary-precision phi = exp((Log y_J + 2 pi i k)/d^J), J chosen so the
    tail is below the working precision, as an mpmath mpc.  Call inside an
    mp.workdps context; z may hold mpmath numbers.  If orbit is a list, the
    walk's points H^0 z .. H^J z are appended to it as _Gauss values; if
    powers is, phi(H^j z) = phi^(d^j), j = 0..J, read off the root's last
    Newton step (one value when no step ran)."""
    import mpmath as mp
    P, d = mp.mp.prec, m.d
    a, *coeffs = (_Gauss.of(c, P) for c in (m.a, *m.coeffs))
    x, y = _Gauss.of(z[0], P), _Gauss.of(z[1], P)
    # stop once _u_bound(|y|), which bounds this and every later factor, is
    # below 10^-(dps+10), read in doubles from binary exponents: L = mag y - 1
    # <= log2|y| gives _u_bound <= 2 max(A 2^-2L, B 2^-(d-1)L)
    log_a, log_b = (math.log2(c) if c else -math.inf for c in m.q_constants)
    stop = -(dps + 10) * math.log2(10) - 1
    theta, J = cmath.phase(y.top()[0]), 0
    if orbit is not None:
        orbit.append((x, y))
    while J < 4 * dps + 60:
        L = y.mag() - 1
        if max(log_a - 2 * L, log_b - (d - 1) * L) < stop:
            break
        q = horner(coeffs, y) - a * x
        yd = y ** d
        # only u's guard and phase are read, so u is the quotient of the two
        # tops in doubles (an infinity past the double range); the working-
        # precision quotient decides the guard where |u| is within 1e-12 of 1,
        # so the guard raises where it always did
        (tq, kq), (ty, ky) = q.top(), yd.top()
        u = tq / ty
        try:
            u = complex(math.ldexp(u.real, kq - ky), math.ldexp(u.imag, kq - ky))
        except OverflowError:
            u = complex(math.inf)
        if not abs(abs(u) - 1.0) > 1e-12:
            u = complex(q / yd)
        if abs(u) >= 1.0:
            raise DomainError("branch safety violated in phi_mp")
        theta = d * theta + cmath.phase(1 + u)
        x, y, J = y, yd + q, J + 1
        if orbit is not None:
            orbit.append((x, y))
    n = d ** J
    t, k2 = y.top()
    turns = (theta - cmath.phase(t)) / (2 * math.pi)
    # |theta| < 2^40 keeps its double rounding error far below a quarter turn
    if not (abs(theta) < 2.0 ** 40 and abs(turns - round(turns)) <= 0.25):
        raise PrecisionError(f"phi_mp winding not resolved: {turns:.3f} turns")
    k = round(turns)
    c = complex(math.log(abs(t)) + k2 * _LN2, cmath.phase(t) + 2 * math.pi * k) / n
    s = math.floor(c.real / _LN2)
    w = _Gauss.of(cmath.exp(complex(c.real - s * _LN2, c.imag)), 64)
    w = _Gauss(w.re, w.im, w.e + s, 64)
    e0 = 2.0 ** -52 * (4 + 4 * abs(c) + (64 + 2 * abs(k2) + 13 * abs(k)) / n)
    low = -math.log2(e0) - n.bit_length() - 5
    if low < 8:
        raise PrecisionError(f"phi_mp root start outside Newton's basin: n = {n}")
    rungs = [P]
    while rungs[-1] > low:
        rungs.append(-(-rungs[-1] // 2) + 2)
    g = 2 * n.bit_length() + 10
    chain = [w]
    for p, r in zip(rungs[-2::-1], rungs[:0:-1]):  # each rung p above the rung r below it
        p, h = p + g, p + g - r
        chain = [w.at(p)]
        for _ in range(J):
            chain.append(chain[-1] ** d)
        # w <- w (1 + eta), eta = (y_J - w^n)/(n w^n): the difference's leading
        # bits cancel, so eta and w eta are formed at the h bits it carries
        eta = (y.at(p) - chain[-1]).at(h) / (chain[-1].at(h) * n)
        w = chain[0] + chain[0].at(h) * eta
    if powers is not None:
        # (w (1 + eta))^(d^j) = W_j + d^j W_j eta to within 2^-(P+7) |W_j|
        powers.append(w)
        powers += [c + c.at(h) * (eta * d ** j) for j, c in enumerate(chain[1:], 1)]
    return w.to_mp()


def _q(A: list, w: _Gauss, wd: _Gauss) -> _Gauss:
    """Q(w) = w w^d + sum_{i<d} A_i w^i, given wd = w^d, at w's precision."""
    return w * wd + horner([*A[:-1], A[-1].at(w.p)], w)


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
# the fit's cap on digits^2 * walks * d, re-timed on the _Gauss kernel (2-core
# Xeon, shared host, median of 3 in each of two processes): d = 100 with
# a = 1e100 (1.9e9) took 0.19-0.28 s and with a = 1e100 i (3.7e9, not a real
# map) 0.36-0.38 s, d = 120 with a = 1e100 i (7.0e9) 0.73-0.83 s, d = 150 with
# a = 1e100 (7.6e9) 0.69-0.86 s, and y^200 with a = 3 (1.6e10) 1.5-1.7 s and
# with a = 1e300 (3.5e10) 2.0-2.2 s.  The mpmath walks the value was set on
# took 1.1 to 2.8 times as long in the same runs; the value is kept, so the
# same maps are admitted
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
    # a real map (no coefficient a complex or of nonzero imaginary part)
    # commutes with conjugation, so phi(0, conj y) = conj phi(0, y); as y_{N-n}
    # = conj y_n, it walks n = 0..N/2 only and sums Re(y_n phi_n^k), twice for
    # 0 < n < N/2, which makes its A exactly real
    real = not any(isinstance(c, complex) or (c.im if isinstance(c, QC) else c.imag)
                   for c in (m.a, *m.coeffs))
    walks = N // 2 + 1 if real else N
    if digits ** 2 * walks * d > _FIT_CAP:
        raise ValueError(f"the fit Q of this map costs about digits^2 * walks * d = "
                         f"{digits ** 2 * walks * d}, past the cap {_FIT_CAP}")
    with mp.workdps(digits):
        P, rho = mp.mp.prec, 1000 * mp.mpf(R)
        res = [0] * d  # res[k]: N [y^-1] phi^k by the trapezoidal rule
        for n in range(walks):
            y = rho * mp.expjpi(mp.mpf(2 * n) / N)
            f, t = _Gauss.of(phi_mp(m, (mp.mpf(0), y), digits), P), _Gauss.of(y, P)
            w = 2 if real and 0 < n < N // 2 else 1
            for k in range(1, d):
                t = t * f
                res[k] = (_Gauss(w * t.re, 0, t.e, P) if real else t) + res[k]
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


def _log2(v: _Gauss) -> float:
    """log2|v| in doubles from v's top bits (-inf for zero)."""
    t, k = v.top()
    return math.log2(abs(t)) + k if t else -math.inf


def _psi_partials(m: HenonMap, z, q: LiftPolynomial, depth: int, dps: int):
    """(psi_depth, [phi(H^j z) for j = 0..depth]) as _Gauss values, inside an
    mp context of dps digits.  The orbit H^j z is phi_mp's walk and the powers
    its root's, each extended here only if the walk stopped short.  The head
    (d/a)^N x_N y_N and the sum are formed at the working P bits; each term
    (d/a)^(j+1) Q(phi_j) at the bits that keep its absolute error below
    2^-P |head|, sized from a bound on |Q(phi_j)| read off the binary
    exponents of phi_j and the A_i."""
    import mpmath as mp
    P, d = mp.mp.prec, m.d
    a, *coeffs = (_Gauss.of(c, P) for c in (m.a, *m.coeffs))
    orbit, powers = [], []
    phi_mp(m, z, dps, orbit, powers)
    while len(orbit) <= depth:
        x, y = orbit[-1]
        orbit.append((y, y ** d + (horner(coeffs, y) - a * x)))
    while len(powers) <= depth:
        powers.append(powers[-1] ** d)
    A = [_Gauss.of(c, P) for c in q.A]
    doa = _Gauss.of(d, P) / a
    log_doa = _log2(doa)
    x, y = orbit[depth]
    # a term of p bits is within (2d + depth + 6) 2^(1.5 - p) times its bound
    # 2^size: the products and sums of Q(phi_j), the j + 1 factors of
    # (d/a)^(j+1) and the cuts.  p = size - low bits keep that below 2^-P |head|
    low = depth * log_doa + _log2(x) + _log2(y) - P - (2 * d + depth + 6).bit_length() - 2
    # |v| < 2^(mag v + 1/2), and |Q(phi_j)| is at most d + 1 monomial bounds
    mags = [(i, c.mag() + 0.5) for i, c in enumerate(A) if c.re or c.im]
    qsum, scale = _Gauss(0, 0, 0, P), _Gauss.of(1, P)
    for j in range(depth):
        scale = scale * doa  # (d/a)^(j+1)
        phij, phin = powers[j], powers[j + 1]
        lj = phij.mag() + 0.5
        size = (j + 1) * log_doa + math.log2(d + 1) + max(
            [lj + phin.mag() + 0.5] + [la + i * lj for i, la in mags])
        p = min(P, max(64, math.ceil(size - low)))
        qsum = qsum + scale.at(p) * _q(A, phij.at(p), phin.at(p))
    return scale * x * y - qsum, powers


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
            P = mp.mp.prec
            aod = _Gauss.of(m.a, P) / m.d
            psi_z, (phi_z, phi_zd, *_) = _psi_partials(m, z, q, depth, precision_digits)
            psi_hz, (phi_hz, *_) = _psi_partials(m, hz, q, depth, precision_digits)
            if not all(map(cmath.isfinite, (complex(psi_z), complex(psi_hz)))):
                raise OverflowError(f"psi at depth {depth} leaves the double range")
            phi_z = phi_z.at(P)
            r1 = abs(aod * psi_z + _q([_Gauss.of(c, P) for c in q.A], phi_z, phi_zd) - psi_hz)
            worst = max(worst, r1, abs(phi_zd - phi_hz))
    return worst
