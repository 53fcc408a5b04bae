"""Boettcher coordinate, lift-polynomial derivation, and the telescoping
semiconjugacy functional."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from henonlab import (DomainError, HenonMap, PrecisionError, cross_check_lift,
                      derive_lift_polynomial, evaluate, phi, psi,
                      semiconjugacy_residual)
from henonlab.boettcher import _mp, digits_needed, phi_mp
from henonlab.maps import estimate_filtration_radius, horner, in_v_plus, overflow_limit
from henonlab.series import LaurentSeries2

QUAD = HenonMap(2, 3, (0,))
CUBIC = HenonMap(3, 9, (0, 0))


# -- truncated series kernel -------------------------------------------------

def test_series_mul_truncates_at_dmin():
    s = LaurentSeries2(-4, {(0, -1): 1.0})   # x^0 y^-1
    t = LaurentSeries2(-4, {(1, -3): 2.0})   # 2 x y^-3
    prod = s * t
    assert prod.coeff(1, -4) == pytest.approx(2.0)


def test_series_binomial_pow_matches_square():
    u = LaurentSeries2(-6, {(0, -1): 0.5, (1, -2): -0.25})
    base = LaurentSeries2.const(1, -6) + u
    via_pow = base.binomial_pow(2)
    direct = base * base
    for key, val in direct.terms.items():
        assert via_pow.coeff(*key) == pytest.approx(val)


# -- Boettcher coordinate ----------------------------------------------------

def test_phi_functional_equation():
    filt = estimate_filtration_radius(QUAD)
    rng = random.Random(41)
    for _ in range(100):
        y = cmath.rect(rng.uniform(filt.R, 3 * filt.R), rng.uniform(0, 2 * math.pi))
        x = cmath.rect(abs(y) * rng.random(), rng.uniform(0, 2 * math.pi))
        z = (x, y)
        pv = phi(QUAD, z, filtration=filt)
        pv2 = phi(QUAD, evaluate(QUAD, z), filtration=filt)
        assert abs(pv2.value - pv.value ** 2) / abs(pv.value) ** 2 < 1e-9


def test_phi_outside_domain_raises():
    with pytest.raises(DomainError):
        phi(QUAD, (0, 1))


def test_phi_within_its_bound_of_60_digit_phi_mp():
    """phi against phi_mp at 60 digits for d = 2..40, complex a and
    coefficients to 1e30, with |y| in [R, 100R] and past the overflow limit
    (where |q/y^d| need not be small when R is near or past it)."""
    rng = random.Random(11)
    bad = []
    for d in range(2, 41):
        for _ in range(2):
            scale = 10.0 ** rng.uniform(0.0, 30.0)
            m = HenonMap(d, cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(0.0, 2 * math.pi)),
                         tuple(cmath.rect(scale * rng.uniform(0.0, 2.0),
                                          rng.uniform(0.0, 2 * math.pi)) for _ in range(d - 1)))
            R = estimate_filtration_radius(m).R
            lim = max(R, overflow_limit(d))
            for r in (R * (1 + 1e-9), R * rng.uniform(1.0, 100.0), lim * rng.uniform(1.0, 100.0)):
                z = (cmath.rect(r * rng.random(), rng.uniform(0.0, 2 * math.pi)),
                     cmath.rect(r, rng.uniform(0.0, 2 * math.pi)))
                bv = phi(m, z)
                with mp.workdps(60):
                    diff = abs(mp.mpc(bv.value) - phi_mp(m, z, 60))
                if not diff <= bv.error_bound < math.inf:
                    bad.append((m, z, bv, float(diff)))
    assert not bad, bad


def test_u_bound_holds_past_1e150():
    # B / |y|^(d-1) for p = y^2, a = 3 (B = 1 backwards); the old 1e-300
    # cutoff undercut it
    from henonlab.boettcher import _u_bound
    assert _u_bound(QUAD, 1e151) == 3 / 1e151
    assert _u_bound(QUAD, 1e151, inverse=True) == 1 / 1e151


def test_phi_tail_bound_needs_truncation_at_least_one():
    # at J = 0 the tail starts below 2R, where |u| <= 1/2 is not proven
    from henonlab.boettcher import phi_tail_bound
    assert phi_tail_bound(QUAD, 100.0, 1) > 0.0
    with pytest.raises(ValueError, match="J >= 1"):
        phi_tail_bound(QUAD, 100.0, 0)


def test_phi_asymptotic_to_y():
    pv = phi(QUAD, (0, 1e8))
    assert pv.value == pytest.approx(1e8, rel=1e-7)


def _phi_mp_per_factor(m, z, dps):
    """Reference: y * prod_j (1+u_j)^(1/d^(j+1)), one principal log and exp per
    factor, with phi_mp's cutoff; returns (phi, J, y_J)."""
    x, y = _mp(z[0]), _mp(z[1])
    d, a = m.d, _mp(m.a)
    coeffs = [_mp(c) for c in m.coeffs]
    val, cutoff = y, mp.mpf(10) ** (-(dps + 10))
    Asum, Babs = sum(abs(c) for c in coeffs), abs(a)
    J = 0
    while Asum / abs(y) ** 2 + Babs / abs(y) ** (d - 1) >= cutoff:
        q = horner(coeffs, y) - a * x
        u = q / y ** d
        assert abs(u) < 0.5
        val *= mp.exp(mp.log(1 + u) / mp.mpf(d) ** (J + 1))
        x, y, J = y, y ** d + q, J + 1
    return val, J, y


def _complex_maps():
    rng = random.Random(2024)
    for d in range(2, 7):
        a = complex(rng.uniform(-4, 4), rng.uniform(0.5, 4))
        yield HenonMap(d, a, tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                   for _ in range(d - 1)))


@pytest.mark.parametrize("dps", [30, 80, 400, 1800])
def test_phi_mp_matches_per_factor_product(dps):
    """phi_mp = y_J^(1/d^J) with a tracked winding agrees with the per-factor
    product, including arg y within 1e-3 of +-pi and windings of several turns.
    At 1800 digits, the precision of the deepest psi, two maps are enough to
    hold phi_mp's exponent stop rule to the reference's mpf cutoff."""
    windings = set()
    maps = list(_complex_maps())
    for m in maps[:2] if dps > 400 else maps:
        r = 3 * estimate_filtration_radius(m).R
        for t in (math.pi - 5e-4, -math.pi + 5e-4, 2.5, -0.7):
            z = (cmath.rect(0.5 * r, 1.0 - t), cmath.rect(r, t))
            with mp.workdps(dps):
                want, J, yJ = _phi_mp_per_factor(m, z, dps)
                got = phi_mp(m, z, dps)
                assert abs(got - want) <= mp.mpf(10) ** (2 - dps) * abs(want)
                windings.add(int(mp.nint((m.d ** J * mp.arg(want) - mp.arg(yJ)) / (2 * mp.pi))))
    assert max(map(abs, windings)) >= 3


# V_R+ points where |q/y^d| lies in [1/2, 1): the doubling radius proves
# only |q/y^d| <= 1 - 2/|y|^(d-1) there, and the principal branch needs |u| < 1
WIDE_BRANCH_POINTS = [
    (HenonMap(5, 4.611390967291932 + 4.137472671197903j,
              (0.5748598692096989 - 1.441052075876614j, 2.8858833745480785 - 0.022166971069502495j,
               -0.5070497086791113 - 1.0850847089956976j, 2.905659078396339 - 0.049471694400405664j)),
     (0.6112852619389675 - 0.2633732501753707j, -2.3804015884045304 - 0.4939659880321677j)),
    (HenonMap(6, -2.0138899065399785 + 3.119006430313391j,
              (-1.5517766724494158 + 1.004882770772249j, 0.4102165324794864 + 2.3784799987351706j,
               -0.13910229951134134 - 1.0281594508434782j, -1.4454876236839527 - 0.8171194894799916j,
               -2.9993033268490183 - 2.2830035630789283j)),
     (-0.48526483920054647 - 2.2582530093867614j, -0.138804189320013 + 2.3318596715142768j)),
    (HenonMap(6, 3.4049881136141327 + 1.8482165062125633j,
              (0.635337209488573 - 2.408635379218558j, -1.0938496696204973 - 1.3327437256096315j,
               2.24231542198316 + 2.2290567163641697j, 1.212177748846658 + 1.0853304636497807j,
               -2.179413589347218 - 2.901358698054966j)),
     (-0.19161642222663122 + 1.4778850039925833j, -1.484971365357774 + 1.9249561753775875j)),
]


@pytest.mark.parametrize("m,z", WIDE_BRANCH_POINTS, ids=["d5", "d6a", "d6b"])
def test_phi_accepts_branch_parameter_between_one_half_and_one(m, z):
    x, y = z
    u = abs((m.p(y) - y ** m.d - m.a * x) / y ** m.d)
    assert 0.5 <= u < 1 and in_v_plus(z, estimate_filtration_radius(m).R)
    bv = phi(m, z)
    with mp.workdps(60):
        ref = complex(phi_mp(m, z, 60))
    assert abs(bv.value - ref) <= bv.error_bound
    phz = phi(m, evaluate(m, z)).value
    assert abs(phz - bv.value ** m.d) <= 1e-14 * abs(phz)


def test_psi_complex_a_depth_5_stable_under_30_more_digits():
    m = HenonMap(3, 5 + 4j, (0.5 - 1j, 1 + 0.25j))
    q = derive_lift_polynomial(m, "formal-series")
    z = (0.3 + 0.2j, cmath.rect(2.2 * estimate_filtration_radius(m).R, 2.0))
    base = psi(m, z, q, 5)
    more = psi(m, z, q, 5, precision_digits=base.precision_digits + 30)
    assert abs(more.value - base.value) <= 1e-12 * max(1.0, abs(base.value))


# -- lift polynomial Q -------------------------------------------------------

FROZEN_Q = (
    # map, expected A_0..A_{d-1} (exact rationals as floats)
    (HenonMap(2, 3, (1,)), (0.0, -0.5)),            # p = y^2 + 1
    (HenonMap(4, 16, (0, 1, 0)), (0.0, 0.0, -0.25)),  # p = y^4 + y
    (HenonMap(3, 9, (2, -1)), (0.0, -2 / 3, 1 / 3)),  # p = y^3 - y + 2
)


@pytest.mark.parametrize("m,expected", FROZEN_Q, ids=["y2+1", "y4+y", "y3-y+2"])
def test_lift_polynomial_frozen_values(m, expected):
    for strategy in ("formal-series", "bigfloat-fit"):
        q = derive_lift_polynomial(m, strategy)
        for j, want in enumerate(expected):
            assert complex(q.A[j]) == pytest.approx(want, abs=1e-10), \
                f"A_{j} ({strategy})"


def test_cross_check_consistency():
    q = cross_check_lift(HenonMap(3, 9, (2, -1)))
    assert complex(q.A[2]) == pytest.approx(1 / 3, abs=1e-10)


def test_pure_power_maps_have_trivial_q():
    for m in (QUAD, CUBIC):
        q = derive_lift_polynomial(m, "formal-series")
        assert all(complex(c) == 0 for c in q.A)


# -- psi and the semiconjugacy -----------------------------------------------

def test_psi_gap_decays_geometrically():
    """gap_{N+1} <= (|d/a| + 0.1) gap_N for a map whose telescoping error
    approaches a nonzero constant along orbits (p = y^2, a = 3)."""
    q = derive_lift_polynomial(QUAD, "formal-series")
    filt = estimate_filtration_radius(QUAD)
    z = (1.0, 20.0)
    gaps = [psi(QUAD, z, q, depth, filtration=filt).convergence_gap
            for depth in range(2, 7)]
    rate = 2 / 3 + 0.1
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 <= rate * g0


def test_psi_requires_adequate_precision():
    q = derive_lift_polynomial(CUBIC, "formal-series")
    with pytest.raises(PrecisionError):
        psi(CUBIC, (0, 8.0), q, depth=3, precision_digits=15)


def test_psi_outside_domain_raises():
    q = derive_lift_polynomial(QUAD, "formal-series")
    with pytest.raises(DomainError):
        psi(QUAD, (5.0, 1.0), q, depth=1)


def test_semiconjugacy_detects_wrong_q():
    """Perturbing A_0 by 1 makes the residual jump to about d/|a|."""
    from henonlab.boettcher import LiftPolynomial
    m = CUBIC
    filt = estimate_filtration_radius(m)
    good = derive_lift_polynomial(m, "formal-series")
    bad = LiftPolynomial(m.d, (complex(good.A[0]) + 1.0,) + tuple(good.A[1:]))
    pts = [(0.5, 6.0), (0.0, -7.0)]
    r_good = semiconjugacy_residual(m, good, pts, depth=2, precision_digits=120,
                                    filtration=filt)
    r_bad = semiconjugacy_residual(m, bad, pts, depth=2, precision_digits=120,
                                   filtration=filt)
    assert r_good < 1e-8
    assert r_bad > 0.01
    # constant perturbation telescopes to exactly (d/a)^depth in the residual
    assert r_bad == pytest.approx((m.d / abs(complex(m.a))) ** 2, rel=0.2)


def test_psi_converges_for_cubic_with_non_dyadic_q():
    """p = y^3 + 1, a = 9 has A_1 = -1/3; passed to mpmath as a double, its
    53-bit error times |phi|^3 made psi grow with depth instead of converge."""
    m = HenonMap(3, 9, (1, 0))
    q = derive_lift_polynomial(m, "formal-series")
    assert q.A[1] == Fraction(-1, 3)
    z = (0.5, 10.0)
    gaps = [psi(m, z, q, depth).convergence_gap for depth in (3, 4, 5)]
    assert gaps[2] < gaps[1] < gaps[0]
    hz = evaluate(m, z)
    r3, r4 = (semiconjugacy_residual(
        m, q, [z], depth, max(digits_needed(m, z, depth), digits_needed(m, hz, depth)))
        for depth in (3, 4))
    assert r4 <= (m.d / abs(complex(m.a)) + 0.1) * r3
