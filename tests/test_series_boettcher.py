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
from henonlab._exact import QC
from henonlab.boettcher import (_ipow, _mp, _psi_partials, digits_needed, fit_digits_needed,
                                phi_mp)
from henonlab.maps import _u_bound, estimate_filtration_radius, horner, in_v_plus, overflow_limit
from henonlab.potential import phi_tail_bound

QUAD = HenonMap(2, 3, (0,))
CUBIC = HenonMap(3, 9, (0, 0))
# the maps of perfbench's lift-exact workload: y^2+1, y^3+1 and y^4+y^2
LIFT_EXACT_MAPS = [HenonMap(2, 3, (1,)), HenonMap(3, 9, (1, 0)), HenonMap(4, 16, (0, 0, 1))]


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
    assert _u_bound(QUAD, 1e151) == 3 / 1e151
    assert _u_bound(QUAD, 1e151, inverse=True) == 1 / 1e151


def test_phi_tail_bound_needs_truncation_at_least_one():
    # the tail starts after one factor, at |y_1| >= 2R, where |u| <= 1/2 is proven
    assert phi_tail_bound(QUAD, 100.0) > 0.0


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
    At 1800 digits, the precision of the deepest psi, where the root is taken
    by Newton steps, two of the random maps hold phi_mp's exponent stop rule
    to the reference's mpf cutoff, and the three lift-exact maps are checked
    too.  A point with |y| already past the stop has J = 0, so d^J = 1.  At
    |y| = 10^400, past the double range, the start phase comes from the
    scaled mantissas (J = 3 at 1800 digits)."""
    windings = set()
    maps = list(_complex_maps())
    for m in maps[:2] + LIFT_EXACT_MAPS if dps > 400 else maps:
        r = 3 * estimate_filtration_radius(m).R
        for t in (math.pi - 5e-4, -math.pi + 5e-4, 2.5, -0.7):
            z = (cmath.rect(0.5 * r, 1.0 - t), cmath.rect(r, t))
            with mp.workdps(dps):
                want, J, yJ = _phi_mp_per_factor(m, z, dps)
                got = phi_mp(m, z, dps)
                assert abs(got - want) <= mp.mpf(10) ** (2 - dps) * abs(want)
                windings.add(int(mp.nint((m.d ** J * mp.arg(want) - mp.arg(yJ)) / (2 * mp.pi))))
    assert max(map(abs, windings)) >= 3
    with mp.workdps(dps):
        z = (mp.mpf(1), mp.mpc(-3, 4) * mp.mpf(10) ** (dps + 20))  # 3/|y| < 10^-(dps+10)
        want, J, _ = _phi_mp_per_factor(QUAD, z, dps)
        assert J == 0 and abs(phi_mp(QUAD, z, dps) - want) <= mp.mpf(10) ** (2 - dps) * abs(want)
        for t in (0.3, 1.2, 2.0):
            z = (mp.mpf(0), mp.mpf(10) ** 400 * mp.expj(t))
            want = _phi_mp_per_factor(QUAD, z, dps)[0]
            assert abs(phi_mp(QUAD, z, dps) - want) <= mp.mpf(10) ** (2 - dps) * abs(want)


def _psi_per_factor(m, q, z, depth, dps):
    """Reference psi_depth = (d/a)^N x_N y_N - sum_{j<N} (d/a)^{j+1} Q(phi(H^j z))
    on an orbit walked here, with the per-factor phi at each of its points;
    returns (psi_N, |(d/a)^N x_N y_N|)."""
    d, a = m.d, _mp(m.a)
    coeffs, A = [_mp(c) for c in m.coeffs], [_mp(c) for c in q.A]
    orbit = [(_mp(z[0]), _mp(z[1]))]
    for _ in range(depth):
        x, y = orbit[-1]
        orbit.append((y, y ** d + sum(c * y ** i for i, c in enumerate(coeffs)) - a * x))
    total = 0
    for j in range(depth):
        f = _phi_mp_per_factor(m, orbit[j], dps)[0]
        total -= (d / a) ** (j + 1) * (f ** (d + 1) + sum(c * f ** i for i, c in enumerate(A)))
    big = (d / a) ** depth * orbit[depth][0] * orbit[depth][1]
    return big + total, abs(big)


@pytest.mark.parametrize("m,depth", [(LIFT_EXACT_MAPS[2], 5), (LIFT_EXACT_MAPS[1], 6)],
                         ids=["psi(4,5)", "psi(3,6)"])
def test_psi_matches_per_factor_oracle_at_its_precision(m, depth):
    """psi_N at digits_needed (1677-1848 digits here) agrees with a reference
    built from a freshly walked orbit and the per-factor phi at each point,
    within 10^(10-dps) of its largest term, at seeded V_R+ points of radius
    2R to 2.2R; psi_(N-1) at the same digits too."""
    rng = random.Random(f"psi-oracle/{m.d}")
    R = estimate_filtration_radius(m).R
    q = derive_lift_polynomial(m, "formal-series")
    for _ in range(2):
        z = (cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)),
             cmath.rect(2 * R * rng.uniform(1.0, 1.1), rng.uniform(0, 2 * math.pi)))
        dps = digits_needed(m, z, depth)
        with mp.workdps(dps):
            for n in (depth, depth - 1):
                value = _psi_partials(m, z, q, n, dps)[0]
                want, scale = _psi_per_factor(m, q, z, n, dps)
                assert abs(value - want) <= mp.mpf(10) ** (10 - dps) * scale, (z, n)


@pytest.mark.parametrize("prec", [60, 6000])
def test_ipow_matches_the_straight_product(prec):
    """Square-and-multiply agrees with n - 1 multiplications within
    n 2^(1-prec) relative, for an mpf and an mpc."""
    with mp.workprec(prec):
        for w in (mp.sqrt(2) / 3, mp.mpc(mp.sqrt(2), -mp.cbrt(3)) / 2):
            ref = w
            for n in range(1, 34):
                got = _ipow(w, n)
                assert type(got) is type(w)
                assert abs(got - ref) <= n * mp.mpf(2) ** (1 - prec) * abs(ref), n
                ref *= w


def test_ipow_takes_no_exp_log_route(monkeypatch):
    """mpmath's mpc**n, n > 2, is exp(n log w) at 10^5 bits; _ipow squares."""
    import mpmath.libmp.libmpc as libmpc

    def refuse(*args, **kwargs):
        raise AssertionError("exp-log power")

    with mp.workprec(10 ** 5):
        w = mp.mpc(mp.mpf(1) / 3, mp.mpf(-2) / 7)
        ref = w * w * w * w * w
        monkeypatch.setattr(libmpc, "mpc_log", refuse)
        monkeypatch.setattr(libmpc, "mpc_exp", refuse)
        with pytest.raises(AssertionError, match="exp-log"):
            w ** 5
        assert abs(_ipow(w, 5) - ref) <= mp.mpf(2) ** (10 - 10 ** 5) * abs(ref)
        for n in (2, 3, 33):
            _ipow(w, n)


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
    """The exact QC twin's psi_3..psi_6 agree with each other and with 30
    more digits; the float map's A_j errors blow psi up with depth until,
    at depth 6, it leaves the double range and raises."""
    m = HenonMap(3, 5 + 4j, (0.5 - 1j, 1 + 0.25j))
    twin = HenonMap(3, QC(5, 4), (QC(Fraction(1, 2), -1), QC(1, Fraction(1, 4))))
    z = (0.3 + 0.2j, cmath.rect(2.2 * estimate_filtration_radius(m).R, 2.0))
    q = derive_lift_polynomial(twin, "formal-series")
    values = []
    for depth in (3, 4, 5, 6):
        base = psi(twin, z, q, depth)
        values += [base.value, psi(twin, z, q, depth, base.precision_digits + 30).value]
    assert all(abs(v - values[0]) <= 1e-12 * abs(values[0]) for v in values), values
    with pytest.raises(OverflowError):
        psi(m, z, derive_lift_polynomial(m, "formal-series"), 6)


def test_phi_mp_raises_where_the_branch_ratio_reaches_one():
    """|q/y^d| >= 1 raises, both where y^d is a double and where it is not
    (|y|^2 = 10^400 at 400 digits, where the walk does not yet stop)."""
    for y, dps in ((mp.mpf(10), 50), (mp.mpc(3, 4), 50), (mp.mpf("1e200"), 400)):
        with mp.workdps(dps):
            x = -mp.mpf("1.5") * y * y / 3  # QUAD: q = -3x, so u = 1.5
            with pytest.raises(DomainError):
                phi_mp(QUAD, (x, y), dps)


def test_phi_mp_guard_near_one_decides_as_the_big_float_quotient():
    """u = q/y^d is a double quotient away from |u| = 1; within 1e-12 of it
    the big-float quotient decides, so phi_mp raises exactly when
    |complex(q/y^d)| >= 1, as it did when it always divided in big floats.
    |arg u| <= pi/2 keeps |y_1| = |y^2 (1 + u)| >= 100, so only step 0 can raise."""
    rng = random.Random(7)
    gaps = [0, 2 ** -52, 1e-17, 1e-15, 1e-13, 1e-12, 2e-12, 1e-11, 1e-9]
    gaps += [10 ** rng.uniform(-20, -8) for _ in range(40)]
    raised = set()
    for gap in gaps:
        for sign in (1, -1):
            with mp.workdps(50):
                y = mp.mpc(10) * mp.expjpi(mp.mpf(rng.uniform(-1, 1)))
                u = (1 + sign * mp.mpf(gap)) * mp.expjpi(mp.mpf(rng.uniform(-0.5, 0.5)))
                x = -u * y * y / 3
                want = abs(complex(-(3 * x) / (y * y))) >= 1.0
                try:
                    phi_mp(QUAD, (x, y), 50)
                    got = False
                except DomainError:
                    got = True
            assert got == want, (gap, sign)
            raised.add(got)
    assert raised == {True, False}


# psi_N at the depths given and the depth-3 semiconjugacy residual, computed
# with the orbit walked twice and every coefficient as an mpc: (map, z,
# depths, psi values, residual)
FROZEN_PSI = [
    (HenonMap(2, 3, (1,)), (0.4 - 0.3j, -21.779834925209798 + 3.1046401773170786j), (3, 4, 5, 6),
     (-7.128022534926402 + 7.764121606799304j, -7.350243697525459 + 7.764122269633361j,
      -7.498391845672052 + 7.76412226963662j, -7.597157277770818 + 7.76412226963662j),
     0.33333174389988524),
    (HenonMap(2, 3, (1,)), (0.5, -22.0), (3, 4, 5, 6),
     (-10.335395367832454, -10.557616340636129, -10.705764488780664, -10.804529920879428),
     0.33333145920550994),
    (HenonMap(3, 9, (1, 0)), (0.4 - 0.3j, -6.74489274933482 - 7.809380372345209j), (3, 4, 5, 6),
     (-5.030035396871455 - 1.1013332727554859j,) * 4, 3.247666491049826e-14),
    (HenonMap(3, 9, (1, 0)), (0.5, -10.318914671611546), (3, 4, 5, 6),
     (-5.169249162296863,) * 4, 8.565762750993243e-13),
    (HenonMap(4, 16, (0, 0, 1)), (0.4 - 0.3j, 2.0605901792564616 - 6.965856022700811j), (3, 4, 5),
     (-1.2321139901488414 - 3.3874171179828063j,) * 3, 1.4369395729132696e-12),
    (HenonMap(4, 16, (0, 0, 1)), (0.5, -7.2642399475681785), (3, 4, 5),
     (-3.6601449933044834,) * 3, 7.956627307250573e-13),
    (HenonMap(3, QC(5, 4), (QC(Fraction(1, 2), -1), QC(1, Fraction(1, 4)))),
     (0.4 - 0.3j, -6.28527633853461 - 7.277226710203599j), (3, 4, 5, 6),
     (-4.711316480660754 - 0.9870393388138703j,) * 4, 6.113549107828231e-13),
    (HenonMap(3, QC(5, 4), (QC(Fraction(1, 2), -1), QC(1, Fraction(1, 4)))),
     (0.5, -9.615754117251736), (3, 4, 5, 6),
     (-4.846829882952697 - 0.02767742449656562j,) * 4, 5.65385740658649e-13),
]


@pytest.mark.parametrize("m,z,depths,values,residual", FROZEN_PSI,
                         ids=["y2+1", "y2+1-real", "y3+1", "y3+1-real", "y4+y2", "y4+y2-real",
                              "complex-a", "complex-a-real"])
def test_psi_and_semiconjugacy_frozen_values(m, z, depths, values, residual):
    q = derive_lift_polynomial(m, "formal-series")
    filt = estimate_filtration_radius(m)
    for depth, want in zip(depths, values):
        got = psi(m, z, q, depth, filtration=filt).value
        assert abs(got - want) <= 1e-12 * abs(want), depth
    hz = evaluate(m, z)
    dps = max(digits_needed(m, z, 3), digits_needed(m, hz, 3))
    got = semiconjugacy_residual(m, q, [z], 3, dps, filtration=filt)
    assert abs(got - residual) <= 1e-12 * residual


@pytest.mark.parametrize("m", [HenonMap(2, 3, (1,)), HenonMap(4, 16, (0, 0, 1))],
                         ids=["y2+1", "y4+y2"])
def test_real_map_matches_its_complex_twin(m):
    """The same real map with complex coefficients runs mpmath's mpc path
    where the real one multiplies by mpf; phi, psi_N and the fit Q agree to
    within 10 digits of the working precision (psi relative to the
    (d/a)^N x_N y_N it cancels).  Both maps have dyadic A, so the twin's
    double-precision formal Q is the same Q."""
    twin = HenonMap(m.d, complex(m.a), tuple(map(complex, m.coeffs)))
    q, q_twin = derive_lift_polynomial(m), derive_lift_polynomial(twin)
    assert q.A_complex == q_twin.A_complex
    R, depth = estimate_filtration_radius(m).R, 4
    for z in ((0.4 - 0.3j, cmath.rect(2.2 * R, 2.0)), (0.5, -2.2 * R)):
        dps = digits_needed(m, z, depth)
        with mp.workdps(dps):
            tol = mp.mpf(10) ** (10 - dps)
            orbit = []
            want = phi_mp(twin, z, dps, orbit)
            assert abs(phi_mp(m, z, dps) - want) <= tol * abs(want)
            while len(orbit) <= depth:
                x, y = orbit[-1]
                orbit.append((y, twin.p(y) - twin.a * x))
            scale = abs((mp.mpf(m.d) / abs(twin.a)) ** depth * orbit[depth][0] * orbit[depth][1])
            got = _psi_partials(m, z, q, depth, dps)[0]
            assert abs(got - _psi_partials(twin, z, q_twin, depth, dps)[0]) <= tol * scale
    digits = fit_digits_needed(m.d, R)  # the fit's own precision
    fit, fit_twin = (derive_lift_polynomial(w, "bigfloat-fit") for w in (m, twin))
    for c, c_twin in zip(fit.A, fit_twin.A):
        assert abs(c - c_twin) <= max(10.0 ** (10 - digits), 2.0 ** -52) * max(1.0, abs(c_twin))


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
    """gap_{N+1} <= (|d/a| + 0.1) gap_N, gap_N = |psi_N - psi_(N-1)|, for a
    map whose telescoping error approaches a nonzero constant along orbits
    (p = y^2, a = 3)."""
    q = derive_lift_polynomial(QUAD, "formal-series")
    filt = estimate_filtration_radius(QUAD)
    z = (1.0, 20.0)
    values = [psi(QUAD, z, q, depth, filtration=filt).value for depth in range(1, 7)]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
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
    values = [psi(m, z, q, depth).value for depth in (1, 2, 3, 4)]  # in doubles psi_3 = psi_4
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    assert gaps[2] < gaps[1] < gaps[0]
    hz = evaluate(m, z)
    r3, r4 = (semiconjugacy_residual(
        m, q, [z], depth, max(digits_needed(m, z, depth), digits_needed(m, hz, depth)))
        for depth in (3, 4))
    assert r4 <= (m.d / abs(complex(m.a)) + 0.1) * r3
