"""Covering-space algebra: roots of unity, fiber-affine maps, push
formulas, deck transformations, and the lift-compatible exponent set."""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from henonlab._exact import QC, as_exact
from henonlab import (DomainError, HenonMap, compute_L_prime,
                      derive_lift_polynomial, push, push_iterated)
from henonlab.boettcher import LiftPolynomial
from henonlab.covering import (FiberAffineMap, RootOfUnity, c_alpha,
                               deck_compose, deck_eval, deck_rational,
                               fiber_compose, fiber_invert, henon_lift,
                               root_value)

QUAD = HenonMap(2, 3, (0,))
CUBIC = HenonMap(3, 9, (0, 0))


def test_root_value_exact_quarter_angles():
    assert root_value(0, 8) == 1
    assert root_value(4, 8) == -1
    assert complex(root_value(2, 8)) == 1j
    assert complex(root_value(6, 8)) == -1j


def test_root_of_unity_group_laws():
    a = RootOfUnity(3, 8)
    b = RootOfUnity(7, 8)
    assert (a * b).e == 2
    assert (a ** 8).e == 0
    assert (a * a.inverse()).e == 0


def test_fiber_map_beta_is_alpha_to_d_plus_1():
    f = FiberAffineMap(3, RootOfUnity(1, 8), 0)
    assert f.beta_exponent == 4
    assert f.beta == -1


def test_fiber_compose_and_invert():
    f = FiberAffineMap(2, RootOfUnity(1, 3), Fraction(1, 2))
    g = FiberAffineMap(2, RootOfUnity(2, 3), Fraction(-3, 4))
    h = fiber_compose(f, g)
    z = (complex(0.3, -0.1), complex(1.5, 0.2))
    lhs = f.apply(g.apply(z))
    rhs = h.apply(z)
    assert abs(lhs[0] - rhs[0]) < 1e-12 and abs(lhs[1] - rhs[1]) < 1e-12
    assert fiber_compose(f, fiber_invert(f)).alpha.e == 0


def test_c_alpha_frozen_example():
    # d=3, e=1, A_0=2: alpha^4 = -1 so c = (-1-1)*2 = -4, exact
    q = LiftPolynomial(3, (2, 0, 0))
    assert c_alpha(RootOfUnity(1, 8), q) == -4


def test_c_alpha_zero_iff_beta_trivial():
    q = LiftPolynomial(3, (Fraction(5, 7), 0, 0))
    for e in range(8):
        c = c_alpha(RootOfUnity(e, 8), q)
        if (4 * e) % 8 == 0:
            assert c == 0
        else:
            assert abs(complex(c)) > 0


def test_push_round_trip_shift():
    q = LiftPolynomial(3, (Fraction(2), 0, 0))
    f = FiberAffineMap(3, RootOfUnity(1, 8), Fraction(7, 3))
    g = push(push(f, "plus", q, 9), "minus", q, 9)
    assert g.gamma - f.gamma == (1 - Fraction(3, 9)) * c_alpha(f.alpha, q)


def test_push_iterated_matches_repeated_pushes():
    q = LiftPolynomial(3, (Fraction(2), 0, 0))
    f = FiberAffineMap(3, RootOfUnity(1, 8), Fraction(7, 3))   # c_alpha = -4, exact
    for a in (9, 3, 2):   # r = d/a = 1/3, 1 and 3/2
        for n in (0, 1, 2, 10, 37):
            h = f
            for _ in range(n):
                h = push(h, "minus", q, a)
            hc = push_iterated(f, "minus", n, q, a)
            assert h.alpha == hc.alpha and h.gamma == hc.gamma, (a, n)


def test_push_iterated_plus_matches_repeated_pushes():
    maps = [(LiftPolynomial(2, (Fraction(2), 0)), 2),   # c_alpha = 0 for every alpha
            (LiftPolynomial(3, (Fraction(2), 0, 0)), 3)]  # c_alpha in {0, -4}, exact
    for q, d in maps:
        for e in range(d * d - 1):
            f = FiberAffineMap(d, RootOfUnity.for_degree(d, e), Fraction(7, 3))
            for a in (9, 3, 2):
                for n in (0, 1, 2, 10):
                    h = f
                    for _ in range(n):
                        h = push(h, "plus", q, a)
                    hc = push_iterated(f, "plus", n, q, a)
                    assert h.alpha == hc.alpha and h.gamma == hc.gamma, (d, e, a, n)
                    assert type(h.gamma) is type(hc.gamma), (d, e, a, n)


def test_push_iterated_plus_float_roots():
    q = LiftPolynomial(4, (Fraction(2), 0, 0, 0))
    for e in range(15):   # c_alpha is a float complex unless 3 divides e
        f = FiberAffineMap(4, RootOfUnity.for_degree(4, e), Fraction(7, 3))
        for a in (16, 4, 2):   # r = a/d = 4, 1 and 1/2
            for n in (0, 1, 2, 10):
                h = f
                for _ in range(n):
                    h = push(h, "plus", q, a)
                hc = push_iterated(f, "plus", n, q, a)
                assert h.alpha == hc.alpha
                err = abs(complex(h.gamma) - complex(hc.gamma))
                assert err <= 1e-12 * max(1.0, abs(complex(h.gamma))), (e, a, n)


def test_push_iterated_once_is_push_to_the_bit():
    # a = -1: (a/d) * 1.5j has real part -0.0, and c_alpha is an exact 0 that
    # push subtracts; adding it would turn -0.0 into 0.0.  With a complex a,
    # (r - 1)/(r - 1) can be 1 + 2e-17j, so n = 1 must not divide.
    rng = random.Random(2)
    cases = [(derive_lift_polynomial(HenonMap(2, -1, (0,)), "formal-series"), -1, gamma)
             for gamma in (1.5j, complex(-0.0, 1.5), -1.5j, complex(-0.0, -0.0))]
    # d = 3, where c_alpha = (alpha^4 - 1) A_0 is nonzero for odd e
    cases += [(LiftPolynomial(3, (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 0, 0)),
               complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
               complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(40)]
    signed_zeros = 0
    for q, a, gamma in cases:
        for e in range(q.d * q.d - 1):
            f = FiberAffineMap(q.d, RootOfUnity.for_degree(q.d, e), gamma)
            for direction in ("plus", "minus"):
                one = push(f, direction, q, a).gamma
                closed = push_iterated(f, direction, 1, q, a).gamma
                assert one == closed, (q, a, gamma, e, direction)
                for part in ("real", "imag"):
                    assert math.copysign(1.0, getattr(one, part)) == \
                        math.copysign(1.0, getattr(closed, part)), (a, gamma, e, direction)
                signed_zeros += one.real == 0 and math.copysign(1.0, one.real) < 0
    assert signed_zeros > 0


def test_push_iterated_large_n_returns():
    q = LiftPolynomial(3, (Fraction(2), 0, 0))
    f = FiberAffineMap(3, RootOfUnity(1, 8), Fraction(7, 3))
    g = push_iterated(f, "minus", 100000, q, 9)
    assert g.alpha == RootOfUnity(3 ** 100000, 8)
    assert g.gamma == Fraction(1, 3 ** 100000) * Fraction(7, 3) + \
        -4 * (1 - Fraction(1, 3 ** 100000)) * Fraction(3, 2)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("direction", ["minus", "plus"])
def test_push_iterated_past_the_exact_switch_matches_60_digits(direction, e):
    """|r| = 1 and r = 3/5 + 4/5i (or its inverse) not a unit of Z[i]:
    r^(10^8) taken in doubles was 4.3e-9 off; c_alpha = 0 only for e = 2."""
    import mpmath as mp
    a, n = QC(Fraction(9, 5), Fraction(-12, 5)), 10 ** 8
    q = LiftPolynomial(3, (QC(Fraction(1, 3), 2), 0, 0))
    f = FiberAffineMap(3, RootOfUnity(e, 8), QC(Fraction(7, 3), 1))
    t0 = time.perf_counter()
    got = push_iterated(f, direction, n, q, a).gamma
    assert time.perf_counter() - t0 < 2
    with mp.workdps(60):
        def mpc(z):
            z = as_exact(z)
            return mp.mpc(mp.mpf(z.re.numerator) / z.re.denominator,
                          mp.mpf(z.im.numerator) / z.im.denominator)
        r = 3 / mpc(a) if direction == "minus" else mpc(a) / 3
        c = mpc(c_alpha(f.alpha, q)) * (1 if direction == "minus" else -1)
        rn = r ** n
        want = rn * mpc(f.gamma) + c * (rn - 1) / (r - 1)
        assert abs(got - want) <= 1e-15 * abs(want)


def test_push_invalid_direction():
    q = LiftPolynomial(2, (0, 0))
    f = FiberAffineMap(2, RootOfUnity(0, 3), 0)
    with pytest.raises(ValueError):
        push(f, "sideways", q, 3)


def test_deck_rational_normalizes():
    r = deck_rational(6, 2, 2)  # 6/4 == 3/2 -> 1/2 mod 1, held as m/d^k = 1/2
    assert (r.m, r.k) == (1, 1)
    assert deck_rational(0, 3, 2).k == 0
    assert deck_rational(-1, 2, 2) == deck_rational(3, 2, 2)


def test_deck_frozen_example_half_turn():
    # gamma_{1/2} for p=y^2, a=3 (Q = zeta^3): z + (2/3)(Q(zeta)-Q(-zeta))
    q = derive_lift_polynomial(QUAD, "formal-series")
    w = deck_eval(deck_rational(1, 1, 2), (0.0, 2.0), q, 3.0)
    assert w[0] == pytest.approx(32 / 3, abs=1e-12)
    assert w[1] == pytest.approx(-2.0, abs=1e-12)


def test_deck_requires_zeta_outside_unit_disk():
    q = derive_lift_polynomial(QUAD, "formal-series")
    with pytest.raises(DomainError):
        deck_eval(deck_rational(1, 1, 2), (0.0, 0.5), q, 3.0)


def test_deck_compose_matches_fraction_sum_mod_1():
    for d in (2, 3, 6):
        classes = [(k, n) for n in range(4) for k in range(d ** n)]
        for k1, n1 in classes:
            r1 = deck_rational(k1, n1, d)
            for k2, n2 in classes:
                r = deck_compose(r1, deck_rational(k2, n2, d))
                assert r.value == (Fraction(k1, d ** n1) + Fraction(k2, d ** n2)) % 1
                assert 0 <= r.m < d ** r.k or (r.m, r.k) == (0, 0)
                assert r.k <= max(n1, n2)


def test_deck_commutation_both_maps():
    for m in (QUAD, CUBIC):
        d, a = m.d, complex(m.a)
        q = derive_lift_polynomial(m, "formal-series")
        rng = random.Random(70 + d)
        for _ in range(25):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            zeta = cmath.rect(rng.uniform(1.1, 1.25), rng.uniform(0, 6.28))
            n = rng.randint(1, 3)
            k = rng.randrange(1, d ** n)
            lhs = henon_lift(deck_eval(deck_rational(k, n, d), (z, zeta), q, a), q, a)
            rhs = deck_eval(deck_rational(k * d, n, d),
                            henon_lift((z, zeta), q, a), q, a)
            assert abs(lhs[0] - rhs[0]) < 1e-10
            assert abs(lhs[1] - rhs[1]) < 1e-10


def test_deck_exhaustive_uniqueness_d2_denominator_4():
    """Distinct k/4 classes act differently on a generic point (d=2)."""
    q = derive_lift_polynomial(QUAD, "formal-series")
    pt = (0.37 + 0.21j, 1.31 + 0.44j)
    images = [deck_eval(deck_rational(k, 2, 2), pt, q, 3.0) for k in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(images[i][1] - images[j][1]) > 1e-6


def test_compute_l_prime_full_group_for_trivial_q():
    q = derive_lift_polynomial(CUBIC, "formal-series")
    assert len(compute_L_prime(q)) == 8


def test_compute_l_prime_restricted():
    # d=3 with A_2 != 0: need (d+1-2)e = 2e == 0 mod 8 -> e in {0,4}
    q = LiftPolynomial(3, (0, 0, Fraction(1, 3)))
    assert sorted(r.e for r in compute_L_prime(q)) == [0, 4]
