"""Map construction, normalization, inverses, and the escape filtration."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from henonlab import (DomainError, HenonMap, InvalidMapError, evaluate,
                      estimate_filtration_radius, iterate_orbit, normalize,
                      poly_map_of, compose_poly_maps)
from henonlab._exact import QC
from henonlab.maps import PolyMap2, horner, in_v_plus, in_v_minus, overflow_limit
from henonlab.series import LaurentSeries2


QUAD = HenonMap(2, 3, (0,))          # p = y^2
CUBIC = HenonMap(3, 9, (0, 0))       # p = y^3
QUARTIC = HenonMap(4, 16, (0, 1, 0)) # p = y^4 + y


def test_invalid_degree_rejected():
    with pytest.raises(InvalidMapError):
        HenonMap(1, 3, ())


def test_invalid_a_zero_rejected():
    with pytest.raises(InvalidMapError):
        HenonMap(2, 0, (0,))


def test_coeff_length_must_match_degree():
    with pytest.raises(InvalidMapError):
        HenonMap(3, 9, (0,))


def test_forward_then_inverse_is_identity_1000_points():
    rng = random.Random(5)
    for m in (QUAD, CUBIC, QUARTIC):
        for _ in range(1000 // 3 + 1):
            z = (complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                 complex(rng.uniform(-5, 5), rng.uniform(-5, 5)))
            w = evaluate(m, evaluate(m, z), inverse=True)
            assert abs(w[0] - z[0]) < 1e-9 * max(1.0, abs(z[0]))
            assert abs(w[1] - z[1]) < 1e-9 * max(1.0, abs(z[1]))


def test_inverse_then_forward_is_identity_exact_rationals():
    z = (Fraction(3, 7), Fraction(-2, 5))
    w = evaluate(QUAD, evaluate(QUAD, z, inverse=True))
    assert w == z


def test_normalize_full_quadratic_example():
    # 2y^2 + 4y + 1 with a = 3 centers to y^2 + 6 via lambda = 1/2, mu = -1
    m, conj = normalize([1, 4, 2], 3)
    assert m.d == 2 and m.coeffs == (6,)
    assert conj.scale == Fraction(1, 2) and conj.shift == -1


def test_normalize_round_trip_conjugation():
    raw = [1, 4, 2]
    m, conj = normalize(raw, 3)
    rng = random.Random(9)
    for _ in range(100):
        z = (complex(rng.uniform(-3, 3)), complex(rng.uniform(-3, 3)))
        # A o H_centered o A^{-1} == H_raw pointwise
        w = conj.apply(evaluate(m, conj.inverse().apply(z)))
        x, y = z
        raw_im = (y, (2 * y * y + 4 * y + 1) - 3 * x)
        assert abs(w[0] - raw_im[0]) < 1e-9
        assert abs(w[1] - raw_im[1]) < 1e-9


def test_normalize_idempotent_on_centered_map():
    m, conj = normalize([5, 0, 0, 1], 9)  # y^3 + 5 is already centered monic
    assert m.coeffs == (5, 0)
    assert conj.scale == 1 and conj.shift == 0


def test_poly_map_composition_matches_two_steps():
    h = poly_map_of(CUBIC)
    h2 = compose_poly_maps(h, h)
    rng = random.Random(11)
    for _ in range(20):
        z = (complex(rng.uniform(-1, 1)), complex(rng.uniform(-1, 1)))
        direct = evaluate(CUBIC, evaluate(CUBIC, z))
        viapoly = h2.eval(z)
        assert abs(direct[0] - viapoly[0]) < 1e-9
        assert abs(direct[1] - viapoly[1]) < 1e-9


@pytest.mark.parametrize("m", [
    HenonMap(3, Fraction(7, 3), (Fraction(1, 2), Fraction(-2, 5))),
    HenonMap(2, QC(Fraction(3, 2), Fraction(1, 3)), (QC(1, -2),)),
], ids=["fraction", "qc"])
def test_poly_map_composition_with_inverse_is_exactly_identity(m):
    h, h_inv = poly_map_of(m), poly_map_of(m, inverse=True)
    ident = PolyMap2(LaurentSeries2.mono(1, 1, 0, None), LaurentSeries2.mono(1, 0, 1, None))
    for comp in (compose_poly_maps(h, h_inv), compose_poly_maps(h_inv, h)):
        assert comp == ident
        assert not any(isinstance(v, (float, complex))
                       for v in (*comp.first.terms.values(), *comp.second.terms.values()))


def test_filtration_radius_values():
    assert estimate_filtration_radius(QUAD).R == pytest.approx(8.0)
    assert estimate_filtration_radius(CUBIC).R == pytest.approx(math.sqrt(20.0))
    assert estimate_filtration_radius(QUARTIC).R == pytest.approx(
        (2 * (1 + 16 + 1)) ** (1 / 3))


def test_filtration_doubling_certificate_10000_points():
    """|y'| >= 2|y| on the boundary of V_R+ (the defining inequality)."""
    rng = random.Random(13)
    for m in (QUAD, CUBIC, QUARTIC):
        R = estimate_filtration_radius(m).R
        for _ in range(10_000 // 3 + 1):
            r = R + rng.uniform(0, 4 * R)
            y = cmath.rect(r, rng.uniform(0, 2 * math.pi))
            x = cmath.rect(r * rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
            assert in_v_plus((x, y), R)
            _, y1 = evaluate(m, (x, y))
            assert abs(y1) >= 2 * abs(y)


def test_iterate_orbit_truncates_on_overflow():
    orb = iterate_orbit(QUAD, (0, 1e9), 50)
    assert orb.overflow
    assert len(orb.points) <= 51
    assert all(abs(p[1]) <= overflow_limit(2) * 1e9 for p in orb.points[:-1])


def test_iterate_orbit_backward():
    orb = iterate_orbit(QUAD, (1e6, 0), -1)
    x1, y1 = orb.points[-1]
    assert y1 == pytest.approx(1e6)
    assert x1 == pytest.approx(1e12 / 3, rel=1e-12)


def test_filtration_regions_partition():
    R = 8.0
    assert in_v_plus((1, 10), R) and not in_v_minus((1, 10), R)
    assert in_v_minus((10, 1), R) and not in_v_plus((10, 1), R)
    assert not in_v_plus((1, 1), R) and not in_v_minus((1, 1), R)


def _monic_loop(coeffs, t, one=1, zero=0):
    """The hand-written loop horner replaced (p, Q): t^(k+2) + 0 t^(k+1) + ..."""
    acc = one
    for c in (zero, *reversed(coeffs)):
        acc = acc * t + c
    return acc


def _tail_loop(coeffs, t, zero=0):
    """The hand-written loop horner replaced (q = p - y^d - ax)."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def test_horner_matches_the_loops_it_replaced():
    exact = [(QC(3, -1), QC(0), QC(Fraction(1, 3), 2)), (Fraction(5, 7), 0, Fraction(-2, 9))]
    for coeffs, t in zip(exact, (QC(Fraction(2, 3), -5), Fraction(-7, 4))):
        got = horner((*coeffs, 0, 1), t)
        assert type(got) is type(t) and got == _monic_loop(coeffs, t)
        tail = horner(coeffs, t)
        assert type(tail) is type(t) and tail == _tail_loop(coeffs, t)

    def bits(z):
        return (z.real.hex(), z.imag.hex())

    coeffs = (0.3 + 0j, 0j, 1 + 0j, -1j)
    rng = random.Random(17)
    for _ in range(200):
        t = complex(rng.uniform(-9, 9), rng.uniform(-9, 9))
        assert bits(horner((*coeffs, 0, 1), t)) == bits(_monic_loop(coeffs, t))
        assert bits(horner(coeffs, t)) == bits(_tail_loop(coeffs, t))

    with mp.workdps(60):
        mc = [mp.mpmathify(c) for c in coeffs]
        t = mp.mpc("2.8787828968791693", "-0.41252814746273536") / 3
        assert horner((*mc, 0, 1), t) == _monic_loop(mc, t, mp.mpf(1), mp.mpf(0))
        assert horner(mc, t) == _tail_loop(mc, t, mp.mpf(0))

    v = np.array([complex(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(64)]
                 + [1e200 + 1e200j, complex(0.0, -0.0)])
    with np.errstate(all="ignore"):
        got = horner((*coeffs, 0, 1), v)
        want = _monic_loop(coeffs, v, np.ones_like(v), 0.0)
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
