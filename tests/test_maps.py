"""Map construction, normalization, inverses, and the escape filtration."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from henonlab import (DomainError, HenonMap, InvalidMapError, evaluate,
                      estimate_filtration_radius, normalize,
                      poly_map_of, compose_poly_maps)
from henonlab._exact import QC
from henonlab.maps import XY, Poly2, PolyMap2, doubling_radius, horner, in_v_plus


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


def test_normalize_rejects_results_past_the_float_range():
    # lead 1e-300(1+i): lambda ~ 1e100 sends the centered coefficients to nan
    with pytest.raises(InvalidMapError):
        normalize([0.25 + 1e-300j, 0.2789 - 8.3j, 1e-300 + 0.52j, -6.988 + 1e-300j,
                   1e-300 + 1e-300j], -6.988)


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
    ident = PolyMap2(Poly2({(1, 0): 1}), Poly2({(0, 1): 1}))
    for comp in (compose_poly_maps(h, h_inv), compose_poly_maps(h_inv, h)):
        assert comp == ident
        assert not any(isinstance(v, (float, complex))
                       for v in (*comp.first.terms.values(), *comp.second.terms.values()))


def test_float_poly_map_composition_with_inverse_is_near_identity():
    m = HenonMap(3, 0.3 - 1.1j, (0.7, -0.4 + 2.1j))
    h, h_inv = poly_map_of(m), poly_map_of(m, inverse=True)
    for comp in (compose_poly_maps(h, h_inv), compose_poly_maps(h_inv, h)):
        assert comp.approx_eq(PolyMap2(*XY), 1e-15)
        assert not comp.approx_eq(PolyMap2(*XY[::-1]))


def _qc(re, im=0):
    return QC(Fraction(re), Fraction(im))


# poly_map_of(m) and poly_map_of(m, inverse=True), frozen term by term
# (key, value and type of each coefficient) from the construction that
# substituted into a dedicated series type
POLY_MAP_TERMS = [
    (HenonMap(3, 9, (2, -1)),
     ({(0, 1): 1}, {(0, 0): 2, (0, 1): -1, (0, 3): 1, (1, 0): -9}),
     ({(0, 0): _qc(Fraction(2, 9)), (0, 1): _qc(Fraction(-1, 9)), (1, 0): _qc(Fraction(-1, 9)),
       (3, 0): _qc(Fraction(1, 9))}, {(1, 0): 1})),
    (HenonMap(3, Fraction(7, 3), (Fraction(1, 2), Fraction(-2, 5))),
     ({(0, 1): 1},
      {(0, 0): Fraction(1, 2), (0, 1): Fraction(-2, 5), (0, 3): 1, (1, 0): Fraction(-7, 3)}),
     ({(0, 0): _qc(Fraction(3, 14)), (0, 1): _qc(Fraction(-3, 7)),
       (1, 0): _qc(Fraction(-6, 35)), (3, 0): _qc(Fraction(3, 7))}, {(1, 0): 1})),
    (HenonMap(2, QC(Fraction(3, 2), Fraction(1, 3)), (QC(1, -2),)),
     ({(0, 1): 1}, {(0, 0): _qc(1, -2), (0, 2): 1, (1, 0): _qc(Fraction(-3, 2), Fraction(-1, 3))}),
     ({(0, 0): _qc(Fraction(6, 17), Fraction(-24, 17)),
       (0, 1): _qc(Fraction(-54, 85), Fraction(12, 85)),
       (2, 0): _qc(Fraction(54, 85), Fraction(-12, 85))}, {(1, 0): 1})),
    (HenonMap(3, 0.3 - 1.1j, (0.7, -0.4 + 2.1j)),
     ({(0, 1): 1}, {(0, 0): 0.7, (0, 1): -0.4 + 2.1j, (0, 3): 1, (1, 0): -0.3 + 1.1j}),
     ({(0, 0): 0.1615384615384615 + 0.5923076923076923j,
       (0, 1): -0.23076923076923073 - 0.8461538461538461j,
       (1, 0): -1.8692307692307693 + 0.14615384615384608j,
       (3, 0): 0.23076923076923073 + 0.8461538461538461j}, {(1, 0): 1})),
]


@pytest.mark.parametrize("m,forward,backward", POLY_MAP_TERMS,
                         ids=["int", "fraction", "qc", "float"])
def test_poly_map_terms_are_frozen(m, forward, backward):
    for h, want in ((poly_map_of(m), forward), (poly_map_of(m, inverse=True), backward)):
        for got, terms in zip((h.first, h.second), want):
            assert got.terms == terms
            assert {k: type(v) for k, v in got.terms.items()} == \
                {k: type(v) for k, v in terms.items()}


def test_filtration_radius_values():
    assert estimate_filtration_radius(QUAD).R == pytest.approx(8.0)
    assert estimate_filtration_radius(CUBIC).R == pytest.approx(math.sqrt(20.0))
    assert estimate_filtration_radius(QUARTIC).R == pytest.approx(
        (2 * (1 + 16 + 1)) ** (1 / 3))


# Two d = 8 maps whose sampled radius was no doubling radius: an orbit of the
# first reached y = 0 inside V_R+, one of the second left V_R- backwards.
D8_FORWARD = HenonMap(8, complex(-0.05215380121212693, -0.005786613051275247), (
    0, 0, complex(-0.7698788777547483, -1.9123799035882378),
    complex(-2.0239828778404876, -1.7508550792741673), 0,
    complex(-2.7354764940546, 1.6200064163264472), 0))
D8_BACKWARD = HenonMap(8, complex(-22.89118005812839, -0.3125845303110205), (
    complex(-0.47406930307270434, -2.3085276611192738), 0,
    complex(-1.3779297636279397, 2.863617057148816), 0, 0,
    complex(1.6499715482236068, 0.28208535527097567),
    complex(1.7747752332969426, 0.6957433724376703)))


def _doubling_maps():
    """The three fixed maps, the two d = 8 maps above and 60 seeded maps,
    d = 2..8, |a| in [0.01, 100], coefficients up to 3+3i."""
    rng = random.Random(13)
    out = [QUAD, CUBIC, QUARTIC, D8_FORWARD, D8_BACKWARD]
    for i in range(60):
        d = 2 + i % 7
        a = cmath.rect(10 ** rng.uniform(-2, 2), rng.uniform(0, 2 * math.pi))
        coeffs = tuple(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) if rng.random() < 0.7
                       else 0 for _ in range(d - 1))
        out.append(HenonMap(d, a, coeffs))
    return out


def test_filtration_doubling_certificate_10000_points():
    """|y'| >= 2|y| on V_R+ and |x'| >= 2|x| on V_r- (r the backward radius),
    each at 170 points per map near the boundary, on the diagonal |x| = |y|
    with the worst phase of the partner: -ax against p(y) forwards, -y
    against p(x) backwards."""
    rng = random.Random(17)
    rel = 1e-9  # float rounding of one step, far below any sampled failure
    for m in _doubling_maps():
        a = abs(m.a_complex)
        R = estimate_filtration_radius(m).R
        r_minus = doubling_radius(m, 1 + 2 * a)
        for _ in range(170):
            t = rng.choice([0.0, 4 * rng.random() ** 3])
            y = cmath.rect(R * (1 + t), rng.uniform(0, 2 * math.pi))
            py = m.p(y)
            x = abs(y) * py / abs(py) * a / m.a_complex if py else y
            _, y1 = evaluate(m, (x, y))
            assert abs(y1) >= 2 * abs(y) * (1 - rel), (m, x, y)

            x = cmath.rect(r_minus * (1 + t), rng.uniform(0, 2 * math.pi))
            px = m.p(x)
            y = abs(x) * px / abs(px) if px else x
            x1, _ = evaluate(m, (x, y), inverse=True)
            assert abs(x1) >= 2 * abs(x) * (1 - rel), (m, x, y)


def test_filtration_radius_for_coefficients_up_to_1e300():
    for d in range(2, 9):
        m = HenonMap(d, 1e300, (1e300,) * (d - 1))
        formula = (2 * (1 + d * 1e300)) ** (1 / (d - 1))
        for r in (estimate_filtration_radius(m).R, doubling_radius(m, 1 + 2e300)):
            assert math.isfinite(r) and r >= formula * (1 - 1e-15)


def test_filtration_regions_partition():
    R = 8.0
    assert in_v_plus((1, 10), R)
    assert not in_v_plus((10, 1), R)
    assert not in_v_plus((1, 1), R)


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


@pytest.mark.parametrize("m", [
    HenonMap(3, 9, (1, -2)),
    HenonMap(3, Fraction(1, 3), (Fraction(-2, 7), Fraction(5, 3))),
    HenonMap(2, QC(Fraction(3, 2), Fraction(1, 3)), (QC(1, -2),)),
    HenonMap(5, 0.5 + 0.2j, (0.3, 0, 1, -1j)),
], ids=["int", "fraction", "qc", "complex"])
def test_q_constants_are_cached_bit_for_bit_without_changing_identity(m):
    twin = HenonMap(m.d, m.a, m.coeffs)
    h = hash(m)
    A, B = m.q_constants
    assert A.hex() == sum(abs(c) for c in m.coeffs_complex).hex()
    assert B.hex() == abs(complex(m.a)).hex()
    assert m.coeff_bound.hex() == (abs(m.a_complex) + sum(abs(c) for c in m.coeffs_complex)).hex()
    assert m.q_constants is m.q_constants
    assert m == twin and hash(m) == h == hash(twin) and {m: 1}[twin] == 1
    assert m != HenonMap(m.d, m.a, (*m.coeffs[:-1], 7))
