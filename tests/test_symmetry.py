"""Linear symmetry detection, classification, and the rigidity family."""

import random

import pytest

from henonlab import (DomainError, HenonMap, classify_aut1, derive_lift_polynomial,
                      detect_linear_symmetries, estimate_filtration_radius, green_plus,
                      verify_rigidity_family)
from henonlab.covering import congruence_subgroup
from henonlab.potential import sample_escaping_points
from henonlab.selfcheck import _SYMMETRY_CASES
from henonlab.symmetry import apply_symmetry, symbolic_symmetry_check

QUAD_PLUS1 = HenonMap(2, 3, (1,))        # p = y^2 + 1
CUBIC = HenonMap(3, 9, (0, 0))           # p = y^3
QUARTIC = HenonMap(4, 16, (0, 1, 0))     # p = y^4 + y


def _sparse_map(rng, d, kind):
    """p = y^d plus a sparse tail, so that some groups are larger than {0}."""
    def coeff():
        if rng.random() < 0.6:
            return 0
        if kind == "float":
            return rng.uniform(-2, 2)
        if kind == "complex":
            return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return rng.choice([1, -1, 2])
    a = {"float": 0.3, "complex": 1.5 - 0.5j}.get(kind, 3)
    return HenonMap(d, a, tuple(coeff() for _ in range(d - 1)))


def test_symmetry_orders():
    assert detect_linear_symmetries(QUAD_PLUS1).order == 1
    assert detect_linear_symmetries(CUBIC).order == 8
    assert detect_linear_symmetries(QUARTIC).order == 3


def test_quartic_exponents():
    g = detect_linear_symmetries(QUARTIC)
    assert g.modulus == 15
    assert tuple(g.exponents) == (0, 5, 10)


def test_every_detected_symmetry_passes_symbolic_composition():
    for m in (QUAD_PLUS1, CUBIC, QUARTIC):
        g = detect_linear_symmetries(m)
        for e in g.exponents:
            assert symbolic_symmetry_check(m, e)


def test_symbolic_check_rejects_non_symmetry():
    assert not symbolic_symmetry_check(QUAD_PLUS1, 1)
    assert not symbolic_symmetry_check(QUARTIC, 1)


def test_order_divides_d_squared_minus_one():
    rng = random.Random(51)
    for _ in range(20):
        d = rng.choice([2, 3, 4])
        coeffs = tuple(rng.choice([0, 0, 1, -2]) for _ in range(d - 1))
        m = HenonMap(d, d * d, coeffs)
        g = detect_linear_symmetries(m)
        assert (d * d - 1) % g.order == 0


def test_congruence_matches_symbolic_for_random_patterns():
    """The closed-form group holds exactly the exponents passing exact
    polynomial composition: 48 sparse maps, d = 2..9, with integer, float
    and complex coefficients."""
    rng = random.Random(52)
    for d in range(2, 10):
        for kind in ("int", "float", "complex"):
            for _ in range(2):
                m = _sparse_map(rng, d, kind)
                members = set(detect_linear_symmetries(m).exponents)
                for e in range(d * d - 1):
                    assert (e in members) == symbolic_symmetry_check(m, e), (m, e)


def test_apply_symmetry_is_diagonal_root_action():
    z = (1.0 + 0.5j, -2.0 + 0.25j)
    w = apply_symmetry(3, 4, z)  # eta = exp(2 pi i 4/8) = -1
    assert abs(w[0] + z[0]) < 1e-12  # eta^d x = -x
    assert abs(w[1] + z[1]) < 1e-12  # eta y = -y


def test_green_invariance_small_sample():
    # s = 0 over the whole detected group: |G+(L z) - G+(z)| within both bounds
    assert verify_rigidity_family(CUBIC, 0, samples=50, seed=53) <= 0.0


def test_classification_cases():
    q1 = derive_lift_polynomial(QUAD_PLUS1, "formal-series")
    c1 = classify_aut1(QUAD_PLUS1, q1)
    assert c1.case == "i" and c1.k == 1

    q2 = derive_lift_polynomial(CUBIC, "formal-series")
    c2 = classify_aut1(CUBIC, q2)
    assert c2.case == "ii" and c2.k == 8 and c2.k_prime == 8

    q3 = derive_lift_polynomial(QUARTIC, "formal-series")
    c3 = classify_aut1(QUARTIC, q3)
    assert c3.case == "iii" and c3.k == 3
    assert c3.k_divides_k_prime and c3.k <= c3.k_prime


def test_rigidity_family_invariance():
    g = detect_linear_symmetries(CUBIC)
    e = sorted(g.exponents)[1]
    assert verify_rigidity_family(CUBIC, 1, [e], samples=30, seed=54) <= 0.0
    with pytest.raises(DomainError):  # not a symmetry of y^2 + 1
        verify_rigidity_family(QUAD_PLUS1, 1, [1], samples=3)


@pytest.mark.parametrize("s", [-1, 2, 8])
def test_rigidity_family_steps_either_way_and_skips_overflow(s):
    # at s = 8 every box sample passes the overflow limit: nothing is compared
    e = sorted(detect_linear_symmetries(CUBIC).exponents)[1]
    if s == 8:
        with pytest.raises(DomainError):
            verify_rigidity_family(CUBIC, s, [e], samples=30, seed=54)
    else:
        assert verify_rigidity_family(CUBIC, s, [e], samples=30, seed=54) <= 0.0


@pytest.mark.parametrize("samples", [0, -3])
def test_rigidity_family_refuses_fewer_than_one_sample(samples):
    # not the DomainError of a family whose every sample overflows
    with pytest.raises(ValueError, match="samples must be >= 1"):
        verify_rigidity_family(CUBIC, 0, samples=samples)


def test_congruence_subgroup_matches_brute_force():
    rng = random.Random(61)
    for _ in range(40):
        M = rng.randint(1, 10 ** 4)
        divisors = [c for c in range(1, M + 1) if M % c == 0]
        cs = [rng.choice(divisors) * rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
        want = [e for e in range(M) if all(c * e % M == 0 for c in cs)]
        assert list(congruence_subgroup(M, cs)) == want


def _rigidity_maps():
    rng = random.Random(80)
    return [m for m, _ in _SYMMETRY_CASES] + [
        _sparse_map(rng, d, kind) for d in range(2, 7) for kind in ("int", "float", "complex")]


def _moves_green_plus(m, e, pts, g0, filt):
    """Whether |G+(L_e z) - G+(z)| exceeds the sum of both bounds at some z."""
    for z, g in zip(pts, g0):
        g1 = green_plus(m, apply_symmetry(m.d, e, z), filtration=filt)
        if abs(g1.value - g.value) > g1.error_bound + g.error_bound:
            return True
    return False


def test_every_non_symmetry_moves_green_plus_beyond_both_bounds():
    """Rigidity the other way: for each exponent outside the detected group
    some escaping z has |G+(L_e z) - G+(z)| above the sum of both bounds, so
    L_e preserves neither G+ nor any sub-level set {G+ < c}."""
    non_members = 0
    for m in _rigidity_maps():
        filt = estimate_filtration_radius(m)
        pts = sample_escaping_points(m, 5, seed=81, filtration=filt)
        g0 = [green_plus(m, z, filtration=filt) for z in pts]
        members = set(detect_linear_symmetries(m).exponents)
        for e in set(range(m.d * m.d - 1)) - members:
            non_members += 1
            assert _moves_green_plus(m, e, pts, g0, filt), (m, e)
    assert non_members >= 100
