"""Linear symmetry detection, classification, and the rigidity family."""

import random

import pytest

from henonlab import (DomainError, HenonMap, classify_aut1, derive_lift_polynomial,
                      detect_linear_symmetries, verify_rigidity_family)
from henonlab.symmetry import apply_symmetry, symbolic_symmetry_check

QUAD_PLUS1 = HenonMap(2, 3, (1,))        # p = y^2 + 1
CUBIC = HenonMap(3, 9, (0, 0))           # p = y^3
QUARTIC = HenonMap(4, 16, (0, 1, 0))     # p = y^4 + y


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
    """Exponents passing the divisibility congruence are exactly those
    passing exact polynomial composition (50 random coefficient patterns)."""
    rng = random.Random(52)
    for _ in range(50):
        d = rng.choice([2, 3, 4])
        coeffs = tuple(rng.choice([0, 1, -1, 2]) for _ in range(d - 1))
        m = HenonMap(d, 5, coeffs)
        M = d * d - 1
        idx = [j for j, c in enumerate(coeffs) if c != 0]
        for e in range(M):
            congruent = all((d * (d - j) * e) % M == 0 for j in idx)
            assert congruent == symbolic_symmetry_check(m, e)


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
