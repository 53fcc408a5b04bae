"""Z[1/d] arithmetic, the unit criterion, and unit decompositions.

Property-based where the statement is universal; the brute-force inverse
search is the independent oracle for the unit criterion.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from henonlab import RingElem, UnitDecomposition, subgroup_membership, unit_decompose
from henonlab.dyadic import brute_force_inverse, factorize, ring_from_fraction

DS = st.sampled_from([2, 3, 6, 10, 12])
MS = st.integers(min_value=-300, max_value=300).filter(lambda m: m != 0)
KS = st.integers(min_value=0, max_value=5)


def test_factorize_basics():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(1) == ()


def test_normalization_removes_common_powers():
    x = RingElem(6, 36, 3)  # 36/216 = 1/6
    assert (x.m, x.k) == (1, 1)
    assert RingElem(2, -8, 1).m == -4 and RingElem(2, -8, 1).k == 0


@given(DS, MS, KS)
def test_value_matches_fraction(d, m, k):
    assert RingElem(d, m, k).value == Fraction(m, d ** k)


@given(DS, MS, KS, MS, KS)
def test_ring_arith_matches_fraction_arithmetic(d, m1, k1, m2, k2):
    x, y = RingElem(d, m1, k1), RingElem(d, m2, k2)
    assert (x + y).value == x.value + y.value
    assert (x * y).value == x.value * y.value
    assert (-x).value == -x.value
    assert (x - y).value == x.value - y.value


@given(DS, MS, KS)
def test_round_trip_through_fraction(d, m, k):
    x = RingElem(d, m, k)
    back = ring_from_fraction(d, x.value)
    assert back is not None and back == x


def test_ring_from_fraction_rejects_foreign_denominator():
    assert ring_from_fraction(2, Fraction(1, 3)) is None
    assert ring_from_fraction(6, Fraction(1, 5)) is None


def test_ring_from_fraction_accepts_every_denominator_over_the_primes_of_d():
    assert ring_from_fraction(2, Fraction(1, 2 ** 100)) == RingElem(2, 1, 100)
    assert ring_from_fraction(6, Fraction(1, 4)) == RingElem(6, 9, 2)


@settings(max_examples=60)
@given(DS, MS, KS)
@example(10, 256, 0)  # the only inverse is 390625/10^8
def test_unit_criterion_agrees_with_brute_force(d, m, k):
    x = RingElem(d, m, k)
    # |m| <= 300 < 2^9, so an inverse m'/d^k' has k' <= 9 and |m'| <= d^(k+9)
    assert (unit_decompose(x) is not None) == \
        (brute_force_inverse(x, d ** (x.k + 9), 9) is not None)


@given(DS, MS, KS)
def test_decomposition_reconstructs_element(d, m, k):
    x = RingElem(d, m, k)
    u = unit_decompose(x)
    if u is not None:
        assert u.value() == x
        assert u.d == d


def test_reference_examples_d6():
    u = unit_decompose(RingElem(6, 4, 1))  # 4/6 = 2^2/(2*3) = 2/3
    assert u is not None and u.sign == 1 and u.exponents == (1, -1)
    assert unit_decompose(RingElem(6, 5, 1)) is None
    inv = brute_force_inverse(RingElem(6, 4, 1), 1000, 6)
    assert inv is not None and (inv.value * Fraction(4, 6)) == 1


def test_decompositions_multiply_additively():
    a = unit_decompose(RingElem(6, 4, 1))
    b = unit_decompose(RingElem(6, -9, 1))  # -3/2 -> sign -1, (-1, 1)
    prod = unit_decompose(a.value() * b.value())
    combined = a * b
    assert prod.sign == combined.sign and prod.exponents == combined.exponents


def test_subgroup_membership_lattice():
    assert subgroup_membership(unit_decompose(RingElem(6, 1, 0))) == 0
    assert subgroup_membership(unit_decompose(RingElem(6, 6, 0))) == 1
    assert subgroup_membership(unit_decompose(RingElem(6, 36, 0))) == 2
    assert subgroup_membership(unit_decompose(RingElem(6, 1, 1))) == -1
    # 2/3 is a unit of Z[1/6] but off the diagonal lattice
    assert subgroup_membership(unit_decompose(RingElem(6, 4, 1))) is None
    # negative elements are never on the lattice
    assert subgroup_membership(unit_decompose(RingElem(6, -6, 0))) is None


def test_prime_power_degree_lattice():
    # d = 4 = 2^2: 16 = d^2 sits on the lattice with t = 2, 8 = 2^3 does not
    assert subgroup_membership(unit_decompose(RingElem(4, 16, 0))) == 2
    assert subgroup_membership(unit_decompose(RingElem(4, 8, 0))) is None


def test_zero_is_not_a_unit():
    assert unit_decompose(RingElem(6, 0, 2)) is None
