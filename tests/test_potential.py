"""Escape-rate potentials: frozen reference values, functorial law,
method agreement, and budget/filtration independence."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from henonlab import (DomainError, HenonMap, classify_point, evaluate, green_minus,
                      green_plus, potential)
from henonlab.maps import (FiltrationRadius, _u_bound, doubling_radius, estimate_filtration_radius,
                           horner)
from henonlab.potential import (_DEEP, _FLOAT_NOISE, _crude_bound, crude_green_plus,
                                green_plus_grid, sample_escaping_points)

QUAD = HenonMap(2, 3, (0,))
CUBIC = HenonMap(3, 9, (0, 0))


def test_green_plus_reference_value():
    # G+(0, 1e6) for p=y^2, a=3: log(1e6) to within the refined tail
    g = green_plus(QUAD, (0, 1e6))
    assert g.value == pytest.approx(13.815510557964274, abs=1e-9)
    assert g.error_bound < 1e-8
    assert g.method == "boettcher-refined"


def test_green_minus_reference_value():
    # G-(1e6, 0): log(1e6) - log(3) (the inverse divides by a each step)
    g = green_minus(QUAD, (1e6, 0))
    assert g.value == pytest.approx(12.716898269296165, abs=1e-9)


def test_green_minus_far_point_is_finite():
    # the tail bound used to square |x| ~ 1e200 and raise OverflowError
    g = green_minus(QUAD, (1e200, 1e199))
    assert math.isfinite(g.value) and g.value >= 0.0
    assert math.isfinite(g.error_bound) and g.error_bound >= 0.0


def test_too_few_escaping_points_is_a_domain_error():
    # the box around the origin lies in the bounded set of y^2, a = 3
    with pytest.raises(DomainError):
        sample_escaping_points(QUAD, 1, box=1e-9, budget=1)


def test_green_nonnegative_and_zero_on_bounded_orbit():
    g = green_plus(QUAD, (0, 0))
    assert g.value == 0.0
    assert g.budget_exhausted


def test_functorial_law_100_points():
    for m, seed in ((QUAD, 31), (CUBIC, 32)):
        filt = estimate_filtration_radius(m)
        for z in sample_escaping_points(m, 100, seed=seed, filtration=filt):
            g0 = green_plus(m, z, filtration=filt)
            g1 = green_plus(m, evaluate(m, z), filtration=filt)
            assert abs(g1.value - m.d * g0.value) < 1e-7


def test_crude_and_refined_methods_agree():
    filt = estimate_filtration_radius(QUAD)
    for z in sample_escaping_points(QUAD, 50, seed=33, filtration=filt):
        refined = green_plus(QUAD, z, filtration=filt)
        crude = crude_green_plus(QUAD, z, filtration=filt)
        assert abs(refined.value - crude.value) <= \
            refined.error_bound + crude.error_bound + 1e-9


def test_green_independent_of_filtration_radius():
    filt = estimate_filtration_radius(QUAD)
    filt2 = FiltrationRadius(2 * filt.R)
    for z in sample_escaping_points(QUAD, 50, seed=34, filtration=filt):
        g1 = green_plus(QUAD, z, filtration=filt)
        g2 = green_plus(QUAD, z, filtration=filt2)
        assert abs(g1.value - g2.value) < 1e-9


def test_classify_fixed_point_bounded():
    cls = classify_point(QUAD, (0, 0))
    assert cls.status == "bounded-within-budget"
    assert cls.n_exit is None
    assert cls.green_plus.value == 0.0


def test_classify_escaping_point():
    cls = classify_point(QUAD, (0, 100))
    assert cls.status == "escapes-forward"
    assert cls.n_exit == 0
    assert cls.green_plus.value > 0


def test_classification_stable_under_larger_budget():
    """An escape verdict never flips when the budget grows."""
    rng = random.Random(35)
    for _ in range(50):
        z = (complex(rng.uniform(-3, 3)), complex(rng.uniform(-3, 3)))
        c1 = classify_point(QUAD, z, budget=50)
        c2 = classify_point(QUAD, z, budget=200)
        if c1.status == "escapes-forward":
            assert c2.status == "escapes-forward"
            assert c2.n_exit == c1.n_exit


def _grid_cases():
    """QUAD at four fixed points, then maps of degree 2..6 with complex a and
    coefficients at box, deep (|y| up to 1e12) and far (1e20..1e300) points."""
    rng = random.Random(36)

    def c(r):
        return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))

    cases = [(QUAD, [(0.5, 2.5), (-1.0, 3.0), (0.0, 100.0), (0.0, 0.0)])]
    for d in range(2, 7):
        m = HenonMap(d, c(rng.uniform(0.5, 3.0)), tuple(c(rng.uniform(0.0, 1.5))
                                                        for _ in range(d - 1)))
        pts = [(c(rng.uniform(0, 3)), c(rng.uniform(0, 3))) for _ in range(8)]
        pts += [(c(rng.uniform(0, 3)), c(10 ** rng.uniform(3, 12))) for _ in range(4)]
        pts += [(c(10 ** rng.uniform(20, 300)), c(10 ** rng.uniform(20, 300)))
                for _ in range(8)]
        cases.append((m, pts))
    return cases


def test_vectorized_grid_matches_scalar():
    for m, pts in _grid_cases():
        filt = estimate_filtration_radius(m)
        X = np.array([complex(p[0]) for p in pts])
        Y = np.array([complex(p[1]) for p in pts])
        green, err, escaped = green_plus_grid(m, X, Y, filtration=filt)
        for i, z in enumerate(pts):
            scalar = green_plus(m, z, filtration=filt)
            assert math.isfinite(green[i]) and math.isfinite(err[i]), (m, z)
            assert math.isfinite(scalar.value) and math.isfinite(scalar.error_bound), (m, z)
            assert escaped[i] == (not scalar.budget_exhausted), (m, z)
            assert abs(green[i] - scalar.value) <= err[i] + scalar.error_bound, (m, z)


# The two-loop grid walk (entry walk, then a capped climb) that the compacted
# walk replaced, kept as the bit-level oracle for points that never overflow.

def _two_loop_grid(m, X, Y, budget=200, filtration=None):
    R = filtration.R
    d, a, coeffs = m.d, complex(m.a), m.coeffs_complex
    x = np.array(X, dtype=np.complex128).ravel().copy()
    y = np.array(Y, dtype=np.complex128).ravel().copy()
    n_entry = np.full(x.size, -1, dtype=np.int64)
    active = np.ones(x.size, dtype=bool)
    p_coeffs = (*coeffs, 0, 1)
    with np.errstate(all="ignore"):
        for step in range(budget + 1):
            ax, ay = np.abs(x[active]), np.abs(y[active])
            entered = ay >= np.maximum(ax, R)
            idx = np.flatnonzero(active)
            n_entry[idx[entered]] = step
            active[idx[entered]] = False
            if not active.any() or step == budget:
                break
            idx = np.flatnonzero(active)
            xi, yi = x[idx], y[idx]
            x[idx], y[idx] = yi, horner(p_coeffs, yi) - a * xi
        escaped = n_entry >= 0
        total = n_entry.astype(np.float64)
        climb = escaped & (np.abs(y) < _DEEP)
        for _ in range(120):
            if not climb.any():
                break
            idx = np.flatnonzero(climb)
            xi, yi = x[idx], y[idx]
            x[idx], y[idx] = yi, horner(p_coeffs, yi) - a * xi
            total[idx] += 1
            climb[idx] = np.abs(y[idx]) < _DEEP
        green, err = np.zeros(x.size), np.zeros(x.size)
        if escaped.any():
            ye = np.abs(y[escaped])
            scale = np.power(float(d), -total[escaped])
            green[escaped] = np.log(np.maximum(ye, 1.0)) * scale
            A, B = sum(abs(c) for c in coeffs), abs(a)
            u = A / np.maximum(ye, 2.0) ** 2 + B / np.maximum(ye, 2.0) ** (d - 1)
            err[escaped] = scale * (4.0 * u / d) + _FLOAT_NOISE * (1.0 + green[escaped])
    return green, err, escaped


def test_grid_matches_the_walk_it_replaced():
    # box and deep points only: their walks never pass the overflow limit
    for m, pts in _grid_cases():
        filt = estimate_filtration_radius(m)
        X = np.array([complex(p[0]) for p in pts if abs(p[0]) < 1e20])
        Y = np.array([complex(p[1]) for p in pts if abs(p[0]) < 1e20])
        green, err, escaped = green_plus_grid(m, X, Y, filtration=filt)
        old_green, old_err, old_escaped = _two_loop_grid(m, X, Y, filtration=filt)
        assert green.tobytes() == old_green.tobytes(), m
        assert escaped.tobytes() == old_escaped.tobytes(), m
        # the oracle never bounded the points that exhausted the budget
        assert err[escaped].tobytes() == old_err[escaped].tobytes(), m
        # and each point walked alone takes the same bits: every product is
        # out of place, whose rounding does not depend on the batch
        for i in range(X.size):
            g, e, esc = green_plus_grid(m, X[i:i + 1], Y[i:i + 1], filtration=filt)
            assert g.tobytes() == old_green[i:i + 1].tobytes(), (m, i)
            assert esc.tobytes() == old_escaped[i:i + 1].tobytes(), (m, i)
            assert not esc[0] or e.tobytes() == old_err[i:i + 1].tobytes(), (m, i)


def _orbit_truth(m, z, inverse=False, n=14):
    """60-digit d^-n log ||H^n z|| (H^-n backwards, less log|a|/(d-1))."""
    with mp.workdps(60):
        a = mp.mpc(m.a_complex)
        p = (*(mp.mpc(c) for c in m.coeffs_complex), 0, 1)
        x, y = mp.mpc(z[0]), mp.mpc(z[1])
        for _ in range(n):
            x, y = ((horner(p, x) - y) / a, x) if inverse else (y, horner(p, y) - a * x)
        g = mp.log(max(abs(x), abs(y)))
        if inverse:
            g -= mp.log(abs(a)) / (m.d - 1)
        return float(g / m.d ** n)


def _entry_points(rng, R, count, top=1.2):
    """Points of V_R+ at entry: |y| in [R, top R], |x| <= |y| (swap for V_R-)."""
    def rect(r):
        return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))
    out = []
    for _ in range(count):
        r = R * rng.uniform(1.0, top)
        out.append((rect(r * rng.uniform(0.0, 1.0)), rect(r)))
    return out


def test_green_bounds_hold_against_mpmath_orbit(monkeypatch):
    """|value - truth| <= error_bound, both finite, for G+ (refined at
    target_error 1e-3, 1e-9 and 1e-14), crude G+, the grid and G- at V_R+-
    entry, where |u| may be near 1 until the orbit passes 2R.  Walks that
    pass the overflow limit before entry, valued by the overflow rule, are
    not drawn.  The three fixed cases have R = 31.6,
    R = 3.16e13 and R = 2.4e87; the last lies past the overflow limit
    4.6e86, so the walk stops below 2R, where u = 0.22 gives the bound 4u/d.
    Forward only: maps of degree 21..40 (the overflow limit below 1e13)
    with coefficients to 1e30, and of degree 2..8 with coefficients to
    1e200 (R can lie past the limit), at |y| in [R, 100R].  At target 1e-14
    the refined climb takes a step from past 1e13 at least once, and the
    climb stops on the overflow limit with the crude value at least once."""
    points = []  # where each refined G+ takes its last step
    true_product = potential.phi_product

    def recorded(m, z):
        points.append(z)
        return true_product(m, z)
    monkeypatch.setattr(potential, "phi_product", recorded)
    past_deep = on_limit = False
    rng = random.Random(37)
    cases = []
    for m, y in ((HenonMap(4, 1, (0, 0, 1000)), 1.0001j), (HenonMap(4, 1, (0, 0, 1e27)), 1.0001j),
                 (HenonMap(3, 1, (0, 3e174)), 1.5j)):
        z = (0j, y * estimate_filtration_radius(m).R)
        cases.append((m, [z], [z[::-1]]))
    for d in range(2, 6):
        for amod in (0.3, 1.0, 3.0, 50.0):
            for scale in (1.0, 1e9, 1e27):
                coeffs = [cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
                          for _ in range(d - 1)]
                coeffs[d - 2] *= scale
                m = HenonMap(d, cmath.rect(amod, rng.uniform(0.0, 2.0 * math.pi)),
                             tuple(coeffs))
                R = estimate_filtration_radius(m).R
                Rm = max(R, doubling_radius(m, 1.0 + 2.0 * amod))
                cases.append((m, _entry_points(rng, R, 3),
                               [z[::-1] for z in _entry_points(rng, Rm, 3)]))
    for degrees, exponent in ((range(21, 41), 30), (range(2, 9), 200)):
        for _ in range(24):
            d = rng.choice(degrees)
            scale = 10.0 ** rng.uniform(0.0, exponent)
            m = HenonMap(d, cmath.rect(rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0 * math.pi)),
                         tuple(cmath.rect(scale * rng.uniform(0.0, 2.0),
                                          rng.uniform(0.0, 2.0 * math.pi)) for _ in range(d - 1)))
            cases.append((m, _entry_points(rng, estimate_filtration_radius(m).R, 4, 100.0), []))
    bad = []
    for m, fwd, bwd in cases:
        filt = estimate_filtration_radius(m)
        green, err, _ = green_plus_grid(m, np.array([z[0] for z in fwd]),
                                        np.array([z[1] for z in fwd]), filtration=filt)
        for i, z in enumerate(fwd):
            truth = _orbit_truth(m, z)
            c = crude_green_plus(m, z, filtration=filt)
            checks = [("crude", c.value, c.error_bound), ("grid", green[i], err[i])]
            for target in (1e-3, 1e-9, 1e-14):
                g = green_plus(m, z, target, filtration=filt)
                checks.append((f"plus {target:g}", g.value, g.error_bound))
                if target == 1e-14 and g.iterations > g.entry:
                    if g.method == "crude":
                        on_limit = True
                    else:  # x of that point is |y| where the climb took its last step
                        past_deep |= abs(points[-1][0]) > 1e13
            for name, v, e in checks:
                if not (math.isfinite(v) and abs(v - truth) <= e < math.inf):
                    bad.append((name, m, z, v, e, truth))
        for z in bwd:
            truth = _orbit_truth(m, z, inverse=True)
            g = green_minus(m, z, filtration=filt)
            if not abs(g.value - truth) <= g.error_bound:
                bad.append(("minus", m, z, g.value, g.error_bound, truth))
    assert not bad, bad
    assert past_deep and on_limit


def _deep_truth(m, z, inverse=False, steps=40):
    """80-digit G+ (G- backwards) of z: d^-n log of the leading coordinate,
    less log|a|/(d-1) backwards, at the first step n where the orbit lies in
    V_1+ (V_1-) with that coordinate past 1e40, where the rest of the limit
    is below 1e-39; 0 for an orbit that has not got there after `steps`
    steps, whose G is then below d^-steps times a few."""
    with mp.workdps(80):
        a = mp.mpc(m.a_complex)
        p = (*(mp.mpc(c) for c in m.coeffs_complex), 0, 1)
        x, y = mp.mpc(z[0]), mp.mpc(z[1])
        for n in range(steps + 1):
            lead, other = (x, y) if inverse else (y, x)
            if abs(lead) > 1e40 and abs(lead) >= abs(other):
                g = mp.log(abs(lead)) - (mp.log(abs(a)) / (m.d - 1) if inverse else 0)
                return float(g / m.d ** n)
            x, y = ((horner(p, x) - y) / a, x) if inverse else (y, horner(p, y) - a * x)
    return 0.0


def test_budget_exhausted_bound_holds_against_mpmath_orbit():
    """A walk that runs out of budget at step n reports G = 0 with the bound
    d^-n (log Y(rho) + log 2/(d-1)), rho = max(sup-norm there, R), forwards,
    and d^-n max(0, log X(rho) + (log 2 - log|a|)/(d-1)) backwards: seeded
    maps of degree 2..5 with |a| in [0.3, 10], budgets 0..5, points in the
    bidisk of radius 1.5 R."""
    rng = random.Random(18)
    counts = {False: 0, True: 0}
    bad = []
    for _ in range(60):
        d = rng.randint(2, 5)
        a = cmath.rect(10 ** rng.uniform(math.log10(0.3), 1.0), rng.uniform(0.0, 2.0 * math.pi))
        m = HenonMap(d, a, tuple(cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi))
                                 for _ in range(d - 1)))
        R = estimate_filtration_radius(m).R
        for _ in range(10):
            z = tuple(cmath.rect(1.5 * R * rng.random(), rng.uniform(0.0, 2.0 * math.pi))
                      for _ in range(2))
            # crude_green_plus walks to V_R+ as green_plus does, without the refinement
            for inverse, fn in ((False, crude_green_plus), (True, green_minus)):
                exhausted = []
                for budget in range(6):  # a walk that stops within a budget stops in the next
                    g = fn(m, z, budget=budget)
                    if not g.budget_exhausted:
                        break
                    exhausted.append(g)
                if not exhausted:
                    continue
                truth = _deep_truth(m, z, inverse)
                for g in exhausted:
                    counts[inverse] += 1
                    if not (g.value == 0.0 and 0.0 <= truth <= g.error_bound < math.inf):
                        bad.append((inverse, m, z, g, truth))
    assert not bad, bad
    assert min(counts.values()) >= 500, counts


def test_grid_bounds_exhausted_pixels_as_the_scalar_walk():
    # budget 3 leaves both box points of the dissipative map and fast escapes
    m = HenonMap(2, 0.3, (-1.2,))
    rng = random.Random(19)
    pts = [(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(200)]
    green, err, escaped = green_plus_grid(m, np.array([z[0] for z in pts]),
                                          np.array([z[1] for z in pts]), budget=3)
    assert 0 < escaped.sum() < len(pts)
    for i in np.flatnonzero(~escaped):
        g = crude_green_plus(m, pts[i], budget=3)
        assert g.budget_exhausted and green[i] == g.value == 0.0
        assert 0.0 < err[i] == pytest.approx(g.error_bound, rel=1e-12)


def _agreement_cases():
    """(map, points, budget): the four benchmark maps at box, deep and far
    points, where far points overflow before entry; a map with R = 3.16e13
    at points around R; one whose R = 2.4e87 lies past the overflow limit
    4.6e86, so walks that enter there stop on the limit; and the
    dissipative map at budget 3, which leaves both box points with an
    exhausted budget and fast escapes."""
    rng = random.Random(38)

    def rect(r):
        return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))

    def box():
        return complex(rng.uniform(-6, 6), rng.uniform(-6, 6))

    cases = []
    for m in (QUAD, CUBIC, HenonMap(2, 0.3, (-1.2,)),
              HenonMap(5, 0.5 + 0.2j, (0.3, 0, 1, -1j))):
        pts = [(box(), box()) for _ in range(100)]
        pts += [(box(), rect(1e6 * rng.uniform(0.5, 2.0))) for _ in range(20)]
        pts += [(rect(1e200 * rng.uniform(0.5, 2.0)), rect(1e200 * rng.uniform(0.5, 2.0)))
                for _ in range(20)]
        cases.append((m, pts, 200))
    for m in (HenonMap(4, 1, (0, 0, 1e27)), HenonMap(3, 1, (0, 3e174))):
        R = estimate_filtration_radius(m).R
        cases.append((m, [(rect(R * rng.uniform(0.0, 2.0)), rect(R * rng.uniform(0.0, 2.0)))
                          for _ in range(100)], 200))
    rng = random.Random(19)
    cases.append((HenonMap(2, 0.3, (-1.2,)),
                  [(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
                    complex(rng.uniform(-3, 3), rng.uniform(-3, 3))) for _ in range(200)], 3))
    return cases


def test_grid_agrees_with_scalar_crude_estimator():
    for m, pts, budget in _agreement_cases():
        filt = estimate_filtration_radius(m)
        green, err, escaped = green_plus_grid(m, np.array([z[0] for z in pts]),
                                              np.array([z[1] for z in pts]), budget=budget,
                                              filtration=filt)
        if budget < 200:  # the dissipative row: exhausted pixels and escapes
            assert 0 < escaped.sum() < len(pts)
        for i, z in enumerate(pts):
            c = crude_green_plus(m, z, budget=budget, filtration=filt)
            assert escaped[i] == (not c.budget_exhausted), (m, z)
            assert abs(green[i] - c.value) <= 1e-14 * max(1.0, abs(c.value)), (m, z)
            assert abs(err[i] - c.error_bound) <= 1e-14 * c.error_bound, (m, z)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "backward"])
def test_crude_bound_gives_the_same_bits_for_floats_and_arrays(inverse):
    # for (y^3 + 1, a=1) u = 2/top^2 both ways: below, exactly at and above 1/2, where
    # d = 3 makes 4u/d = 2/3 differ from the overflow rule's 1
    m = HenonMap(3, 1, (1, 0))
    tops = (4.0, 2.0, 1.5)
    us = [_u_bound(m, top, inverse) for top in tops]
    assert us[0] < 0.5 == us[1] < us[2]
    for top, u in zip(tops, us):
        scalar = _crude_bound(m, top, inverse)
        array = _crude_bound(m, np.array([top]), inverse)
        rule = np.where(u <= 0.5, 4.0 * u / m.d, 1.0)  # the rule as first written
        assert type(scalar) is float and array.shape == (1,) and array.dtype == np.float64
        assert scalar.hex() == float(array[0]).hex() == float(rule).hex()


def test_sup_norm_definition_at_large_points():
    """G+ uses the sup norm: at (x, y) with |x| > |y| deep in escape,
    one step into V_R+ still reproduces d^{-n} log of the sup norm."""
    g = green_plus(QUAD, (1e6, 0))
    # H(1e6, 0) = (0, -3e6); G+ = (1/2) log(3e6)
    import math
    assert g.value == pytest.approx(0.5 * math.log(3e6), abs=1e-9)


def test_crude_agrees_with_refined_on_overflow():
    # the walk overflows before V_R+ entry; crude used to report 0.0
    g = green_plus(QUAD, (1e200, 1e199))
    c = crude_green_plus(QUAD, (1e200, 1e199))
    assert g.value == pytest.approx(460.517, abs=1e-3)
    assert (c.value, c.error_bound, c.iterations) == (g.value, g.error_bound, g.iterations)
    assert not c.budget_exhausted


def test_pre_entry_overflow_has_one_bound_in_both_engines():
    # the walk overflows at step 0 outside V_R+: both engines add
    # _FLOAT_NOISE (1 + G) to the overflow rule's d^-n
    z = (1e200, 1e199)
    g = green_plus(QUAD, z)
    green, err, escaped = green_plus_grid(QUAD, np.array([z[0]]), np.array([z[1]]))
    assert escaped[0] and g.entry == 0
    assert (g.value, g.error_bound) == (green[0], err[0])
    assert g.error_bound == 1.0 + _FLOAT_NOISE * (1.0 + g.value)


@pytest.mark.parametrize("k", [1.01, 1.5j])
def test_green_plus_is_crude_when_entry_is_past_the_overflow_limit(k):
    # R = 2.4e87 is past the overflow limit 4.6e86 of d = 3: no product
    # factor can be formed at entry, where |q/y^d| may be about 1/2
    m = HenonMap(3, 1, (0, 3e174))
    z = (0j, k * estimate_filtration_radius(m).R)
    g, c = green_plus(m, z), crude_green_plus(m, z)
    assert (g.value, g.error_bound, g.method) == (c.value, c.error_bound, "crude")
    assert abs(g.value - _orbit_truth(m, z)) <= g.error_bound


def test_entry_step_is_reported():
    assert green_plus(QUAD, (0, 100)).entry == 0
    assert green_plus(QUAD, (0, 0)).entry is None
    g = green_plus(QUAD, (1e200, 1e199))
    assert g.entry == g.iterations == classify_point(QUAD, (1e200, 1e199)).n_exit


@pytest.mark.parametrize("z", [(math.nan, 0), (0, math.inf), (complex(0, math.nan), 1)])
def test_non_finite_point_rejected(z):
    for fn in (green_plus, green_minus, classify_point):
        with pytest.raises(ValueError):
            fn(QUAD, z)


@pytest.mark.parametrize("fn", [green_plus, green_minus, crude_green_plus],
                         ids=["plus", "minus", "crude"])
def test_negative_budget_rejected(fn):
    with pytest.raises(ValueError, match="budget"):
        fn(QUAD, (0, 10), budget=-1)


@pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
def test_target_error_must_be_finite_and_positive(target):
    for fn in (green_plus, green_minus):
        with pytest.raises(ValueError, match="target_error"):
            fn(QUAD, (0, 10), target_error=target)
