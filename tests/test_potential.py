"""Escape-rate potentials: frozen reference values, functorial law,
method agreement, and budget/filtration independence."""

import math
import random

import numpy as np
import pytest

from henonlab import HenonMap, classify_point, evaluate, green_minus, green_plus
from henonlab.maps import FiltrationRadius, estimate_filtration_radius
from henonlab.potential import (crude_green_plus, green_plus_grid,
                                sample_escaping_points)

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
        crude = crude_green_plus(QUAD, z, extra_steps=25, filtration=filt)
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


def test_vectorized_grid_matches_scalar():
    pts = [(0.5, 2.5), (-1.0, 3.0), (0.0, 100.0), (0.0, 0.0)]
    X = np.array([complex(p[0]) for p in pts])
    Y = np.array([complex(p[1]) for p in pts])
    filt = estimate_filtration_radius(QUAD)
    green, err, escaped = green_plus_grid(QUAD, X, Y, filtration=filt)
    for i, z in enumerate(pts):
        scalar = green_plus(QUAD, z, filtration=filt)
        if escaped[i]:
            assert green[i] == pytest.approx(scalar.value, abs=1e-8)
        else:
            assert scalar.value == 0.0


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
    c = crude_green_plus(QUAD, (1e200, 1e199), extra_steps=5)
    assert g.value == pytest.approx(460.517, abs=1e-3)
    assert (c.value, c.error_bound, c.iterations) == (g.value, g.error_bound, g.iterations)
    assert not c.budget_exhausted


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
