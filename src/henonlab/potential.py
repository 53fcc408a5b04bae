"""Escape-rate potentials G+ and G- and orbit classification.

G+(z) = lim d^{-n} log+ ||H^n z|| (sup-norm).  For escaping points the
forward potential is refined through the infinite-product coordinate of
the boettcher module once the orbit enters V_R+, with a certified tail
bound.  The backward potential uses the crude estimator only, with a
first-order log|a| correction, and walks into V_R- with R the larger of the
forward and the backward doubling radius (maps.doubling_radius), so |x|
provably doubles along the rest of the backward orbit.

Membership in the non-escaping set is semi-decidable: the verdict
"bounded-within-budget" is budget-stamped, never a claim about K+.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boettcher import _u_bound, phi_product, phi_tail_bound
from .errors import DomainError
from .maps import (FiltrationRadius, HenonMap, doubling_radius, estimate_filtration_radius,
                   evaluate, horner, in_v_minus, in_v_plus, overflow_limit)

DEFAULT_BUDGET = 200
DEFAULT_TARGET_ERROR = 1e-9

ESCAPED_FORWARD = "escapes-forward"
BOUNDED = "bounded-within-budget"

# magnitude at which the crude log is already certified far beyond any
# requested target; used as the refinement stopping height
_DEEP = 1e13
_FLOAT_NOISE = 1e-12


@dataclass(frozen=True)
class GreenValue:
    value: float
    error_bound: float
    method: str  # "crude" | "boettcher-refined"
    iterations: int
    budget_exhausted: bool = False
    # step at which the walk stopped, entry into V_R+- or overflow; None
    # when the budget ran out
    entry: Optional[int] = None


@dataclass(frozen=True)
class OrbitClassification:
    status: str
    n_exit: Optional[int]
    green_plus: GreenValue


def _filtration(m: HenonMap, filtration: Optional[FiltrationRadius]) -> FiltrationRadius:
    return filtration if filtration is not None else estimate_filtration_radius(m)


def _find_entry(m: HenonMap, z, budget: int, R: float, inverse: bool = False):
    """Iterate until the orbit enters V_R+ (or V_R- backwards).

    Returns (n, point, overflowed): the step n at which the walk stopped
    and the point there, with overflowed set when it stopped on overflow
    before entry (certain escape); n is None when the budget ran out.
    """
    cur = (complex(z[0]), complex(z[1]))
    if not (cmath.isfinite(cur[0]) and cmath.isfinite(cur[1])):
        raise ValueError(f"point must be finite, got {z!r}")
    lim = overflow_limit(m.d)
    member = in_v_minus if inverse else in_v_plus
    for n in range(budget + 1):
        mag = max(abs(cur[0]), abs(cur[1]))
        if math.isfinite(mag) and member(cur, R):
            return n, cur, False
        if not mag <= lim:  # past the limit, inf or nan: escape is certain
            return n, cur, True
        cur = evaluate(m, cur, inverse=inverse)
    return None, cur, False


def _overflow_value(m: HenonMap, n: int, w) -> GreenValue:
    """Crude value at the walk's overflow point w = H^n z (or H^-n z); w is
    so large that the crude log is correct far below any sensible target."""
    g = math.log(max(abs(w[0]), abs(w[1]), 1.0)) / m.d ** n
    return GreenValue(g, m.d ** (-n) + _FLOAT_NOISE, "crude", n, entry=n)


def _exhausted(budget: int) -> GreenValue:
    return GreenValue(0.0, 0.0, "crude", budget, budget_exhausted=True)


def green_plus(m: HenonMap, z, target_error: float = DEFAULT_TARGET_ERROR,
               budget: int = DEFAULT_BUDGET,
               filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Forward Green's function with certified error bound.

    Escaping points: iterate n steps into V_R+, then a few more so the
    product tail at truncation J satisfies d^{-n} * tail <= target_error;
    the returned value is d^{-n} log|phi(H^n z)|.  Non-escaping within
    budget: value 0 with the budget flag set.
    """
    if not 0 < target_error < math.inf:
        raise ValueError(f"target_error must be finite and positive, got {target_error!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    filt = _filtration(m, filtration)
    n_entry, w, overflowed = _find_entry(m, z, budget, filt.R)
    if overflowed:
        return _overflow_value(m, n_entry, w)
    if n_entry is None:
        return _exhausted(budget)

    # refinement: climb until |y| is deep enough or the tail target is met;
    # tail is always the bound at the current w and truncation J, each
    # evaluated once
    n = n_entry
    extra = 0
    tail = phi_tail_bound(m, abs(w[1]), 1)
    while abs(w[1]) < _DEEP and extra < 80 and tail * m.d ** (-n) > target_error * 0.25:
        w = evaluate(m, w)
        n += 1
        extra += 1
        tail = phi_tail_bound(m, abs(w[1]), 1)

    scaled_target = target_error * 0.5 * m.d ** n
    J = 1
    while tail > scaled_target and J < 400:
        J += 1
        tail = phi_tail_bound(m, abs(w[1]), J)
    val = phi_product(m, w, J)
    g = math.log(abs(val)) / m.d ** n
    err = tail / m.d ** n + _FLOAT_NOISE * (1.0 + abs(g))
    return GreenValue(g, err, "boettcher-refined", n, entry=n_entry)


def crude_green_plus(m: HenonMap, z, extra_steps: int, budget: int = DEFAULT_BUDGET,
                     filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Plain d^{-n} log+ sup-norm estimator, extra_steps past V_R+ entry.

    Kept as an independent cross-check of the refined method.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    filt = _filtration(m, filtration)
    n_entry, w, overflowed = _find_entry(m, z, budget, filt.R)
    if overflowed:
        return _overflow_value(m, n_entry, w)
    if n_entry is None:
        return _exhausted(budget)
    n = n_entry
    lim = overflow_limit(m.d)
    for _ in range(extra_steps):
        if abs(w[1]) > lim:
            break
        w = evaluate(m, w)
        n += 1
    mag = max(abs(w[0]), abs(w[1]), 1.0)
    # remaining tail: sum_{j>n} d^{-j} log(1+u) with |y| at least doubling
    err = phi_tail_bound(m, abs(w[1]), 0) / m.d ** n + _FLOAT_NOISE
    return GreenValue(math.log(mag) / m.d ** n, err, "crude", n, entry=n_entry)


def green_minus(m: HenonMap, z, target_error: float = DEFAULT_TARGET_ERROR,
                budget: int = DEFAULT_BUDGET,
                filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Backward Green's function, crude estimator with log|a| correction.

    After n backward steps into V_R-, log|x_{n+1}| = d log|x_n| - log|a|
    + O(1/|x_n|), so the limit is d^{-n}(log|x_n| - log|a|/(d-1)) up to a
    geometric tail; the correction and its bound are both reported.
    """
    if not 0 < target_error < math.inf:
        raise ValueError(f"target_error must be finite and positive, got {target_error!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    # |x| doubles backwards on V_R- only past the backward radius
    R = max(_filtration(m, filtration).R, doubling_radius(m, 1.0 + 2.0 * abs(m.a_complex)))
    n_entry, w, overflowed = _find_entry(m, z, budget, R, inverse=True)
    if overflowed:
        return _overflow_value(m, n_entry, w)
    if n_entry is None:
        return _exhausted(budget)

    n = n_entry
    lim = overflow_limit(m.d)
    extra = 0
    while abs(w[0]) < _DEEP and extra < 80 and abs(w[0]) <= lim:
        w = evaluate(m, w, inverse=True)
        n += 1
        extra += 1
    xabs = max(abs(w[0]), 1.0)
    d = m.d
    loga = math.log(abs(complex(m.a)))
    g = (math.log(xabs) - loga / (d - 1)) / d ** n
    # tail bound: per-step multiplicative perturbations A/x^2 + |y|/x^d with
    # |x| at least doubling backwards on V_R-
    A = sum(abs(c) for c in m.coeffs_complex)
    err = 0.0
    xj = xabs
    for j in range(200):
        u = A / xj / xj + xj ** (1 - d)  # xj ** 2 overflows past |x| ~ 1.3e154
        term = 2.0 * u / d ** (n + j + 1)
        err += term
        if term < 1e-300:
            break
        xj *= 2.0
    err += _FLOAT_NOISE * (1.0 + abs(g))
    return GreenValue(g, err, "crude", n, entry=n_entry)


def classify_point(m: HenonMap, z, budget: int = DEFAULT_BUDGET,
                   filtration: Optional[FiltrationRadius] = None) -> OrbitClassification:
    """Forward escape classification; monotone in budget (a verdict of
    escapes-forward never reverts when the budget grows)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    g = green_plus(m, z, budget=budget, filtration=filtration)
    if g.budget_exhausted:
        return OrbitClassification(BOUNDED, None, g)
    return OrbitClassification(ESCAPED_FORWARD, g.entry, g)


def sample_escaping_points(m: HenonMap, count: int, seed: int = 0, box: float = 6.0,
                           budget: int = 100,
                           filtration: Optional[FiltrationRadius] = None) -> list:
    """Deterministic pseudo-random escaping sample points in a box."""
    filt = _filtration(m, filtration)
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 1000 * count:
        attempts += 1
        z = (complex(rng.uniform(-box, box), rng.uniform(-box, box)),
             complex(rng.uniform(-box, box), rng.uniform(-box, box)))
        if _find_entry(m, z, budget, filt.R)[0] is not None:
            out.append(z)
    if len(out) < count:
        raise DomainError("could not find enough escaping sample points")
    return out


# ---------------------------------------------------------------------------
# Vectorized grid evaluation (used by the slice sampler)
# ---------------------------------------------------------------------------

def green_plus_grid(m: HenonMap, X: np.ndarray, Y: np.ndarray,
                    budget: int = DEFAULT_BUDGET,
                    filtration: Optional[FiltrationRadius] = None):
    """G+ over flat complex arrays (X, Y) of equal shape.

    Returns (green, err, escaped) float/bool arrays.  Escaped points are
    iterated in V_R+ to height _DEEP, or stop on overflow and are valued as
    in the scalar walk; bounded-within-budget points get green = 0.
    """
    R = _filtration(m, filtration).R
    d = m.d
    a = complex(m.a)
    lim = overflow_limit(d)
    p_coeffs = (*m.coeffs_complex, 0, 1)

    x = np.array(X, dtype=np.complex128).ravel()
    y = np.array(Y, dtype=np.complex128).ravel()
    live = np.arange(x.size)  # original index of each packed point
    stop_step = np.full(x.size, -1.0)  # -1: bounded within the budget
    top = np.zeros(x.size)  # sup-norm where the walk stopped
    overflowed = np.zeros(x.size, dtype=bool)
    step = 0
    with np.errstate(all="ignore"):
        while live.size:
            ax, ay = np.abs(x), np.abs(y)
            mag = np.maximum(ax, ay)
            inside = (ay >= np.maximum(ax, R)) & np.isfinite(ay)
            # V_R+ is forward invariant with |y'| >= 2|y|, so entry and climb
            # are one walk; past the limit, inf or nan: escape is certain
            deep = inside & (ay >= _DEEP)
            over = ~deep & ~(mag <= lim)
            esc = deep | over
            done = esc | ~inside if step >= budget else esc
            if done.any():
                stop_step[live[esc]] = step
                top[live[esc]] = mag[esc]
                overflowed[live[over]] = True
                x, y, live = x[~done], y[~done], live[~done]
            x, y = y, horner(p_coeffs, y) - a * x
            step += 1

        escaped = stop_step >= 0
        scale = np.power(float(d), -stop_step)
        u = _u_bound(m, np.maximum(top, 2.0))
        # an overflowed walk gets the scalar engine's crude bound d^-n
        bound = scale * np.where(overflowed, 1.0, 4.0 * u / d) + _FLOAT_NOISE
        green = np.where(escaped, np.log(np.maximum(top, 1.0)) * scale, 0.0)
        err = np.where(escaped, bound, 0.0)
    return green, err, escaped


__all__ = [
    "GreenValue", "OrbitClassification", "classify_point", "green_plus",
    "green_minus", "crude_green_plus", "green_plus_grid",
    "sample_escaping_points",
    "DEFAULT_BUDGET", "DEFAULT_TARGET_ERROR", "ESCAPED_FORWARD", "BOUNDED",
]
