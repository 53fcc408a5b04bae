"""Escape-rate potentials G+ and G- and orbit classification.

G+(z) = lim d^{-n} log+ ||H^n z|| (sup-norm).  Every value starts from one
escape walk, one step (evaluate on the map's doubles) and one stop rule
(_stop), driven by _walk per point, forwards or backwards, and by
green_plus_grid over numpy arrays.  V_R+ = {|y| >= max(|x|, R)} is forward
invariant with |y'| >= 2|y| (V_R- backwards with |x'| >= 2|x|, R the larger
of the two doubling radii), so entry and climb are one loop.  It stops at
the first of: in V_R+- with the leading coordinate (y, or x backwards) at a
height; the sup-norm past the overflow limit; the budget spent outside
V_R+-.  A step to inf or nan raises OverflowError.  G-, crude_green_plus and the grid
climb to max(1e13, 2R); green_plus stops at entry, unless y is past the
overflow limit, and walks J more steps: |phi_J| = |y_J|^(1/d^J) for the
truncated Boettcher product, so phi_product gives d^-J log|y_J| and
phi_tail_bound bounds the factors past J.

One function, _stopped, values an escaped stop: d^-n (log top - shift),
shift = log|a|/(d-1) backwards after entry.  The rest of the limit, the
sum over j >= n of d^-(j+1) log|1+u_j|, is below d^-n 4u/d, u = _u_bound
at the stop, whenever u <= 1/2: then |log(1+u_j)| <= 2|u_j|, and u_j at
least halves per step.  A stop with u > 1/2 gets d^-n: past 2R the
doubling inequality still gives |u_j| <= 1/2, so the tail is below
d^-n 2/(2d-1); below 2R on the overflow limit, and before entry, that is
the overflow rule.

Membership in the non-escaping set is semi-decidable: the verdict
"bounded-within-budget" is budget-stamped, never a claim about K+.

A walk that runs out of budget reports G = 0 with the proven bound
_exhausted_bound.

The scalar functions use the standard library only; green_plus_grid
imports numpy itself, so only the slice sampler and selftest load it.
"""

from __future__ import annotations

import cmath
import math
import random
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .maps import (FiltrationRadius, HenonMap, _u_bound, doubling_radius, evaluate,
                   filtration_of, overflow_limit)

DEFAULT_BUDGET = 200
DEFAULT_TARGET_ERROR = 1e-9

ESCAPED_FORWARD = "escapes-forward"
BOUNDED = "bounded-within-budget"

# height at which, for a modest R, the crude log is certified far beyond any
# requested target: the refinement stops there or at the overflow limit,
# the crude climb at max(_DEEP, 2R) or the overflow limit
_DEEP = 1e13
_FLOAT_NOISE = 1e-12


@dataclass(frozen=True)
class GreenValue:
    value: float
    error_bound: float
    method: str  # "crude" | "boettcher-refined"
    iterations: int
    budget_exhausted: bool = False
    # step at which the orbit entered V_R+-, or at which it overflowed
    # before entry; None when the budget ran out
    entry: Optional[int] = None


@dataclass(frozen=True)
class OrbitClassification:
    status: str
    n_exit: Optional[int]
    green_plus: GreenValue


def _stop(top, other, R, height, lim):
    """(inside, escaped) at |lead| = top, |other| = other: in V_R+-, and stopped in it
    at the height or with the sup-norm past lim (nan is past it).  Only &, |,
    ^ True and comparisons, so floats and numpy arrays take the same code."""
    inside = (top >= other) & (top >= R)
    return inside, inside & (top >= height) | ((top <= lim) & (other <= lim)) ^ True


def _walk(m: HenonMap, z, budget: int, R: float, height: float, inverse: bool = False):
    """The escape walk of z, backwards with inverse, to the first of its
    three stops (module docstring).  Returns (entry, w, crude): the step of
    entry into V_R+-, or None; the point at the stop; and its GreenValue,
    from _stopped, or G = 0 with _exhausted_bound when the budget ran out.
    OverflowError on an inf or nan sup-norm: no bound can be certified."""
    w = (complex(z[0]), complex(z[1]))
    if not (cmath.isfinite(w[0]) and cmath.isfinite(w[1])):
        raise ValueError(f"point must be finite, got {z!r}")
    lead = 0 if inverse else 1
    lim = overflow_limit(m.d)
    entry = None
    n = 0
    while True:
        top, other = abs(w[lead]), abs(w[1 - lead])
        inside, escaped = _stop(top, other, R, height, lim)
        if inside and entry is None:
            entry = n
        if escaped:
            break
        if n >= budget and not inside:
            bound = _exhausted_bound(m, n, max(top, other, R), inverse)
            return None, w, GreenValue(0.0, bound, "crude", n, budget_exhausted=True)
        w = evaluate(m.doubles, w, inverse)
        n += 1
    mag = max(top, other)
    if not math.isfinite(mag):  # escape is certain, but there is no height to take
        raise OverflowError(f"the orbit leaves the float range at step {n}")
    g, err = _stopped(m, n, mag, entry is not None, inverse)
    return entry, w, GreenValue(g, err, "crude", n, entry=n if entry is None else entry)


def _exhausted_bound(m: HenonMap, n: int, rho, inverse: bool = False, log=math.log):
    """Bound on G+ (G- backwards) at a point whose walk ran out of budget at
    step n with sup-norm at most rho >= R, the doubling radius of its
    direction; rho may be a numpy array with log = np.log.

    One step maps the bidisk of radius r >= R into the one of radius
    Y(r) = r^d + sum_j |a_j| r^j + |a| r <= 2 r^d (backwards
    X(r) = (r^d + sum_j |a_j| r^j + r)/|a| <= 2 r^d/|a|), so G at step n is
    below log Y(rho) + log 2/(d-1) (max(0, log X(rho) + (log 2 - log|a|)/(d-1)))
    and G = d^-n of that.  log Y(rho) <= d log rho + log(1 + _u_bound(rho));
    the bound holds with a factor d to spare, which covers its rounding.
    """
    d = m.d
    b = d * log(rho) + log(1.0 + _u_bound(m, rho, inverse)) + math.log(2.0) / (d - 1)
    if inverse:
        b = max(0.0, b - d * math.log(abs(m.a_complex)) / (d - 1))
    return b * float(d) ** -n


def _crude_bound(m: HenonMap, top, inverse: bool = False):
    """d^n times the crude error bound at a stop height top in V_R+- (see the
    module docstring): 4u/d when u = _u_bound(top) <= 1/2, else the overflow
    rule's 1; top may be a numpy array, selected by the comparison masks
    (exact: x*1 + 0 = x, x*0 + 1 = 1 for the finite x = 4u/d)."""
    u = _u_bound(m, top, inverse)
    return 4.0 * u / m.d * (u <= 0.5) + (u > 0.5)


def _stopped(m: HenonMap, n, top, entered, inverse: bool = False, log=math.log):
    """(G, bound) of a walk that escaped at step n with sup-norm top:
    G = d^-n (log top - shift), shift = log|a|/(d-1) backwards after entry,
    and the bound d^-n _crude_bound(top) after entry into V_R+-, the overflow
    rule's d^-n before it, plus _FLOAT_NOISE (1 + |G|).  n, top and entered
    may be numpy arrays with log = np.log; top is finite and at least 1."""
    scale = float(m.d) ** -n
    shift = math.log(abs(m.a_complex)) / (m.d - 1) if inverse else 0.0
    g = (log(top) - shift * entered) * scale
    rule = _crude_bound(m, top, inverse) * entered + (1 - entered)  # exact, as in _crude_bound
    return g, rule * scale + _FLOAT_NOISE * (1.0 + abs(g))


def phi_tail_bound(m: HenonMap, y0abs: float, J: int) -> float:
    """Certified bound on |log phi - log phi_J| using |y_j| >= 2^j |y_0|;
    J >= 1, where |y_J| >= 2R gives the |u| <= 1/2 the bound needs."""
    if J < 1:
        raise ValueError(f"phi_tail_bound needs J >= 1, got {J!r}")
    if y0abs <= 1.0:
        return float("inf")
    d = m.d
    total = 0.0
    with suppress(OverflowError):  # 2^J or d^(j+1) past the float range: the rest is < 1e-300
        yj = y0abs * 2.0 ** J
        for j in range(J, J + 400):
            term = 2.0 * _u_bound(m, yj) / d ** (j + 1)
            total += term
            if term < 1e-300:
                break
            yj *= 2.0
    return total


def phi_product(m: HenonMap, z, J: int):
    """(d^-J log|y_J|, rest) after J steps from z in V_R+ (unchecked): log|phi_J(z)|.
    A |y_j| past the overflow limit at j < J stops the walk with
    (d^-j log|y_j|, d^-j _crude_bound(|y_j|)), as at every crude stop."""
    d, lim = m.d, overflow_limit(m.d)
    for j in range(J):
        top = abs(z[1])
        if top > lim:
            return math.log(top) / d ** j, _crude_bound(m, top) / d ** j
        z = evaluate(m.doubles, z)
    return math.log(abs(z[1])) / d ** J, 0.0


def green_plus(m: HenonMap, z, target_error: float = DEFAULT_TARGET_ERROR,
               budget: int = DEFAULT_BUDGET,
               filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Forward Green's function with certified error bound.

    Escaping points: iterate n steps into V_R+, then a few more so the
    product tail at truncation J satisfies d^{-n} * tail <= target_error;
    the returned value is d^{-n} log|phi_J(H^n z)|, or the crude value when
    the entry point is past the overflow limit.  Non-escaping within
    budget: value 0 with the budget flag set.
    """
    if not 0 < target_error < math.inf:
        raise ValueError(f"target_error must be finite and positive, got {target_error!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    filt = filtration_of(m, filtration)
    n_entry, w, crude = _walk(m, z, budget, filt.R, filt.R)  # stops at entry
    lim = overflow_limit(m.d)
    if n_entry is None or abs(w[1]) > lim:  # no product step can be taken past the limit
        return crude

    # refinement: climb until |y| is deep enough or the tail target is met;
    # tail is always the bound at the current w and truncation J, each
    # evaluated once
    n = n_entry
    tail = phi_tail_bound(m, abs(w[1]), 1)
    while abs(w[1]) < min(_DEEP, lim) and tail * m.d ** (-n) > target_error * 0.25:
        w = evaluate(m.doubles, w)
        n += 1
        tail = phi_tail_bound(m, abs(w[1]), 1)

    scaled_target = target_error * 0.5 * m.d ** n
    J = 1
    while tail > scaled_target and J < 400:
        J += 1
        tail = phi_tail_bound(m, abs(w[1]), J)
    # the product can stop past the limit, at |y_j| >= 2R: j >= 1, or w climbed
    log_phi, rest = phi_product(m, w, J)
    g = log_phi / m.d ** n
    err = (tail + rest) / m.d ** n + _FLOAT_NOISE * (1.0 + abs(g))
    return GreenValue(g, err, "boettcher-refined", n, entry=n_entry)


def crude_green_plus(m: HenonMap, z, budget: int = DEFAULT_BUDGET,
                     filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Plain d^{-n} log+ sup-norm estimator, taken at height max(1e13, 2R)
    in V_R+ with the crude bound.

    Kept as an independent cross-check of the refined method.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    R = filtration_of(m, filtration).R
    return _walk(m, z, budget, R, max(_DEEP, 2.0 * R))[2]


def green_minus(m: HenonMap, z, target_error: float = DEFAULT_TARGET_ERROR,
                budget: int = DEFAULT_BUDGET,
                filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Backward Green's function: the crude estimator with log|a| correction.

    After n backward steps into V_R-, log|x_{n+1}| = d log|x_n| - log|a|
    + log|1+u_n|, so the limit is d^{-n}(log|x_n| - log|a|/(d-1)) up to the
    crude tail.  target_error is validated but changes nothing: G- always
    reports the crude value at height max(1e13, 2R) with its bound.
    """
    if not 0 < target_error < math.inf:
        raise ValueError(f"target_error must be finite and positive, got {target_error!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    # |x| doubles backwards on V_R- only past the backward radius
    R = max(filtration_of(m, filtration).R, doubling_radius(m, 1.0 + 2.0 * abs(m.a_complex)))
    return _walk(m, z, budget, R, max(_DEEP, 2.0 * R), inverse=True)[2]


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
    filt = filtration_of(m, filtration)
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 1000 * count:
        attempts += 1
        z = (complex(rng.uniform(-box, box), rng.uniform(-box, box)),
             complex(rng.uniform(-box, box), rng.uniform(-box, box)))
        if not _walk(m, z, budget, filt.R, filt.R)[2].budget_exhausted:
            out.append(z)
    if len(out) < count:
        raise DomainError("could not find enough escaping sample points")
    return out


# ---------------------------------------------------------------------------
# Vectorized grid evaluation (used by the slice sampler)
# ---------------------------------------------------------------------------

def green_plus_grid(m: HenonMap, X, Y, budget: int = DEFAULT_BUDGET,
                    filtration: Optional[FiltrationRadius] = None):
    """G+ over flat complex arrays (X, Y) of equal shape.

    Returns (green, err, escaped) float/bool numpy arrays: the walk of
    crude_green_plus on every point still walking, with its step, _stop,
    _stopped and _exhausted_bound; no product is in place, so no pixel
    depends on the others.  OverflowError when a walk leaves the float
    range.  numpy is imported here, so the scalar path never loads it.
    """
    import numpy as np
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    R = filtration_of(m, filtration).R
    height = max(_DEEP, 2.0 * R)
    lim = overflow_limit(m.d)

    x = np.array(X, dtype=np.complex128).ravel()
    y = np.array(Y, dtype=np.complex128).ravel()
    live = np.arange(x.size)  # original index of each packed point
    stop_step = np.full(x.size, -1.0)  # -1: bounded within the budget
    top = np.zeros(x.size)  # sup-norm where the walk stopped
    entered = np.zeros(x.size, dtype=bool)  # stopped in V_R+
    step = 0
    with np.errstate(all="ignore"):
        ax = np.abs(x)  # after a step |x| is the |y| before it
        while live.size:
            ay = np.abs(y)
            inside, esc = _stop(ay, ax, R, height, lim)
            done = esc | ~inside if step >= budget else esc
            if done.any():
                stop_step[live[esc]] = step
                top[live[done]] = np.maximum(ax[done], ay[done])
                entered[live[esc & inside]] = True
                keep = ~done
                x, y, ay, live = x[keep], y[keep], ay[keep], live[keep]
            x, y = evaluate(m.doubles, (x, y))
            ax = ay
            step += 1

        if not np.isfinite(top).all():
            raise OverflowError("the orbit of a pixel leaves the float range")
        escaped = stop_step >= 0
        # escaped tops are at least 1: the clamp only keeps the dropped values finite
        green, bound = _stopped(m, stop_step, np.maximum(top, 1.0), entered, log=np.log)
        green = np.where(escaped, green, 0.0)
        err = np.where(escaped, bound, _exhausted_bound(m, budget, np.maximum(top, R), log=np.log))
    return green, err, escaped


__all__ = [
    "GreenValue", "OrbitClassification", "classify_point", "green_plus",
    "green_minus", "crude_green_plus", "green_plus_grid",
    "sample_escaping_points",
    "DEFAULT_BUDGET", "DEFAULT_TARGET_ERROR", "ESCAPED_FORWARD", "BOUNDED",
]
