"""Escape-rate potentials G+ and G- and orbit classification.

G+(z) = lim d^{-n} log+ ||H^n z|| (sup-norm).  For escaping points the
forward potential is refined through the infinite-product coordinate of
the boettcher module once the orbit enters V_R+, with a certified tail
bound; an orbit that enters past the overflow limit, where no factor of
the product can be formed, gets the crude value.  The backward potential
uses the crude estimator only, with a first-order log|a| correction, and
walks into V_R- with R the larger of the forward and the backward
doubling radius (maps.doubling_radius), so |x| provably doubles along the
rest of the backward orbit.

One crude estimator serves G-, crude_green_plus and the grid: after entry
the walk climbs until the leading coordinate reaches max(1e13, 2R) or the
overflow limit and takes d^-n log of it.  The rest of the limit, the sum
over j >= n of d^-(j+1) log|1+u_j|, is below d^-n 4u/d, u = _u_bound there,
whenever u <= 1/2: then |log(1+u_j)| <= 2|u_j|, and u_j at least halves per
step as the leading coordinate doubles on V_R+-.  A stop with u > 1/2 gets
d^-n: past 2R the doubling inequality still gives |u_j| <= 1/2, so the
tail is below d^-n 2/(2d-1); below 2R, on the overflow limit, that is the
overflow rule.

Membership in the non-escaping set is semi-decidable: the verdict
"bounded-within-budget" is budget-stamped, never a claim about K+.

A walk that runs out of budget reports G = 0 with the proven bound
_exhausted_bound.

The scalar functions use the standard library only; green_plus_grid
imports numpy itself, so only the slice sampler and selftest load it.
The refinement's boettcher module (and with it the series algebra) loads
with the first refined green_plus, so the slice sampler, crude G+ and G-
never load it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .maps import (FiltrationRadius, HenonMap, _u_bound, doubling_radius,
                   estimate_filtration_radius, evaluate, in_v_minus, in_v_plus, overflow_limit)

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

    Returns (n, point, None) at entry, or (n, point, final) when the walk
    stops first: past the overflow limit (certain escape) final is the crude
    log of the sup-norm with error d^-n; when the budget runs out n is None
    and final is 0 with the budget flag set and the bound _exhausted_bound.
    OverflowError on inf or nan, from which no bound can be certified.
    """
    cur = (complex(z[0]), complex(z[1]))
    if not (cmath.isfinite(cur[0]) and cmath.isfinite(cur[1])):
        raise ValueError(f"point must be finite, got {z!r}")
    lim = overflow_limit(m.d)
    member = in_v_minus if inverse else in_v_plus
    mag = 0.0  # a negative budget stops at once
    for n in range(budget + 1):
        mag = max(abs(cur[0]), abs(cur[1]))
        if not math.isfinite(mag):  # escape is certain, but there is no height to take
            raise OverflowError(f"the orbit leaves the float range at step {n}")
        if member(cur, R):
            return n, cur, None
        if mag > lim:  # past the limit escape is certain
            g = math.log(mag) / m.d ** n
            return n, cur, GreenValue(g, m.d ** (-n) + _FLOAT_NOISE * (1.0 + abs(g)), "crude", n,
                                      entry=n)
        cur = evaluate(m, cur, inverse=inverse)
    # mag is the sup-norm at step budget, the last one checked
    bound = _exhausted_bound(m, budget, max(mag, R), inverse)
    return None, cur, GreenValue(0.0, bound, "crude", budget, budget_exhausted=True)


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


def _crude(m: HenonMap, n: int, w, R: float, inverse: bool = False) -> GreenValue:
    """The crude estimator from the entry step n and point w into V_R+-, on
    the leading coordinate (y, or x backwards), less log|a|/(d-1) backwards."""
    lead = 0 if inverse else 1
    height = max(_DEEP, 2.0 * R)
    lim = overflow_limit(m.d)
    n_entry = n
    while abs(w[lead]) < height and abs(w[lead]) <= lim:
        w = evaluate(m, w, inverse=inverse)
        n += 1
    top = abs(w[lead])
    shift = math.log(abs(m.a_complex)) / (m.d - 1) if inverse else 0.0
    g = (math.log(top) - shift) / m.d ** n
    err = _crude_bound(m, top, inverse) / m.d ** n
    return GreenValue(g, err + _FLOAT_NOISE * (1.0 + abs(g)), "crude", n, entry=n_entry)


def green_plus(m: HenonMap, z, target_error: float = DEFAULT_TARGET_ERROR,
               budget: int = DEFAULT_BUDGET,
               filtration: Optional[FiltrationRadius] = None) -> GreenValue:
    """Forward Green's function with certified error bound.

    Escaping points: iterate n steps into V_R+, then a few more so the
    product tail at truncation J satisfies d^{-n} * tail <= target_error;
    the returned value is d^{-n} log|phi(H^n z)|, or the crude value when
    the entry point is past the overflow limit.  Non-escaping within
    budget: value 0 with the budget flag set.
    """
    if not 0 < target_error < math.inf:
        raise ValueError(f"target_error must be finite and positive, got {target_error!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget!r}")
    filt = _filtration(m, filtration)
    n_entry, w, final = _find_entry(m, z, budget, filt.R)
    if final is not None:
        return final
    lim = overflow_limit(m.d)
    if abs(w[1]) > lim:  # no product factor can be formed there
        return _crude(m, n_entry, w, filt.R)
    from .boettcher import phi_product, phi_tail_bound  # loaded by the first refinement

    # refinement: climb until |y| is deep enough or the tail target is met;
    # tail is always the bound at the current w and truncation J, each
    # evaluated once
    n = n_entry
    tail = phi_tail_bound(m, abs(w[1]), 1)
    while abs(w[1]) < min(_DEEP, lim) and tail * m.d ** (-n) > target_error * 0.25:
        w = evaluate(m, w)
        n += 1
        tail = phi_tail_bound(m, abs(w[1]), 1)

    scaled_target = target_error * 0.5 * m.d ** n
    J = 1
    while tail > scaled_target and J < 400:
        J += 1
        tail = phi_tail_bound(m, abs(w[1]), J)
    # the product can stop past the limit, at |y_j| >= 2R: j >= 1, or w climbed
    val, rest = phi_product(m, w, J)
    g = math.log(abs(val)) / m.d ** n
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
    R = _filtration(m, filtration).R
    n, w, final = _find_entry(m, z, budget, R)
    return final if final is not None else _crude(m, n, w, R)


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
    R = max(_filtration(m, filtration).R, doubling_radius(m, 1.0 + 2.0 * abs(m.a_complex)))
    n, w, final = _find_entry(m, z, budget, R, inverse=True)
    return final if final is not None else _crude(m, n, w, R, inverse=True)


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

def green_plus_grid(m: HenonMap, X, Y, budget: int = DEFAULT_BUDGET,
                    filtration: Optional[FiltrationRadius] = None):
    """G+ over flat complex arrays (X, Y) of equal shape.

    Returns (green, err, escaped) float/bool numpy arrays.  Escaped points
    are iterated in V_R+ to height max(1e13, 2R) and get the crude value and
    bound of crude_green_plus, or stop on overflow and are valued as in the
    scalar walk; bounded-within-budget points get green = 0 with the
    scalar walk's _exhausted_bound.  numpy is imported here, not with the
    module, so the scalar path never loads it.
    """
    import numpy as np
    R = _filtration(m, filtration).R
    height = max(_DEEP, 2.0 * R)
    d = m.d
    a = complex(m.a)
    lim = overflow_limit(d)
    tail = m.coeffs_complex[::-1]  # a_{d-2} .. a_0

    x = np.array(X, dtype=np.complex128).ravel()
    y = np.array(Y, dtype=np.complex128).ravel()
    live = np.arange(x.size)  # original index of each packed point
    stop_step = np.full(x.size, -1.0)  # -1: bounded within the budget
    top = np.zeros(x.size)  # sup-norm where the walk stopped
    overflowed = np.zeros(x.size, dtype=bool)
    step = 0
    with np.errstate(all="ignore"):
        ax = np.abs(x)  # after a step |x| is the |y| before it
        while live.size:
            ay = np.abs(y)
            mag = np.maximum(ax, ay)
            inside = ay >= np.maximum(ax, R, out=ax)
            inside &= np.isfinite(ay)
            # V_R+ is forward invariant with |y'| >= 2|y|, so entry and climb
            # are one walk; past the limit, inf or nan: escape is certain
            deep = inside & (ay >= height)
            over = ~(deep | (mag <= lim))
            esc = deep | over
            done = esc | ~inside if step >= budget else esc
            if done.any():
                stop_step[live[esc]] = step
                top[live[done]] = mag[done]
                overflowed[live[over & ~inside]] = True
                keep = ~done
                x, y, ay, live = x[keep], y[keep], ay[keep], live[keep]
            # y' = p(y) - a x by Horner's rule in place, from y*y: p is monic
            # with no y^(d-1) term, and the 1*y + 0 of maps.horner differs
            # from y (finite here) in the sign of a zero at most, which no
            # |.| downstream sees
            nxt = y * y
            for k, c in enumerate(tail):
                if k:
                    nxt *= y
                nxt += c
            nxt -= a * x
            x, y, ax = y, nxt, ay
            step += 1

        escaped = stop_step >= 0
        scale = np.power(float(d), -stop_step)
        # a walk that overflowed before entry gets the scalar engine's d^-n
        green = np.where(escaped, np.log(np.maximum(top, 1.0)) * scale, 0.0)
        bound = scale * np.where(overflowed, 1.0, _crude_bound(m, np.maximum(top, 2.0))) \
            + _FLOAT_NOISE * (1.0 + green)
        err = np.where(escaped, bound, _exhausted_bound(m, budget, np.maximum(top, R), log=np.log))
    return green, err, escaped


def __getattr__(name):
    """potential.phi_product and potential.phi_tail_bound still resolve: to
    boettcher's, loaded on first access (PEP 562) as by the first refinement."""
    if name in ("phi_product", "phi_tail_bound"):
        from . import boettcher
        return getattr(boettcher, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GreenValue", "OrbitClassification", "classify_point", "green_plus",
    "green_minus", "crude_green_plus", "green_plus_grid",
    "sample_escaping_points",
    "DEFAULT_BUDGET", "DEFAULT_TARGET_ERROR", "ESCAPED_FORWARD", "BOUNDED",
]
