"""Invariant suite: ten quantitative checks wiring all modules together.

Each check returns a CheckResult and is used twice: by the CLI selftest
subcommand and by the acceptance test suite.  Tolerances are fixed here,
not configurable, so both entry points certify the same thing.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import as_exact
from .boettcher import LiftPolynomial, derive_lift_polynomial, phi, semiconjugacy_residual
from .covering import (FiberAffineMap, RootOfUnity, c_alpha, deck_compose, deck_eval,
                       deck_rational, fiber_compose, fiber_invert, henon_lift, push,
                       push_iterated)
from .dyadic import (RingElem, brute_force_inverse, subgroup_membership,
                     unit_decompose)
from .grid import STATUS_OMEGA_PRIME, SliceSpec, export_bytes, sample_slice
from .maps import FiltrationRadius, HenonMap, estimate_filtration_radius, evaluate
from .potential import green_plus, green_plus_grid, sample_escaping_points
from .symmetry import (detect_linear_symmetries, symbolic_symmetry_check,
                       verify_rigidity_family)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _map_quadratic() -> HenonMap:
    return HenonMap(2, 3, (0,))


def _map_cubic() -> HenonMap:
    return HenonMap(3, 9, (0, 0))


# -- 1: functorial law ------------------------------------------------------

def check_functorial_law() -> CheckResult:
    worst_rel, worst_abs = 0.0, 0.0
    for m, seed in ((_map_quadratic(), 101), (_map_cubic(), 102)):
        filt = estimate_filtration_radius(m)
        pts = sample_escaping_points(m, 1000, seed=seed, filtration=filt)
        for z in pts:
            g0 = green_plus(m, z, filtration=filt)
            g1 = green_plus(m, evaluate(m, z), filtration=filt)
            diff = abs(g1.value - m.d * g0.value)
            budget = 2.0 * (g1.error_bound + m.d * g0.error_bound)
            worst_rel = max(worst_rel, diff - budget)
            worst_abs = max(worst_abs, diff)
    ok = worst_rel <= 0.0 and worst_abs < 1e-7
    return CheckResult(
        "functorial-law",
        ok,
        f"2000 escaping points; max |G+(Hz)-d*G+(z)| = {worst_abs:.2e} "
        f"(tol 1e-7), bound slack {worst_rel:.2e}")


# -- 2: Boettcher equation --------------------------------------------------

def check_boettcher_equation() -> CheckResult:
    worst_rel, worst_log = 0.0, 0.0
    for m, seed in ((_map_quadratic(), 201), (_map_cubic(), 202)):
        filt = estimate_filtration_radius(m)
        filt2 = FiltrationRadius(2 * filt.R)
        rng = random.Random(seed)
        for _ in range(100):
            r = 2 * filt.R + rng.uniform(0.5, 6.0)
            y = cmath.rect(r, rng.uniform(0, 2 * math.pi))
            x = cmath.rect(r * rng.random(), rng.uniform(0, 2 * math.pi))
            z = (x, y)
            pv = phi(m, z, filtration=filt2)
            pv2 = phi(m, evaluate(m, z), filtration=filt2)
            worst_rel = max(worst_rel,
                            abs(pv2.value - pv.value ** m.d) / abs(pv.value) ** m.d)
            g = green_plus(m, z, filtration=filt)
            worst_log = max(worst_log, abs(math.log(abs(pv.value)) - g.value))
    ok = worst_rel < 1e-9 and worst_log < 1e-8
    return CheckResult(
        "boettcher-equation",
        ok,
        f"200 points in V_2R+, phi from 30-digit phi_mp: max relative phi-equation "
        f"residual {worst_rel:.2e} "
        f"(tol 1e-9), max |log|phi| - G+| = {worst_log:.2e} (tol 1e-8)")


_SYMMETRY_CASES = (
    (HenonMap(2, 3, (1,)), 1),        # p = y^2 + 1
    (HenonMap(3, 9, (0, 0)), 8),      # p = y^3
    (HenonMap(4, 16, (0, 1, 0)), 3),  # p = y^4 + y
)


# -- 3: symmetry counts -----------------------------------------------------

def check_symmetry_counts() -> CheckResult:
    """The closed-form group against exact composition at every exponent:
    members must pass symbolic_symmetry_check and non-members fail it."""
    got, checked, mismatched = [], 0, 0
    for m, expected in _SYMMETRY_CASES:
        group = detect_linear_symmetries(m)
        for e in range(group.modulus):
            mismatched += (e in group.exponents) != symbolic_symmetry_check(m, e)
        checked += group.modulus
        got.append((group.order, expected))
    ok = all(o == e for o, e in got) and not mismatched
    return CheckResult(
        "symmetry-counts", ok,
        "orders " + ", ".join(f"{o} (want {e})" for o, e in got)
        + f"; closed form vs symbolic composition at all {checked} exponents: "
        f"{mismatched} disagree (need 0)")


# -- 4: Green invariance ----------------------------------------------------

def check_green_invariance() -> CheckResult:
    worst = max(verify_rigidity_family(m, 0, samples=200, seed=400 + i)
                for i, (m, _) in enumerate(_SYMMETRY_CASES))
    return CheckResult(
        "green-invariance", worst <= 0.0,
        f"max of |G+(L z) - G+(z)| less the sum of both error bounds over 200 "
        f"samples/map = {worst:.2e} (need <= 0)")


# -- 5: Q derivation --------------------------------------------------------

def check_lift_derivation() -> CheckResult:
    m3 = _map_cubic()
    qf3 = derive_lift_polynomial(m3, "formal-series")
    qn3 = derive_lift_polynomial(m3, "bigfloat-fit")
    cubic_ok = all(abs(c) < 1e-9 for c in qf3.A_complex) and \
        all(abs(c) < 1e-9 for c in qn3.A_complex)
    m2 = _map_quadratic()
    qf2 = derive_lift_polynomial(m2, "formal-series")
    qn2 = derive_lift_polynomial(m2, "bigfloat-fit")
    quad_ok = abs(complex(qf2.A[1])) < 1e-12 and \
        abs(complex(qf2.A[0]) - complex(qn2.A[0])) < 1e-8
    shape_ok = all(len(q.A) == q.d for q in (qf3, qn3, qf2, qn2))
    ok = cubic_ok and quad_ok and shape_ok
    return CheckResult(
        "lift-derivation", ok,
        f"(y^3,9): max|A| formal {max(abs(c) for c in qf3.A_complex):.1e}, "
        f"fit {max(abs(c) for c in qn3.A_complex):.1e}; "
        f"(y^2,3): A1 = {abs(complex(qf2.A[1])):.1e}, "
        f"A0 agreement {abs(complex(qf2.A[0]) - complex(qn2.A[0])):.1e}; "
        f"all monic deg d+1, no zeta^d term")


# -- 6: semiconjugacy -------------------------------------------------------

def check_semiconjugacy() -> CheckResult:
    m = _map_cubic()
    q = derive_lift_polynomial(m, "formal-series")
    filt = estimate_filtration_radius(m)
    rng = random.Random(600)
    pts = []
    while len(pts) < 10:
        y = cmath.rect(rng.uniform(5.0, 9.0), rng.uniform(0, 2 * math.pi))
        x = cmath.rect(rng.uniform(0, 4.0), rng.uniform(0, 2 * math.pi))
        if abs(y) >= max(abs(x), filt.R):
            pts.append((x, y))
    res = semiconjugacy_residual(m, q, pts, depth=3, precision_digits=200,
                                 filtration=filt)
    ok = res < 1e-6
    return CheckResult(
        "semiconjugacy", ok,
        f"10 points, depth 3, 200 digits: residual {res:.2e} (tol 1e-6)")


# -- 7: deck layer ----------------------------------------------------------

def check_deck_layer() -> CheckResult:
    details = []
    ok = True
    for m in (_map_quadratic(), _map_cubic()):
        d, a = m.d, complex(m.a)
        q = derive_lift_polynomial(m, "formal-series")
        rng = random.Random(700 + d)

        def wrong_lift(point):  # the (d/a) convention, which must fail
            return ((d / a) * point[0] + q.q_eval(point[1]), point[1] ** d)

        worst_comm, worst_grp, bad_margin = 0.0, 0.0, 0.0
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            zeta = cmath.rect(rng.uniform(1.1, 1.25), rng.uniform(0, 2 * math.pi))
            n = rng.randint(1, 3)
            k = rng.randrange(1, d ** n)
            r = deck_rational(k, n, d)
            r_shift = deck_rational(k * d, n, d)
            lhs = henon_lift(deck_eval(r, (z, zeta), q, a), q, a)
            rhs = deck_eval(r_shift, henon_lift((z, zeta), q, a), q, a)
            worst_comm = max(worst_comm, abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1]))
            lhs_b = wrong_lift(deck_eval(r, (z, zeta), q, a))
            rhs_b = deck_eval(r_shift, wrong_lift((z, zeta)), q, a)
            bad_margin = max(bad_margin, abs(lhs_b[0] - rhs_b[0]))
            r2 = deck_rational(rng.randrange(0, d ** 3), 3, d)
            one = deck_eval(deck_compose(r, r2), (z, zeta), q, a)
            two = deck_eval(r, deck_eval(r2, (z, zeta), q, a), q, a)
            worst_grp = max(worst_grp, abs(one[0] - two[0]), abs(one[1] - two[1]))
        ok = ok and worst_comm < 1e-10 and worst_grp < 1e-10 and bad_margin > 1.0
        details.append(
            f"d={d}: commutation {worst_comm:.1e}, group law {worst_grp:.1e}, "
            f"(d/a)-variant fails by {bad_margin:.2f}")
    return CheckResult("deck-layer", ok, "; ".join(details) + " (tol 1e-10, margin > 1)")


# -- 8: lift algebra --------------------------------------------------------

def _gamma_eq(x, y) -> bool:
    """Exact comparison for exact scalar types, 1e-12 for inexact ones."""
    ex, ey = as_exact(x), as_exact(y)
    if ex is not None and ey is not None:
        return ex == ey
    return abs(complex(x) - complex(y)) < 1e-12


def check_lift_algebra() -> CheckResult:
    ok = True
    notes = []
    rng = random.Random(800)
    for d, a in ((2, 3), (3, 9), (4, 16)):
        M = d * d - 1
        A = [Fraction(0)] * d
        A[0] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        q = LiftPolynomial(d, tuple(A))
        for e in range(M):
            alpha = RootOfUnity(e, M)
            # c-invariance under alpha -> alpha^d; values are built from the
            # same canonical exponent so this holds identically
            ok = ok and complex(c_alpha(alpha, q)) == complex(c_alpha(RootOfUnity(d * e, M), q))
            f = FiberAffineMap(d, alpha, Fraction(rng.randint(-9, 9), 2))
            # minus o plus adds exactly (1 - d/a) c_alpha
            g = push(push(f, "plus", q, a), "minus", q, a)
            shift = g.gamma - f.gamma
            expected = (1 - Fraction(d, a)) * c_alpha(alpha, q)
            ok = ok and g.alpha.e == ((d * d % M) * e) % M and _gamma_eq(shift, expected)
            # closed-form iterate vs 10 explicit pushes
            h = f
            for _ in range(10):
                h = push(h, "minus", q, a)
            hc = push_iterated(f, "minus", 10, q, a)
            ok = ok and _gamma_eq(h.gamma, hc.gamma) and h.alpha == hc.alpha
        # group structure spot check (float roots at non-quarter angles)
        f = FiberAffineMap(d, RootOfUnity(1, M), Fraction(7, 3))
        ident = fiber_compose(f, fiber_invert(f))
        ok = ok and ident.alpha.e == 0 and abs(complex(ident.gamma)) < 1e-12
        notes.append(f"d={d} exact")
    return CheckResult("lift-algebra", ok, ", ".join(notes) +
                       "; push round trip, closed-form iterate, c-invariance all exact")


# -- 9: Z[1/d] units --------------------------------------------------------

def check_ring_units() -> CheckResult:
    ok = True
    counts = []
    for d in (2, 6, 12):
        n_units = 0
        for mnum in range(-500, 501):
            if mnum == 0:
                continue
            for k in range(5):
                x = RingElem(d, mnum, k)
                is_unit = unit_decompose(x) is not None
                brute = brute_force_inverse(x, 500 * 500, 8) is not None
                if is_unit != brute:
                    ok = False
                n_units += is_unit
        # decompositions multiply additively
        rng = random.Random(900 + d)
        for _ in range(50):
            u1 = unit_decompose(RingElem(d, d ** rng.randint(0, 3) *
                                         (1 if rng.random() < 0.5 else -1),
                                         rng.randint(0, 3)))
            u2 = unit_decompose(RingElem(d, d ** rng.randint(0, 3), rng.randint(0, 3)))
            prod = unit_decompose(u1.value() * u2.value())
            both = u1 * u2
            if prod.sign != both.sign or prod.exponents != both.exponents:
                ok = False
        t = subgroup_membership(unit_decompose(RingElem(d, d, 0)))
        if t != 1:
            ok = False
        counts.append(f"d={d}")
    return CheckResult(
        "ring-units", ok,
        "unit criterion == brute-force inverse search for all |m|<=500, k<=4, " +
        ", ".join(counts) + "; multiplicativity and t(d)=1 hold")


# -- 10: short-C2 grid ------------------------------------------------------

def _acceptance_slice() -> SliceSpec:
    return SliceSpec(origin=(0, 0), span_u=(1, 0), span_v=(0, 1),
                     grid_w=256, grid_h=256, extent=(3.0, 3.0))


def check_grid_sampling() -> CheckResult:
    m = _map_quadratic()
    filt = estimate_filtration_radius(m)
    spec = _acceptance_slice()
    g1 = sample_slice(m, spec, 1.0, budget=200, filtration=filt)
    g2 = sample_slice(m, spec, 1.0, budget=200, filtration=filt)
    ghalf = sample_slice(m, spec, 0.5, budget=200, filtration=filt)

    digests = {}
    deterministic = True
    for fmt in ("csv", "pgm", "json"):
        b1, b2 = export_bytes(g1, fmt), export_bytes(g2, fmt)
        deterministic = deterministic and b1 == b2
        digests[fmt] = hashlib.sha256(b1).hexdigest()[:12]

    inside_half = ghalf.green < 0.5
    inside_full = g1.green < 1.0
    nested = bool(np.all(inside_full[inside_half]))

    # functorial containment of the punctured sub-level set
    mask = g1.status == STATUS_OMEGA_PRIME
    us, vs = np.meshgrid(g1.us, g1.vs)
    X = us[mask].astype(np.complex128)
    Y = vs[mask].astype(np.complex128)
    gh, _, esc = green_plus_grid(m, *evaluate(m.doubles, (X, Y)), budget=200, filtration=filt)
    frac = float(np.mean(esc & (gh < m.d * 1.0))) if mask.any() else 1.0

    # cross-format agreement
    csv_lines = export_bytes(g1, "csv").decode().strip().split("\r\n")[1:]
    csv_green = np.array([float(line.split(",")[2]) for line in csv_lines])
    import json as _json
    doc = _json.loads(export_bytes(g1, "json"))
    json_green = np.array(doc["greenPlus"])
    pgm = export_bytes(g1, "pgm")
    header_end = pgm.index(b"65535\n") + 6
    pgm_pix = np.frombuffer(pgm[header_end:], dtype=">u2").astype(float)
    expect_pix = np.round(np.clip(g1.green.ravel() / 1.0, 0, 1) * 65535.0)
    cross = bool(np.array_equal(csv_green, g1.green.ravel()) and
                 np.array_equal(json_green, g1.green.ravel()) and
                 np.array_equal(pgm_pix, expect_pix))

    ok = deterministic and nested and frac >= 0.99 and cross
    return CheckResult(
        "grid-sampling", ok,
        f"256x256 slice: byte-deterministic {deterministic} "
        f"(sha256/12 {digests}); nesting {nested}; "
        f"functorial containment {100 * frac:.2f}% (need >= 99%); "
        f"formats cross-agree {cross}")


ALL_CHECKS = (
    check_functorial_law,
    check_boettcher_equation,
    check_symmetry_counts,
    check_green_invariance,
    check_lift_derivation,
    check_semiconjugacy,
    check_deck_layer,
    check_lift_algebra,
    check_ring_units,
    check_grid_sampling,
)


def run_all(printer=print) -> bool:
    all_ok = True
    for fn in ALL_CHECKS:
        t0 = time.perf_counter()
        res = fn()
        all_ok = all_ok and res.passed
        printer(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail} "
                f"({time.perf_counter() - t0:.2f} s)")
    return all_ok
