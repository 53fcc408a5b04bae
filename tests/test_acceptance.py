"""Acceptance gate: the eleven quantitative criteria.

Each test emits one PASS/FAIL line (visible with -v via the test outcome,
and the measured detail is printed for the record).  Criteria 1-10 call
the shared invariant-suite functions; criterion 11 runs the CLI selftest
in a subprocess and requires exit code 0.
"""

import subprocess
import sys

import pytest

from henonlab import selfcheck


def _run(fn):
    res = fn()
    line = f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
    print(line)
    assert res.passed, line


def test_criterion_01_functorial_law():
    """|G+(Hz) - d G+(z)| within 2x reported error bounds and 1e-7,
    1000 escaping points for (y^2, a=3) and (y^3, a=9)."""
    _run(selfcheck.check_functorial_law)


def test_criterion_02_boettcher_equation():
    """|phi(Hz) - phi(z)^d| / |phi(z)|^d < 1e-9 on V_2R+ with phi from
    30-digit phi_mp, and |log|phi| - G+| < 1e-8 on V_R+."""
    _run(selfcheck.check_boettcher_equation)


def test_criterion_03_symmetry_counts():
    """k = 1, 8, 3 exactly for the three reference maps, each symmetry
    verified by exact polynomial composition."""
    _run(selfcheck.check_symmetry_counts)


def test_criterion_04_green_invariance():
    """max |G+(L z) - G+(z)| < 1e-7 over 200 samples per map."""
    _run(selfcheck.check_green_invariance)


def test_criterion_05_lift_derivation():
    """Both Q strategies: |A_j| < 1e-9 for (y^3, 9); A_0 agreement within
    1e-8 and A_1 = 0 for (y^2, 3); monic degree d+1, no zeta^d term."""
    _run(selfcheck.check_lift_derivation)


def test_criterion_06_semiconjugacy():
    """Depth-matched residual < 1e-6 at 10 points, 200-digit precision."""
    _run(selfcheck.check_semiconjugacy)


def test_criterion_07_deck_layer():
    """Group law and commutation within 1e-10 for d in {2,3}, denominators
    <= d^3; the (d/a) first-coordinate variant fails by margin > 1."""
    _run(selfcheck.check_deck_layer)


def test_criterion_08_lift_algebra():
    """push-minus o push-plus adds (1 - d/a) c_alpha exactly; iterate
    matches n-fold push for n = 10; c_{alpha^d} = c_alpha for d in {2,3,4}."""
    _run(selfcheck.check_lift_algebra)


def test_criterion_09_ring_units():
    """Unit criterion == brute-force inverse search for d in {2,6,12},
    |m| <= 500, k <= 4; decompositions multiply additively; t(d) = 1."""
    _run(selfcheck.check_ring_units)


def test_criterion_10_grid_sampling():
    """256x256 slice of (y^2, 3), c=1: byte-identical export, sub-level
    nesting, >= 99% functorial containment, formats cross-agree."""
    _run(selfcheck.check_grid_sampling)


def test_criterion_11_selftest_exit_code():
    """`henonlab selftest` exits 0, encapsulating criteria 1-10."""
    proc = subprocess.run(
        [sys.executable, "-m", "henonlab.cli", "selftest"],
        capture_output=True, text=True, timeout=300)
    print(proc.stdout)
    line = f"{'PASS' if proc.returncode == 0 else 'FAIL'} selftest exit {proc.returncode}"
    print(line)
    assert proc.returncode == 0, proc.stdout + proc.stderr
