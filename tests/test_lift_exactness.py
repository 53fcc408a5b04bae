"""The one exactness rule of the lift layer: the field helper and support
rule of henonlab._exact, the formal Q (one residue per coefficient)
against the factor chain and pivoting solver it replaced (truncated
Laurent series built on maps.Poly2) and against closed forms, the Fourier
fit against the formal Q and the closed forms, exact normalization, and
the exact k' count."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from henonlab import (HenonMap, classify_aut1, derive_lift_polynomial,
                      estimate_filtration_radius, normalize, poly_map_of)
from henonlab import boettcher
from henonlab._exact import QC, as_exact, field, is_zero, support, zero_of
from henonlab.boettcher import LiftPolynomial
from henonlab.covering import compute_L_prime
from henonlab.errors import InconsistencyError
from henonlab.maps import Poly2


# -- field and support -------------------------------------------------------

def test_field_is_exact_only_when_every_value_is():
    assert field([1, Fraction(1, 3), QC(0, 2)]) == [QC(1), QC(Fraction(1, 3)), QC(0, 2)]
    assert all(isinstance(v, QC) for v in field([1, Fraction(1, 3)]))
    mixed = field([1, Fraction(1, 3), 0.5])
    assert mixed == [1 + 0j, 1 / 3 + 0j, 0.5 + 0j]
    assert all(type(v) is complex for v in mixed)
    assert field([]) == []


def test_zero_of_follows_the_field():
    assert isinstance(zero_of(QC(2)), QC) and is_zero(zero_of(QC(2)))
    assert type(zero_of(2.0j)) is float and zero_of(2.0j) == 0.0


def test_support_exact_values_have_no_threshold():
    assert support([0, Fraction(1, 10 ** 30), QC(0, 0)], 1e-9) == [1]
    assert support([0.0, 1e-30, 1e-3], 1e-9) == [2]
    # a mixed list is inexact as a whole, so a tiny exact entry is cut
    assert support([Fraction(1, 10 ** 30), 1e-3], 1e-9) == [1]


# -- truncated Laurent series, on the sparse polynomial type of maps ----------

def _trunc(s: Poly2, dmin: int) -> Poly2:
    """s without its terms of grade i + m below dmin."""
    return Poly2({k: v for k, v in s.terms.items() if k[0] + k[1] >= dmin})


def _mul(dmin: int, *factors) -> Poly2:
    """The product of factors truncated below grade dmin after each
    multiplication; each grade g of the left operand meets only the terms
    of grade >= dmin - g of the right one.  Exact when every factor has all
    grades <= 0 (valid on |x| <= |y|, |y| large)."""
    out = factors[0]
    for f in factors[1:]:
        layers = {}
        for (i, m), v in out.terms.items():
            layers.setdefault(i + m, {})[(i, m)] = v
        out = sum((Poly2(t) * _trunc(f, dmin - g) for g, t in layers.items()), Poly2())
    return out


def _binomial_pow(base: Poly2, r, dmin: int) -> Poly2:
    """(1 + u)^r below grade dmin for base = 1 + u with every grade of u at
    most -1; the binomial series ends at order -dmin, as u^k has top grade
    <= -k."""
    u = base - 1
    assert all(i + m <= -1 for i, m in u.terms), base
    out = upow = Poly2({(0, 0): 1})
    coef = Fraction(1)
    for k in range(1, -dmin + 1):
        coef = coef * (r - (k - 1)) / k
        upow = _mul(dmin, upow, u)
        if not upow.terms:
            break
        out = out + coef * upow
    return out


def _mono(i: int, m: int) -> Poly2:
    return Poly2({(i, m): 1})


def test_series_mul_truncates_at_dmin():
    s, t = Poly2({(0, -1): 1.0}), Poly2({(1, -3): 2.0})   # y^-1 and 2 x y^-3
    assert _mul(-4, s, t).terms == {(1, -4): 2.0}
    assert _mul(-2, s, t).terms == {}


def test_series_binomial_pow_matches_square():
    base = 1 + Poly2({(0, -1): 0.5, (1, -2): -0.25})
    assert _binomial_pow(base, 2, -6).approx_eq(_mul(-6, base, base), 1e-15)


# -- the parent's factor chain and pivoting solver, kept as an oracle ---------

def _phi_factor_bases(m: HenonMap, dmin: int):
    """Bases (1 + u_j, d^{j+1}) with phi = y * prod (1+u_j)^{1/d^{j+1}}.

    Uses y_j = y^{d^j} Y_j, x_j = y^{d^{j-1}} Y_{j-1} with Y_0 = 1,
    Y_{j+1} = Y_j^d (1 + u_j); all series have grades <= 0.
    """
    d = m.d
    a, *coeffs = field([m.a, *m.coeffs])

    one = Poly2({(0, 0): 1})
    # u_0 = sum a_k y^{k-d} - a x y^{-d}
    u0 = Poly2({**{(0, k - d): c for k, c in enumerate(coeffs)}, (1, -d): -a})
    bases = [(one + u0, d)]
    Yprev, Ycur = one, one + u0
    for j in range(1, 60):
        uj = Poly2()
        for k, c in enumerate(coeffs):
            e = d ** j * (k - d)
            if e >= dmin and not is_zero(c):
                uj = uj + c * _mul(dmin, _binomial_pow(Ycur, k - d, dmin), _mono(0, e))
        e2 = -(d ** (j - 1)) * (d * d - 1)
        if e2 >= dmin:
            uj = uj - a * _mul(dmin, Yprev, _binomial_pow(Ycur, -d, dmin), _mono(0, e2))
        if not uj.terms:
            break
        bases.append((one + uj, d ** (j + 1)))
        Yprev, Ycur = Ycur, _mul(dmin, *[Ycur] * d, one + uj)
    return bases


def _f_power(bases, k: int, dmin: int):
    """F^k where phi = y*F, as prod (1+u_j)^{k/d^{j+1}}."""
    return _mul(dmin, *(_binomial_pow(base, Fraction(k, denom), dmin) for base, denom in bases))


def _solve_overdetermined(rows, nunk, exact):
    """Gauss-Jordan with consistency check of the leftover rows."""
    work = [list(r) for r in rows]
    used = set()
    row_of_col = {}
    for col in range(nunk):
        best, best_mag = None, 0.0
        for ri, r in enumerate(work):
            if ri in used or is_zero(r[col]):
                continue
            mag = abs(complex(r[col]))
            if exact:
                best = ri
                break
            if mag > best_mag:
                best, best_mag = ri, mag
        if best is None:
            raise AssertionError(f"no condition determines A_{col + 1}")
        used.add(best)
        row_of_col[col] = best
        pr = work[best]
        piv = pr[col]
        if exact and not isinstance(piv, QC):
            piv = QC(piv)
        inv = (QC(1) / piv) if isinstance(piv, QC) else 1.0 / piv
        work[best] = [inv * v for v in pr]
        for ri, r in enumerate(work):
            if ri == best or is_zero(r[col]):
                continue
            f = r[col]
            work[ri] = [rv - f * pv for rv, pv in zip(r, work[best])]
    sol = [work[row_of_col[c]][nunk] for c in range(nunk)]
    scale = max((abs(complex(v)) for r in rows for v in r), default=1.0)
    for ri, r in enumerate(work):
        if ri in used:
            continue
        resid = max((abs(complex(v)) for v in r), default=0.0)
        if (exact and resid != 0.0) or (not exact and resid > 1e-9 * max(scale, 1.0)):
            raise InconsistencyError(f"formal conditions inconsistent: residual {resid:.2e}")
    return sol


def _oracle_q(m: HenonMap, truncation):
    d = m.d
    dmin = -(d + 4) if truncation is None else -abs(truncation)
    exact = m.exact
    bases = _phi_factor_bases(m, dmin)
    if exact:
        a = as_exact(m.a)
        a_scaled = a * (1 + Fraction(1, d))
        coeffs = [as_exact(c) for c in m.coeffs]
    else:
        a = complex(m.a)
        a_scaled = a * (1 + 1.0 / d)
        coeffs = [complex(c) for c in m.coeffs]
    E0 = Poly2({(0, d + 1): 1, **{(0, j + 1): c for j, c in enumerate(coeffs)},
                (1, 1): -a_scaled})
    E0 = E0 - _mul(dmin, _f_power(bases, d + 1, dmin), _mono(0, d + 1))
    G = {k: _mul(dmin, _f_power(bases, k, dmin), _mono(0, k)) for k in range(1, d)}
    keys = set(E0.terms)
    for g in G.values():
        keys |= set(g.terms)
    keys = sorted(k for k in keys if k[1] * d + k[0] > 0)
    nunk = d - 1
    rows = [[G[k + 1].terms.get(key, 0) for k in range(nunk)] + [E0.terms.get(key, 0)]
            for key in keys]
    sol = _solve_overdetermined(rows, nunk, exact)
    return LiftPolynomial(d, (QC(0) if exact else 0.0, *sol))


def _seeded_maps(count: int, exact: bool, seed: int, top: int = 9, degrees: int = 5):
    """count maps of degree 2 .. degrees+1, coefficients and a up to top."""
    rng = random.Random(seed)

    def scalar():
        if exact:
            re = Fraction(rng.randint(-top, top), rng.randint(1, 5))
            im = Fraction(rng.randint(-top, top), rng.randint(1, 5)) if rng.random() < 0.4 else 0
            return QC(re, im) if im or rng.random() < 0.5 else re
        return complex(rng.uniform(-top / 3, top / 3), rng.uniform(-top / 3, top / 3))

    out = []
    for i in range(count):
        d = 2 + i % degrees
        a = scalar()
        out.append(HenonMap(d, a if not is_zero(a) else 3,
                            tuple(scalar() if rng.random() < 0.7 else 0 for _ in range(d - 1))))
    return out


def test_formal_q_matches_pivoting_oracle():
    for m in _seeded_maps(30, True, 81) + _seeded_maps(30, False, 82):
        new = derive_lift_polynomial(m, "formal-series")
        for tr in (None, m.d, m.d + 8):
            old = _oracle_q(m, tr)
            if m.exact:
                assert new.A == old.A, (m, tr)
                assert [type(c) for c in new.A] == [QC] * m.d
            else:
                assert type(new.A[0]) is float and new.A[0] == 0.0
                assert all(type(c) is complex for c in new.A[1:])
                assert max(abs(complex(x) - complex(y)) for x, y in zip(new.A, old.A)) <= 1e-14


# -- the Fourier fit ---------------------------------------------------------

def test_fit_runs_at_needed_digits_and_matches_formal(monkeypatch):
    maps = _seeded_maps(24, True, 91, 10 ** 4, 7) + _seeded_maps(24, False, 92, 10 ** 4, 7)
    maps.append(HenonMap(40, 3, (1, *[0] * 37, 2)))  # p = y^40 + 2 y^38 + 1
    true_phi_mp = boettcher.phi_mp
    dps = []

    def counted_phi_mp(m, z, digits, *args):
        dps.append(digits)
        return true_phi_mp(m, z, digits, *args)

    monkeypatch.setattr(boettcher, "phi_mp", counted_phi_mp)
    reals = 0
    for m in maps:
        need = boettcher.fit_digits_needed(m.d, estimate_filtration_radius(m).R)
        formal = derive_lift_polynomial(m, "formal-series")
        dps.clear()
        fit = derive_lift_polynomial(m, "bigfloat-fit")
        # a real map walks one of each conjugate pair of samples
        real = not any(isinstance(c, complex) or as_exact(c) is not None and as_exact(c).im
                       for c in (m.a, *m.coeffs))
        reals += real
        assert dps == [need] * (m.d + 6 if real else 2 * m.d + 10), (m, need, dps)
        assert fit.A[0] == 0j and all(type(c) is complex for c in fit.A)
        assert not real or all(c.imag == 0.0 for c in fit.A), (m, fit.A)
        for x, y in zip(formal.A_complex, fit.A):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (m, x, y)
    assert reals == 4


def _real_maps(seed: int):
    """Seeded real maps of degree 2..7, one per coefficient type: int,
    Fraction, float and QC with imaginary part 0."""
    rng = random.Random(seed)
    kinds = (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
             lambda: rng.uniform(-3, 3), lambda: QC(Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    for d in range(2, 8):
        for scalar in kinds:
            a = scalar()
            yield HenonMap(d, 3 if is_zero(a) else a, tuple(scalar() for _ in range(d - 1)))


def test_phi_mp_commutes_with_conjugation_on_real_maps():
    # the fit's pairing of samples: phi(conj z) = conj phi(z) at every fit
    # angle on |y| = rho, y = -rho among them, where the winding k is not 0
    rng = random.Random(93)
    for m in _real_maps(94):
        assert all(isinstance(c, mp.mpf) for c in boettcher._mp_all((m.a, *m.coeffs), 53))
        R = estimate_filtration_radius(m).R
        dps = boettcher.fit_digits_needed(m.d, R)
        N = 2 * m.d + 10
        with mp.workdps(dps):
            rho = 1000 * mp.mpf(R)
            for n in range(N):
                y = rho * mp.expjpi(mp.mpf(2 * n) / N)
                for x in (mp.mpf(0), mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))):
                    f = boettcher.phi_mp(m, (x, y), dps)
                    g = boettcher.phi_mp(m, (mp.conj(x), mp.conj(y)), dps)
                    assert abs(g - mp.conj(f)) <= mp.mpf(10) ** (10 - dps) * abs(f), (m, n, x)


# -- closed forms ------------------------------------------------------------

def _gen_binomial(r: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= (r - i) / (i + 1)
    return out


def _closed_form_cases():
    """(map, A) for p = y^d + c, where Q = zeta^{d+1} - (c/d) zeta, and for
    p = y^d + b y^{d-2}, where A_{d-k} = -C(k/d, (k+1)/2) b^{(k+1)/2} / k for
    odd k and 0 for even k; d = 2..12, c and b int, Fraction and QC."""
    for d in range(2, 13):
        for c in (3, Fraction(-5, 7), QC(Fraction(1, 2), -2)):
            yield (HenonMap(d, 3, (c, *[0] * (d - 2))),
                   (0, -as_exact(c) / d, *[0] * (d - 2)))
            A = [0] * d
            for k in range(1, d, 2):
                n = (k + 1) // 2
                A[d - k] = -_gen_binomial(Fraction(k, d), n) * as_exact(c) ** n / k
            yield HenonMap(d, 3, (*[0] * (d - 2), c)), tuple(A)


def test_formal_q_matches_closed_forms():
    for m, A in _closed_form_cases():
        q = derive_lift_polynomial(m, "formal-series")
        assert q.A == A and all(type(c) is QC for c in q.A), (m, q.A, A)


def test_fit_q_matches_closed_forms():
    for m, A in _closed_form_cases():
        fit = derive_lift_polynomial(m, "bigfloat-fit")
        for x, y in zip(fit.A, A):
            assert abs(x - complex(y)) <= 1e-12 * max(1.0, abs(complex(y))), (m, x, y)


# -- normalization -----------------------------------------------------------

def _qc(re, im=0):
    return QC(Fraction(re), Fraction(im))


NORMALIZE_CASES = [
    (([1, 4, 2], 3),
     (_qc(3), (_qc(6),), _qc(Fraction(1, 2)), _qc(-1), _qc(2), _qc(2))),
    (([0, 0, 3, Fraction(1, 4)], QC(1, 2)),
     (_qc(1, 2), (_qc(20, 4), _qc(-12)), _qc(2), _qc(-4), _qc(Fraction(1, 2)), _qc(2))),
    (([QC(1, 1), 0, 5, 0, 1], 2),
     (_qc(2), (_qc(1, 1), _qc(0), _qc(5)), _qc(1), _qc(0), _qc(1), _qc(0))),
    (([Fraction(-2, 3), 1, QC(0, 1), Fraction(9, 4)], -1),
     (_qc(-1), (_qc(-1, Fraction(-178, 729)), _qc(Fraction(31, 27))),
      _qc(Fraction(2, 3)), _qc(0, Fraction(-4, 27)), _qc(Fraction(3, 2)),
      _qc(0, Fraction(2, 9)))),
]


@pytest.mark.parametrize("raw,expected", NORMALIZE_CASES, ids=["quad", "cubic", "quartic", "cubic-i"])
def test_exact_normalize_matches_fixed_expectation(raw, expected):
    m, conj = normalize(*raw)
    inv = conj.inverse()
    got = (m.a, m.coeffs, conj.scale, conj.shift, inv.scale, inv.shift)
    assert got == expected
    flat = (m.a, *m.coeffs, conj.scale, conj.shift, inv.scale, inv.shift)
    assert all(isinstance(v, QC) for v in flat)
    pinv = poly_map_of(m, inverse=True).first
    assert pinv.terms[(m.d, 0)] == 1 / m.a and all(isinstance(v, QC) for v in pinv.terms.values())


def test_normalize_with_irrational_root_is_complex_throughout():
    m, conj = normalize([1, 0, 2], 3)  # lam = 1/2
    assert isinstance(conj.scale, QC)
    m, conj = normalize([1, 0, 0, 2], 3)  # lam = 1/sqrt(2)
    assert type(conj.scale) is complex and type(m.a) is complex
    assert type(m.coeffs[0]) is complex
    assert m.coeffs[1] == 0.0  # an inexact coefficient below 1e-13 is flushed to 0.0


# -- k' under the support rule -----------------------------------------------

def test_tiny_exact_lift_coefficient_counts_as_nonzero():
    m = HenonMap(3, 9, (0, Fraction(1, 10 ** 12)))
    q = derive_lift_polynomial(m, "formal-series")
    assert q.A[2] == QC(Fraction(-1, 3 * 10 ** 12))
    assert q.nonzero_indices() == [2]
    assert len(compute_L_prime(q)) == 2
    assert classify_aut1(m, q).k_prime == 2


def test_tiny_inexact_lift_coefficient_counts_as_zero():
    q = LiftPolynomial(3, (0.0, 0j, -1e-12 + 0j))
    assert q.nonzero_indices() == []
    assert len(compute_L_prime(q)) == 8
