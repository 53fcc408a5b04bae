"""Command-line front end.

Subcommands: classify, green, boettcher, derive-q, symmetries,
lift (push|iterate|deck), units, slice, selftest.

Exit codes: 0 success, 2 bad arguments or environment, 3 domain error,
4 precision error, 5 selftest failure.  All outputs are single-line JSON
with stable key order; complex numbers are emitted as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from fractions import Fraction

from .boettcher import LiftPolynomial, derive_lift_polynomial, phi
from .covering import (FiberAffineMap, RootOfUnity, deck_eval, deck_rational,
                       push, push_iterated)
from .dyadic import RingElem, subgroup_membership, unit_decompose
from .errors import DomainError, HenonLabError, PrecisionError
from .grid import SliceSpec, export_grid, sample_slice
from .maps import HenonMap, normalize
from .potential import classify_point, green_minus, green_plus
from .symmetry import classify_aut1, detect_linear_symmetries


# ---------------------------------------------------------------------------
# Parsing helpers (one canonical parser shared by all subcommands)
# ---------------------------------------------------------------------------

class UsageError(Exception):
    """Bad argument or input syntax; mapped to exit code 2."""


def _finite(z, v):
    if isinstance(z, int) or cmath.isfinite(z):
        return z
    raise UsageError(f"not a finite number: {v!r}")


def parse_scalar(v):
    """Number, [re, im] pair, or 're+imi' string -> int/float/complex.

    inf and nan, in any spelling or from overflow such as 1e400, are rejected.
    """
    if isinstance(v, bool):
        raise UsageError(f"not a number: {v!r}")
    if isinstance(v, (int, float)):
        return _finite(v, v)
    if isinstance(v, (list, tuple)):
        if len(v) != 2 or not all(isinstance(t, (int, float)) for t in v):
            raise UsageError(f"complex pair must be [re, im]: {v!r}")
        return _finite(v[0] if v[1] == 0 else complex(v[0], v[1]), v)
    if isinstance(v, str):
        s = v.strip().replace(" ", "")
        try:
            if s.endswith(("i", "I", "j", "J")):
                z = complex(s[:-1] + "j")
            else:
                z = complex(s)
        except ValueError:
            raise UsageError(f"cannot parse complex number {v!r}") from None
        _finite(z, v)
        if z.imag == 0:
            return int(z.real) if z.real == int(z.real) else z.real
        return z
    raise UsageError(f"cannot parse number {v!r}")


def parse_map(spec: str) -> HenonMap:
    """Inline JSON (starts with '{') or path to a JSON map file.

    {"d": D, "p": [...], "a": ...}: a p of length d+1 is a full low-to-high
    coefficient list (normalized first); length d-1 gives the centered
    tail a_0..a_{d-2} directly.
    """
    text = spec.strip()
    if not text.startswith("{"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read map file {spec!r}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid map JSON: {exc}") from None
    if not isinstance(doc, dict) or "d" not in doc or "p" not in doc or "a" not in doc:
        raise UsageError('map JSON needs keys "d", "p", "a"')
    d = doc["d"]
    if not isinstance(d, int) or d < 2:
        raise UsageError(f"degree d must be an integer >= 2, got {d!r}")
    a = parse_scalar(doc["a"])
    if not isinstance(doc["p"], list):
        raise UsageError('"p" must be a coefficient list')
    p = [parse_scalar(c) for c in doc["p"]]
    try:
        if len(p) == d + 1:
            m, _ = normalize(p, a)
            return m
        if len(p) == d - 1:
            return HenonMap(d, a, tuple(p))
    except HenonLabError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError(
        f'"p" must have length d+1 (full polynomial) or d-1 (centered tail), got {len(p)}')


def parse_point(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) != 2:
        raise UsageError(f"point must be 'x,y', got {s!r}")
    return (complex(parse_scalar(parts[0])), complex(parse_scalar(parts[1])))


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(", ", ": "), allow_nan=True) + "\n")


def _green_doc(g) -> dict:
    return {"value": g.value, "errorBound": g.error_bound, "method": g.method,
            "iterations": g.iterations, "budgetExhausted": g.budget_exhausted}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    m = parse_map(args.map)
    cls = classify_point(m, parse_point(args.point), budget=args.budget)
    _emit({"status": cls.status, "nExit": cls.n_exit,
           "greenPlus": _green_doc(cls.green_plus)})
    return 0


def cmd_green(args) -> int:
    m = parse_map(args.map)
    fn = green_minus if args.minus else green_plus
    g = fn(m, parse_point(args.point), target_error=args.target_error,
           budget=args.budget)
    _emit(_green_doc(g))
    return 0


def cmd_boettcher(args) -> int:
    m = parse_map(args.map)
    bv = phi(m, parse_point(args.point), truncation=args.trunc)
    _emit({"value": _c(bv.value), "truncation": bv.truncation,
           "errorBound": bv.error_bound})
    return 0


_STRATEGIES = {"formal": "formal-series", "fit": "bigfloat-fit"}


def cmd_derive_q(args) -> int:
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, _STRATEGIES[args.strategy], digits=args.digits)
    _emit({"d": q.d, "A": [_c(c) for c in q.A_complex],
           "strategy": _STRATEGIES[args.strategy]})
    return 0


def cmd_symmetries(args) -> int:
    m = parse_map(args.map)
    group = detect_linear_symmetries(m)
    q = derive_lift_polynomial(m, "formal-series")
    cls = classify_aut1(m, q)
    _emit({"k": cls.k, "kPrime": cls.k_prime, "case": cls.case,
           "kDividesKPrime": cls.k_divides_k_prime,
           "modulus": group.modulus, "exponents": list(group.exponents)})
    return 0


def _fiber_doc(f: FiberAffineMap) -> dict:
    return {"d": f.d, "e": f.alpha.e, "modulus": f.alpha.modulus,
            "beta": _c(f.beta), "gamma": _c(f.gamma)}


def _parse_gamma(s: str):
    if "/" in s and "i" not in s and "j" not in s:
        try:
            return Fraction(s)
        except ValueError:
            raise UsageError(f"cannot parse gamma {s!r}") from None
    return complex(parse_scalar(s))


def cmd_lift_push(args) -> int:
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, "formal-series")
    f = FiberAffineMap(m.d, RootOfUnity.for_degree(m.d, args.e),
                       _parse_gamma(args.gamma))
    _emit(_fiber_doc(push(f, args.direction, q, m.a)))
    return 0


def cmd_lift_iterate(args) -> int:
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, "formal-series")
    f = FiberAffineMap(m.d, RootOfUnity.for_degree(m.d, args.e),
                       _parse_gamma(args.gamma))
    _emit(_fiber_doc(push_iterated(f, args.direction, args.n, q, m.a)))
    return 0


def cmd_lift_deck(args) -> int:
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, "formal-series")
    r = deck_rational(args.k, args.n, m.d)
    z, zeta = parse_point(args.point)
    w = deck_eval(r, (z, zeta), q, complex(m.a))
    _emit({"k": r.k, "n": r.n, "d": r.d, "image": [_c(w[0]), _c(w[1])]})
    return 0


def cmd_units(args) -> int:
    s = args.elem.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            mnum, dval = int(num), int(den)
            if dval <= 0:
                raise ValueError
            k = 0
            while dval > 1:
                if dval % args.d:
                    raise UsageError(
                        f"denominator {den} is not a power of d={args.d}")
                dval //= args.d
                k += 1
        else:
            mnum, k = int(s), 0
    except ValueError:
        raise UsageError(f"--elem must be 'm' or 'm/d^k', got {args.elem!r}") from None
    x = RingElem(args.d, mnum, k)
    u = unit_decompose(x)
    if u is None:
        _emit({"unit": False})
        return 0
    t = subgroup_membership(u)
    _emit({"unit": True, "sign": u.sign, "exponents": list(u.exponents),
           "subgroupT": t})
    return 0


def cmd_slice(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read slice config {args.config!r}: {exc}") from None
    if not isinstance(doc, dict) or "map" not in doc or "slice" not in doc:
        raise UsageError('slice config needs keys "map" and "slice"')
    m = parse_map(json.dumps(doc["map"]))
    s = doc["slice"]
    try:
        spec = SliceSpec(
            origin=tuple(parse_scalar(v) for v in s["origin"]),
            span_u=tuple(parse_scalar(v) for v in s["spanU"]),
            span_v=tuple(parse_scalar(v) for v in s["spanV"]),
            grid_w=int(s["gridW"]), grid_h=int(s["gridH"]),
            extent=s.get("extent", 3.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid slice spec: {exc}") from None
    grid = sample_slice(m, spec, args.c, budget=doc.get("budget", 200))
    export_grid(grid, args.format, args.out)
    _emit({"out": args.out, "format": args.format,
           "gridW": spec.grid_w, "gridH": spec.grid_h, "c": args.c})
    return 0


def cmd_selftest(args) -> int:
    from .selfcheck import run_all
    return 0 if run_all() else 5


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _add_map(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", required=True,
                   help="map JSON file path or inline JSON "
                        '{"d":3,"p":[...],"a":...}')


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="henonlab",
        description="Escape-rate potentials, Boettcher coordinates, covering "
                    "algebra, and sub-level set sampling for complex Henon maps.")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="forward escape classification of a point")
    _add_map(p)
    p.add_argument("--point", required=True, help="'x,y' with complex entries re+imi")
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("green", help="forward (or backward) escape-rate potential")
    _add_map(p)
    p.add_argument("--point", required=True)
    p.add_argument("--minus", action="store_true", help="backward potential G-")
    p.add_argument("--target-error", type=float, default=1e-9)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("boettcher", help="Boettcher coordinate on V_R+")
    _add_map(p)
    p.add_argument("--point", required=True)
    p.add_argument("--trunc", type=int, default=20, help="product truncation J")
    p.set_defaults(fn=cmd_boettcher)

    p = sub.add_parser("derive-q", help="derive the lift polynomial Q")
    _add_map(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="formal")
    p.add_argument("--digits", type=int, default=80,
                   help="working precision for the fit strategy")
    p.set_defaults(fn=cmd_derive_q)

    p = sub.add_parser("symmetries", help="linear symmetries and classification")
    _add_map(p)
    p.set_defaults(fn=cmd_symmetries)

    p = sub.add_parser("lift", help="covering-space transformation algebra")
    lsub = p.add_subparsers(dest="lift_command", required=True)
    lp = lsub.add_parser("push", help="push a fiber-affine map through the lift")
    _add_map(lp)
    lp.add_argument("--e", type=int, required=True, help="root-of-unity exponent")
    lp.add_argument("--gamma", required=True, help="translation part (fraction or complex)")
    lp.add_argument("--direction", choices=("plus", "minus"), required=True)
    lp.set_defaults(fn=cmd_lift_push)
    lp = lsub.add_parser("iterate", help="closed-form n-fold push")
    _add_map(lp)
    lp.add_argument("--e", type=int, required=True)
    lp.add_argument("--gamma", required=True)
    lp.add_argument("--direction", choices=("plus", "minus"), default="minus")
    lp.add_argument("--n", type=int, required=True)
    lp.set_defaults(fn=cmd_lift_iterate)
    lp = lsub.add_parser("deck", help="evaluate the deck transformation gamma_{k/d^n}")
    _add_map(lp)
    lp.add_argument("--k", type=int, required=True)
    lp.add_argument("--n", type=int, required=True)
    lp.add_argument("--point", required=True, help="'z,zeta' with |zeta| > 1")
    lp.set_defaults(fn=cmd_lift_deck)

    p = sub.add_parser("units", help="unit test/decomposition in Z[1/d]")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--elem", required=True, help="'m' or 'm/d^k', e.g. 4/6")
    p.set_defaults(fn=cmd_units)

    p = sub.add_parser("slice", help="sample a 2-plane slice and export the grid")
    p.add_argument("--config", required=True, help="JSON run configuration file")
    p.add_argument("--c", type=float, required=True, help="potential level c > 0")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "pgm", "json"), required=True)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.set_defaults(fn=cmd_selftest)
    return root


def _check_threads_env() -> None:
    raw = os.environ.get("HENON_LAB_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"HENON_LAB_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise UsageError(f"HENON_LAB_THREADS must be >= 1, got {n}")


def _fail(code: int, kind: str, exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_threads_env()
        return args.fn(args)
    except UsageError as exc:
        return _fail(2, "usage", exc)
    except DomainError as exc:
        return _fail(3, "domain", exc)
    except PrecisionError as exc:
        return _fail(4, "precision", exc)
    except HenonLabError as exc:
        return _fail(3, "domain", exc)
    except OverflowError as exc:
        return _fail(3, "overflow", exc)
    except ValueError as exc:
        return _fail(2, "usage", exc)


if __name__ == "__main__":
    sys.exit(main())
