"""Command-line front end.

Subcommands: classify, green, boettcher, derive-q, symmetries,
lift (push|iterate|deck), units, slice, selftest.

Exit codes: 0 success, 2 bad arguments, 3 domain error,
4 precision error, 5 selftest failure.  All outputs are single-line JSON
with stable key order; complex numbers are emitted as [re, im] pairs.

A CLI process (`python -m henonlab.cli`, the `henonlab` script) ends in `run`:
atexit handlers run, stdout and stderr are flushed, `os._exit` skips the
interpreter teardown, and a write error on stdout is exit 2 with one JSON line.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

from ._exact import QC
from .errors import HenonLabError, PrecisionError
from .maps import HenonMap, normalize
from .potential import classify_point, green_minus, green_plus


# ---------------------------------------------------------------------------
# Parsing helpers (one canonical parser shared by all subcommands)
# ---------------------------------------------------------------------------

class UsageError(Exception):
    """Bad argument or input syntax; mapped to exit code 2."""


# 're+imi' -> (re, im): im starts at the last sign that does not follow an e
_PARTS = re.compile(r"(.*?)([+-]?(?:[^+-]|(?<=[eE])[+-])*)[iIjJ]")


def _real(t):
    """int or Fraction for an integer or 'p/q', float for any other real
    literal; a JSON number is read by its text, as a string is."""
    if isinstance(t, bool) or not isinstance(t, (int, float, str)):
        raise TypeError
    p, slash, q = str(t).partition("/")
    try:
        t = Fraction(int(p), int(q) if slash else 1)
    except ValueError:
        return float(t)
    return t.numerator if t.denominator == 1 else t


def parse_scalar(v):
    """Number, [re, im] pair, or 're+imi' string.  An integer or 'p/q' is exact
    (int or Fraction), and so is a pair or string of two such parts (QC); a part
    with a decimal point or an exponent makes a float or complex.  A zero
    imaginary part gives the real part alone.  inf, nan, 1e400 and q = 0 are refused."""
    parts = v if isinstance(v, (list, tuple)) else [v, 0]
    if isinstance(v, str):
        s = v.strip().replace(" ", "")
        s = s[1:-1] if s[:1] + s[-1:] == "()" else s
        m = _PARTS.fullmatch(s)
        parts = [s, 0] if m is None else [m[1] or 0, m[2] + "1" if m[2] in "+-" else m[2]]
    try:
        x, y = map(_real, parts)
        if not (isinstance(x, float) or isinstance(y, float)):
            return x if y == 0 else QC(x, y)
        z = complex(x, y)
        if cmath.isfinite(z):
            return z.real if z.imag == 0 else z
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    raise UsageError(f"cannot parse a finite number from {v!r}")


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
    try:
        return tuple(complex(parse_scalar(t)) for t in parts)
    except OverflowError:  # an exact coordinate past the float range
        raise UsageError(f"point is past the float range: {s!r}") from None


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _write(line: str) -> None:
    try:
        sys.stdout.write(line + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write to stdout: {exc}") from None


def _emit(doc: dict) -> None:
    try:
        line = json.dumps(doc, separators=(", ", ": "), allow_nan=False)
    except ValueError:  # a result past the float range is no result
        raise OverflowError("result is not finite") from None
    _write(line)


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
    from .boettcher import phi
    m = parse_map(args.map)
    bv = phi(m, parse_point(args.point))
    _emit({"value": _c(bv.value), "errorBound": bv.error_bound})
    return 0


_STRATEGIES = {"formal": "formal-series", "fit": "bigfloat-fit"}


def cmd_derive_q(args) -> int:
    from .boettcher import derive_lift_polynomial
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, _STRATEGIES[args.strategy])
    _emit({"d": q.d, "A": [_c(c) for c in q.A_complex],
           "strategy": _STRATEGIES[args.strategy]})
    return 0


def cmd_symmetries(args) -> int:
    from .boettcher import derive_lift_polynomial
    from .symmetry import classify_aut1, detect_linear_symmetries
    m = parse_map(args.map)
    group = detect_linear_symmetries(m)
    q = derive_lift_polynomial(m, "formal-series")
    cls = classify_aut1(m, q)
    _emit({"k": cls.k, "kPrime": cls.k_prime, "case": cls.case,
           "kDividesKPrime": cls.k_divides_k_prime,
           "modulus": group.modulus, "exponents": list(group.exponents)})
    return 0


def _fiber_doc(f) -> dict:
    return {"d": f.d, "e": f.alpha.e, "modulus": f.alpha.modulus,
            "beta": _c(f.beta), "gamma": _c(f.gamma)}


def cmd_lift_iterate(args) -> int:
    from .boettcher import derive_lift_polynomial
    from .covering import FiberAffineMap, RootOfUnity, push_iterated
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, "formal-series")
    gamma = parse_scalar(args.gamma)  # a float one as complex: push keeps its signed zeros
    f = FiberAffineMap(m.d, RootOfUnity.for_degree(m.d, args.e),
                       complex(gamma) if isinstance(gamma, float) else gamma)
    _emit(_fiber_doc(push_iterated(f, args.direction, args.n, q, m.a)))
    return 0


def cmd_lift_deck(args) -> int:
    from .boettcher import derive_lift_polynomial
    from .covering import deck_eval, deck_rational
    m = parse_map(args.map)
    q = derive_lift_polynomial(m, "formal-series")
    r = deck_rational(args.k, args.n, m.d)
    z, zeta = parse_point(args.point)
    w = deck_eval(r, (z, zeta), q, complex(m.a))
    _emit({"k": r.m, "n": r.k, "d": r.d, "image": [_c(w[0]), _c(w[1])]})
    return 0


def cmd_units(args) -> int:
    from .dyadic import ring_from_fraction, subgroup_membership, unit_decompose
    value = parse_scalar(args.elem)
    if not isinstance(value, (int, Fraction)):
        raise UsageError(f"--elem must be an integer or 'p/q', got {args.elem!r}")
    x = ring_from_fraction(args.d, value)
    if x is None:
        raise UsageError(f"{args.elem} is not in Z[1/{args.d}]")
    u = unit_decompose(x)
    _emit({"unit": False} if u is None else {"unit": True, "sign": u.sign,
          "exponents": list(u.exponents), "subgroupT": subgroup_membership(u)})
    return 0


def cmd_slice(args) -> int:
    from .grid import SliceSampler, SliceSpec, export_grid
    if not cmath.isfinite(args.c):
        raise UsageError(f"not a finite number: {args.c!r}")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read slice config {args.config!r}: {exc}") from None
    if not isinstance(doc, dict) or "map" not in doc or "slice" not in doc:
        raise UsageError('slice config needs keys "map" and "slice"')
    m = parse_map(doc["map"] if isinstance(doc["map"], str) else json.dumps(doc["map"]))
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
    budget = doc.get("budget", 200)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise UsageError(f"budget must be a non-negative integer, got {budget!r}")
    grid = SliceSampler(m, spec, args.c, budget=budget)  # each span is walked where it is formatted
    try:
        export_grid(grid, args.format, args.out)
    except OSError as exc:
        raise UsageError(str(exc)) from None
    _emit({"out": args.out, "format": args.format,
           "gridW": spec.grid_w, "gridH": spec.grid_h, "c": args.c})
    return 0


def cmd_selftest(args) -> int:
    from .selfcheck import run_all
    return 0 if run_all(_write) else 5


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _add_map(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", required=True,
                   help="map JSON file path or inline JSON "
                        '{"d":3,"p":[...],"a":...}')


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with one JSON line; subparsers inherit the class."""

    def error(self, message):
        if message.endswith("expected one argument"):
            message += "; join a value that starts with '-' to its option: --point=-1,2"
        raise SystemExit(_fail(2, "usage", UsageError(f"{self.prog}: {message}")))


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(
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
    p.add_argument("--target-error", type=float, default=1e-9,
                   help="tail-bound target of the refined G+ (--minus only checks it)")
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("boettcher", help="Boettcher coordinate on V_R+")
    _add_map(p)
    p.add_argument("--point", required=True)
    p.set_defaults(fn=cmd_boettcher)

    p = sub.add_parser("derive-q", help="derive the lift polynomial Q")
    _add_map(p)
    p.add_argument("--strategy", choices=sorted(_STRATEGIES), default="formal")
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
    lp.set_defaults(fn=cmd_lift_iterate, n=1)
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
    p.add_argument("--elem", required=True,
                   help="an integer or 'p/q' whose denominator has only primes of d, e.g. 4/6")
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


def _fail(code: int, kind: str, exc: Exception) -> int:
    with contextlib.suppress(OSError):  # with stderr gone too, the code is all that is left
        sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except UsageError as exc:
        return _fail(2, "usage", exc)
    except PrecisionError as exc:
        return _fail(4, "precision", exc)
    except HenonLabError as exc:
        return _fail(3, "domain", exc)
    except OverflowError as exc:
        return _fail(3, "overflow", exc)
    except ValueError as exc:
        return _fail(2, "usage", exc)
    except MemoryError as exc:  # e.g. a slice grid too large to allocate
        return _fail(2, "memory", UsageError(f"not enough memory: {exc}"))


def run() -> None:
    """Process entry: `main`, every atexit handler, a flush, then `os._exit`."""
    code = main()
    atexit._run_exitfuncs()  # os._exit skips atexit, so every handler runs here
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = code or _fail(2, "usage", UsageError(f"cannot write to stdout: {exc}"))
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
