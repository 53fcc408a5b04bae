"""The four benchmark workloads: seeded inputs, one operation, output checks.

Every workload object offers the same small interface to the worker:

* ``ops``: the operation list, built from the seed (same seed, same list);
* ``round_len``: the loop only stops at multiples of this many operations,
  so workloads whose operations differ widely in cost always run whole
  rounds of their mix;
* ``run(op)``: perform one operation and return its raw result;
* ``check(op, result)``: ``None`` when the result passes, otherwise a short
  failure kind such as ``nonfinite-green`` or ``exit-2``;
* ``defect(op, kind)``: the name of the known defect a failure belongs to,
  or ``None`` when the failure is unexpected.

Inputs that hit a known defect stay in the mixes on purpose: fixing the
defect shows up as a drop of ``fail_ratio``.  Only the workload modules
import henonlab, and only when a workload is built, so that the worker can
time ``import henonlab.cli`` on its own.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
REFS_PATH = Path(__file__).with_name("refs") / "seed0.json"


def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# scalar-potential
# ---------------------------------------------------------------------------

SCALAR_FNS = ("green_plus", "green_minus", "classify_point")


class ScalarPotential:
    """G+, G- and forward classification on box, deep and far points.

    Four maps: the quadratic acceptance map (y^2, a=3), the cubic
    (y^3, a=9), the dissipative (y^2-1.2, a=0.3) whose box points often
    stay bounded for the whole budget, and a quintic with complex
    coefficients whose tail bound overflows on about half of its box
    points.  One operation evaluates all three functions at one point, so
    that the latency distribution does not split by function; the points
    are shuffled once, so any stretch of the loop sees the whole mix.
    """

    name = "scalar-potential"
    round_len = 1

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = None):
        from henonlab import maps, potential
        self.potential = potential
        self._evaluate = maps.evaluate
        self.maps = {
            "quadratic": maps.HenonMap(2, 3, (0,)),
            "cubic": maps.HenonMap(3, 9, (0, 0)),
            "dissipative": maps.HenonMap(2, 0.3, (-1.2,)),
            "quintic": maps.HenonMap(5, 0.5 + 0.2j, (0.3, 0, 1, -1j)),
        }
        self.filt = {k: maps.estimate_filtration_radius(m) for k, m in self.maps.items()}
        counts = {"box": 4, "deep": 1, "far": 1} if tiny else {"box": 200, "deep": 30, "far": 30}
        rng = random.Random(f"scalar-potential/{seed}")

        def polar(r):
            return cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))

        def box():
            return complex(rng.uniform(-6, 6), rng.uniform(-6, 6))

        self.points = {}
        for key in self.maps:
            pts = []
            for kind, n in counts.items():
                for _ in range(n):
                    if kind == "box":
                        z = (box(), box())
                    elif kind == "deep":
                        z = (box(), polar(1e6 * rng.uniform(0.5, 2.0)))
                    else:
                        z = (polar(1e200 * rng.uniform(0.5, 2.0)),
                             polar(1e200 * rng.uniform(0.5, 2.0)))
                    pts.append((kind, z))
            self.points[key] = pts
        self.ops = [(key, i) for key, pts in self.points.items() for i in range(len(pts))]
        rng.shuffle(self.ops)
        self.refs = None
        if seed == DEFAULT_SEED and not tiny:
            self.refs = load_refs()["scalar"]
        self._seen = {}
        self.spot_checks = {"done": 0, "skipped": 0}

    def run(self, op):
        """All three functions at one point; an exception is returned, not raised."""
        key, i = op
        m, z, filt = self.maps[key], self.points[key][i][1], self.filt[key]
        out = []
        for fn in SCALAR_FNS:
            try:
                out.append(getattr(self.potential, fn)(m, z, filtration=filt))
            except Exception as exc:  # one failing call must not skip the others
                out.append(exc)
        return out

    @staticmethod
    def green_of(result):
        return getattr(result, "green_plus", result)

    @staticmethod
    def op_key(op, fn) -> str:
        return f"{fn}/{op[0]}/{op[1]}"

    def check(self, op, results):
        """First failure as ``function:kind``, or None."""
        summary = tuple(repr(r) if isinstance(r, Exception)
                        else (self.green_of(r).value, self.green_of(r).error_bound)
                        for r in results)
        seen = self._seen.get(op)
        if seen is not None:
            return seen[1] if seen[0] == summary else "nondeterministic"
        kind = None
        for fn, result in zip(SCALAR_FNS, results):
            if isinstance(result, Exception):
                kind = type(result).__name__
            else:
                kind = self._validate(op, fn, result, results[0])
            if kind is not None:
                kind = f"{fn}:{kind}"
                break
        self._seen[op] = (summary, kind)
        return kind

    def _validate(self, op, fn, result, g_plus):
        g = self.green_of(result)
        if not (math.isfinite(g.value) and g.value >= 0.0
                and math.isfinite(g.error_bound) and g.error_bound >= 0.0):
            return "nonfinite-green"
        # a call that raised at the seed (a known defect) has no reference;
        # once fixed, its result is held to the checks below only
        ref = self.refs.get(self.op_key(op, fn)) if self.refs is not None else None
        if ref is not None:
            if not _close(g.value, ref["value"], g.error_bound + ref["errorBound"]):
                return "reference-mismatch"
            if fn == "classify_point" and result.status != ref["status"]:
                return "reference-mismatch"
        if fn == "green_plus" and not self._functorial_ok(op, g):
            return "functorial-law"
        if fn == "classify_point" and not isinstance(g_plus, Exception) and \
                g.value != g_plus.value and not g.budget_exhausted:
            return "classify-disagrees"
        return None

    def _functorial_ok(self, op, g) -> bool:
        """|G+(Hz) - d G+(z)| within the propagated reported bounds."""
        key, i = op
        kind, z = self.points[key][i]
        m = self.maps[key]
        hz = self._evaluate(m, z)
        if kind == "far" or not max(abs(hz[0]), abs(hz[1])) < 1e300:
            self.spot_checks["skipped"] += 1
            return True
        try:
            g1 = self.potential.green_plus(m, hz, filtration=self.filt[key])
        except OverflowError:  # the quintic tail-bound defect; nothing to compare
            self.spot_checks["skipped"] += 1
            return True
        self.spot_checks["done"] += 1
        return _close(g1.value, m.d * g.value, g1.error_bound + m.d * g.error_bound)

    def defect(self, op, kind):
        key, i = op
        if kind in ("green_plus:OverflowError", "classify_point:OverflowError") \
                and key == "quintic":
            return "quintic-tail-overflow"
        if kind == "green_minus:OverflowError" and self.points[key][i][0] == "far":
            return "green-minus-far-overflow"
        return None

    def reported_iterations(self, results) -> int:
        return sum(self.green_of(r).iterations for r in results
                   if not isinstance(r, Exception))

    def reference_records(self, op, results) -> dict:
        out = {}
        for fn, r in zip(SCALAR_FNS, results):
            if isinstance(r, Exception):
                continue  # a known defect: nothing to record
            g = self.green_of(r)
            doc = {"value": g.value, "errorBound": g.error_bound}
            if fn == "classify_point":
                doc["status"] = r.status
            out[self.op_key(op, fn)] = doc
        return out


# ---------------------------------------------------------------------------
# slice-sample and slice-export (the CLI workloads)
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stderr: str
    out: Path
    rss_kb: int


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_green(data: bytes, npix: int):
    import numpy as np
    lines = data.split(b"\r\n")
    if lines[0] != b"u,v,greenPlus,status,annulusRadius" or lines[-1] != b"":
        return None
    rows = lines[1:-1]
    if len(rows) != npix:
        return None
    return np.array([float(r.split(b",", 3)[2]) for r in rows])


def _json_green(data: bytes, npix: int):
    import numpy as np
    doc = json.loads(data)
    vals = doc.get("greenPlus")
    if not isinstance(vals, list) or len(vals) != npix:
        return None
    return np.array(vals, dtype=float)


def _pgm_pixels(data: bytes, w: int, h: int):
    import numpy as np
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + 2 * w * h:
        return None
    return np.frombuffer(data[len(header):], dtype=">u2").astype(np.int64)


SEED_FREE_WINDOWS = ("acceptance",)


class SliceWorkload:
    """``henonlab slice`` runs; one CLI process at a time, imports included.

    In the timed run every operation is a ``python -m henonlab.cli``
    subprocess; the traced run calls ``cli.main`` in-process instead so that
    the span recorder sees inside it.  Outputs are validated once per
    distinct (window, format); repeats must be byte-identical.
    """

    level = 1.0

    def __init__(self, seed: int, tiny: bool, workdir: Path, windows: dict,
                 ops: list, map_doc: dict, round_len: int, defect_windows=()):
        from henonlab import cli, maps
        self.cli = cli
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.map = cli.parse_map(json.dumps(map_doc))
        self.filt = maps.estimate_filtration_radius(self.map)
        self.windows = windows
        self.configs = {}
        for key, win in windows.items():
            cfg = self.workdir / f"cfg-{key}.json"
            cfg.write_text(json.dumps({"map": map_doc, "slice": win, "budget": 200}),
                           encoding="utf-8")
            self.configs[key] = cfg
        self.ops = ops
        self.round_len = round_len
        self.defect_windows = set(defect_windows)
        self.use_cli_process = True
        self.pins = {}
        if not tiny:
            # windows that do not depend on the seed are pinned for every seed
            self.pins = {k: v for k, v in load_refs()["slice"][self.name].items()
                         if seed == DEFAULT_SEED or k.split(".")[0] in SEED_FREE_WINDOWS}
        self._digest = {}
        self._green = {}
        self._pixels = {}
        self.spot_checks = {"done": 0, "skipped": 0}

    def _argv(self, op):
        key, fmt = op
        out = self.workdir / f"out-{key}.{fmt}"
        return ["slice", "--config", str(self.configs[key]), "--c", repr(self.level),
                "--out", str(out), "--format", fmt], out

    def run(self, op):
        argv, out = self._argv(op)
        if out.exists():
            out.unlink()
        if not self.use_cli_process:
            buf_out, buf_err = io.StringIO(), io.StringIO()
            with redirect_stdout(buf_out), redirect_stderr(buf_err):
                code = self.cli.main(argv)
            return CliResult(code, buf_err.getvalue(), out, 0)
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err, open(os.devnull, "wb") as devnull:
            proc = subprocess.Popen([sys.executable, "-m", "henonlab.cli", *argv],
                                    stdout=devnull, stderr=err)
            _, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, err_path.read_text(errors="replace"), out,
                         rusage.ru_maxrss)

    def check(self, op, result):
        key, fmt = op
        if "Traceback" in result.stderr:
            return "traceback"
        if result.code != 0:
            return f"exit-{result.code}"
        try:
            data = result.out.read_bytes()
        except OSError:
            return "missing-output"
        digest = _sha256(data)
        seen = self._digest.get(op)
        if seen is not None:
            return seen[1] if seen[0] == digest else "nondeterministic"
        pin = self.pins.get(f"{key}.{fmt}")
        kind = "digest-mismatch" if pin not in (None, digest) else self._validate(key, fmt, data)
        self._digest[op] = (digest, kind)
        return kind

    def _validate(self, key, fmt, data):
        import numpy as np
        win = self.windows[key]
        w, h = win["gridW"], win["gridH"]
        if fmt == "pgm":
            pix = _pgm_pixels(data, w, h)
            if pix is None:
                return "malformed-output"
            self._pixels[key] = pix
        else:
            green = (_csv_green if fmt == "csv" else _json_green)(data, w * h)
            if green is None:
                return "malformed-output"
            if not (np.all(np.isfinite(green)) and np.all(green >= 0.0)):
                return "nonfinite-green"
            if key in self._green and not np.array_equal(self._green[key], green):
                return "format-mismatch"
            self._green[key] = green
        green = self._green.get(key)
        pix = self._pixels.get(key)
        if green is not None and pix is not None:
            expect = np.round(np.clip(green / self.level, 0.0, 1.0) * 65535.0)
            if not np.array_equal(pix, expect.astype(np.int64)):
                return "format-mismatch"
        if fmt == "pgm" and green is None and not self._engine_agrees(key, pix):
            return "engine-mismatch"
        return None

    def _engine_agrees(self, key, pix) -> bool:
        """PGM pixels against the scalar G+ engine on seeded sample pixels."""
        import numpy as np
        from henonlab.potential import green_plus
        win = self.windows[key]
        w, h = win["gridW"], win["gridH"]
        ext = float(win["extent"])
        us = np.linspace(-ext, ext, w)
        vs = np.linspace(-ext, ext, h)
        o = [complex(self.cli.parse_scalar(v)) for v in win["origin"]]
        su = [complex(self.cli.parse_scalar(v)) for v in win["spanU"]]
        sv = [complex(self.cli.parse_scalar(v)) for v in win["spanV"]]
        rng = random.Random(f"{self.name}/{self.seed}/{key}")
        c = self.level
        for _ in range(8 if self.tiny else 64):
            r, col = rng.randrange(h), rng.randrange(w)
            z = tuple(o[k] + us[col] * su[k] + vs[r] * sv[k] for k in range(2))
            g = green_plus(self.map, z, budget=200, filtration=self.filt)
            slack = g.error_bound + 1e-9
            lo = round(min(max(g.value - slack, 0.0), c) / c * 65535.0)
            hi = round(min(max(g.value + slack, 0.0), c) / c * 65535.0)
            self.spot_checks["done"] += 1
            if not lo <= int(pix[r * w + col]) <= hi:
                return False
        return True

    def defect(self, op, kind):
        key, fmt = op
        if key not in self.defect_windows:
            return None
        if (fmt, kind) in (("json", "exit-2"), ("csv", "nonfinite-green")):
            return "far-field-inf-green"
        return None

    def cleanup(self):
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


def _window(origin, size: int, extent: float) -> dict:
    return {"origin": origin, "spanU": [1, 0], "spanV": [0, 1],
            "gridW": size, "gridH": size, "extent": extent}


class SliceSample(SliceWorkload):
    """Dissipative map (y^2-1.2, a=0.3) at 1024^2, PGM export.

    About half the pixels run the full 200-step budget, so the vectorized
    sampler is nearly all of the time and export almost none.  The window
    origin and extent get a small seeded jitter (at most 1 %), small enough
    that the share of full-budget pixels barely moves between seeds.
    """

    name = "slice-sample"

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = None):
        rng = random.Random(f"slice-sample/{seed}")
        size = 32 if tiny else 1024
        windows = {}
        for k in range(2):
            origin = [[rng.uniform(-0.03, 0.03), 0.0], [rng.uniform(-0.03, 0.03), 0.0]]
            windows[f"jitter{k}"] = _window(origin, size, 3.0 * rng.uniform(0.99, 1.01))
        ops = [(key, "pgm") for key in windows]
        super().__init__(seed, tiny, workdir, windows, ops,
                         {"d": 2, "p": [-1.2], "a": 0.3}, round_len=1)


class SliceExport(SliceWorkload):
    """Acceptance map (y^2, a=3) exported as CSV and JSON.

    With a=3 no pixel runs the full budget, so sampling is cheap and the
    exporters dominate.  One round alternates the 256^2 acceptance slice
    with a seeded 512^2 window in both formats, adds a PGM of the
    acceptance slice so that all three formats can be checked against
    each other, and ends with the far-field window at |origin| ~ 1e200,
    where G+ comes back as inf (JSON exits 2, CSV writes inf).  The
    far-field window is 32^2: its defect does not depend on its size, and
    a small window keeps its two operations well below the 256^2 ones in
    cost, so that the median latency does not hop between them.
    """

    name = "slice-export"

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = None):
        rng = random.Random(f"slice-export/{seed}")
        small, big, far = (16, 32, 16) if tiny else (256, 512, 32)
        windows = {
            "acceptance": _window([0, 0], small, 3.0),
            "window": _window([[rng.uniform(-0.5, 0.5), 0.0], [rng.uniform(-0.5, 0.5), 0.0]],
                              big, 3.0 * rng.uniform(0.9, 1.1)),
            "far": _window([[1e200 * rng.uniform(0.9, 1.1), 0.0],
                            [1e199 * rng.uniform(0.9, 1.1), 0.0]], far, 3.0),
        }
        ops = [("acceptance", "csv"), ("window", "csv"), ("acceptance", "json"),
               ("window", "json"), ("acceptance", "pgm"), ("far", "csv"), ("far", "json")]
        super().__init__(seed, tiny, workdir, windows, ops,
                         {"d": 2, "p": [0], "a": 3}, round_len=len(ops),
                         defect_windows=("far",))


# ---------------------------------------------------------------------------
# lift-exact
# ---------------------------------------------------------------------------

SEED_FREE_OPS = ("derive", "detect", "aut1")
# (call, degree) pairs whose output at the seed is the cubic psi divergence:
# pinning it would turn a fix of that defect into a reference mismatch
UNPINNED_CALLS = (("psi", 3), ("semiconj", 3))


class LiftExact:
    """The mpmath and exact-rational paths no other workload reaches.

    Per map of degree 2, 3 and 4: both lift-polynomial strategies, psi at
    depths 3-6 (3-5 for d=4: the digits psi needs grow like d^depth), one
    semiconjugacy residual, symmetry detection, its classification, and one
    operation batching the cheap exact-algebra calls (closed-form pushes,
    deck transformations, unit decompositions).  Calls of a few
    microseconds are batched because alone their median flips with the
    host's millisecond-scale slowdowns.  A round is the whole list, 29
    operations: an odd count puts the median latency inside one
    operation's samples instead of between two operations' costs.

    All three maps have a non-trivial Q.  For the cubic (y^3+1, a=9) the
    telescoping psi grows with depth instead of converging, so its
    semiconjugacy residual fails the convergence check: a known defect,
    kept in the mix like the others.  The cubic's psi values and residual
    are therefore checked but not pinned to their seed values.
    """

    name = "lift-exact"

    def __init__(self, seed: int, tiny: bool = False, workdir: Path = None):
        from henonlab import boettcher, covering, dyadic, maps, symmetry
        self.boettcher, self.covering = boettcher, covering
        self.dyadic, self.symmetry = dyadic, symmetry
        self._evaluate = maps.evaluate
        rng = random.Random(f"lift-exact/{seed}")
        self.maps = {
            2: maps.HenonMap(2, 3, (1,)),
            3: maps.HenonMap(3, 9, (1, 0)),
            4: maps.HenonMap(4, 16, (0, 0, 1)),
        }
        self.filt = {d: maps.estimate_filtration_radius(m) for d, m in self.maps.items()}
        self.q = {d: boettcher.derive_lift_polynomial(m, "formal-series")
                  for d, m in self.maps.items()}
        batch = 1 if tiny else 4
        self.inputs = {}
        ops = []
        for d, m in self.maps.items():
            R = self.filt[d].R
            depths = (3,) if tiny else ((3, 4, 5) if d == 4 else (3, 4, 5, 6))

            def vplus():
                y = cmath.rect(2.0 * R * rng.uniform(1.0, 1.1), rng.uniform(0, 2 * math.pi))
                return (cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)), y)

            ops += [(("derive", d, "formal-series"),), (("derive", d, "bigfloat-fit"),)]
            for depth in depths:
                self.inputs[("psi", d, depth)] = vplus()
                ops.append((("psi", d, depth),))
            z = vplus()
            self.inputs[("semiconj", d, 3)] = (z, self._digits(d, z, 3))
            ops += [(("semiconj", d, 3),), (("detect", d, 0),), (("aut1", d, 0),)]
            M = d * d - 1
            algebra = []
            for j in range(batch):
                gamma = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                self.inputs[("push", d, j)] = (rng.randrange(M), gamma, rng.randint(1, 12))
                n = rng.randint(1, 3)
                zeta = cmath.rect(rng.uniform(1.1, 1.25), rng.uniform(0, 2 * math.pi))
                self.inputs[("deck", d, j)] = (rng.randrange(1, d ** n), n,
                                               (complex(rng.uniform(-2, 2)), zeta))
                self.inputs[("unit", d, j)] = ((2, 6, 12)[j % 3],
                                               rng.choice((1, -1)) * rng.randint(1, 500),
                                               rng.randint(0, 4))
                algebra += [("push", d, j), ("deck", d, j), ("unit", d, j)]
            ops.append(tuple(algebra))
        self.ops = ops
        self.round_len = len(ops)
        self.expected = {}
        if not tiny:
            # derive, detect and aut1 take no seeded input: pinned for every seed
            self.expected = {k: v for k, v in load_refs()["lift"].items()
                             if (seed == DEFAULT_SEED or k.split("/")[0] in SEED_FREE_OPS)
                             and not self._unpinned(k)}
        self._seen = {}

    @staticmethod
    def op_key(op) -> str:
        return f"{op[0]}/{op[1]}/{op[2]}"

    @staticmethod
    def _unpinned(key: str) -> bool:
        call, d, _ = key.split("/")
        return (call, int(d)) in UNPINNED_CALLS

    def _digits(self, d, z, depth) -> int:
        """Digits semiconjugacy_residual needs at z and H(z)."""
        m, b = self.maps[d], self.boettcher
        hz = self._evaluate(m, z)
        return max(b.digits_needed(m, z, depth), b.digits_needed(m, hz, depth))

    def run(self, op):
        """Each call of the operation in turn; an exception is returned, not raised."""
        out = []
        for call in op:
            try:
                out.append(self._run_call(call))
            except Exception as exc:  # one failing call must not skip the others
                out.append(exc)
        return out

    def _run_call(self, op):
        kind, d, j = op
        m, q, filt = self.maps[d], self.q[d], self.filt[d]
        b, cov = self.boettcher, self.covering
        if kind == "derive":
            return b.derive_lift_polynomial(m, j)
        if kind == "psi":
            return b.psi(m, self.inputs[op], q, j, filtration=filt)
        if kind == "semiconj":
            z, dps = self.inputs[op]
            return b.semiconjugacy_residual(m, q, [z], j, dps, filtration=filt)
        if kind == "detect":
            return self.symmetry.detect_linear_symmetries(m)
        if kind == "aut1":
            return self.symmetry.classify_aut1(m, q)
        if kind == "push":
            e, gamma, n = self.inputs[op]
            f = cov.FiberAffineMap(d, cov.RootOfUnity.for_degree(d, e), gamma)
            return cov.push_iterated(f, "minus", n, q, m.a)
        if kind == "deck":
            k, n, point = self.inputs[op]
            return cov.deck_eval(cov.deck_rational(k, n, d), point, q, m.a)
        ring_d, num, k = self.inputs[op]
        return self.dyadic.unit_decompose(self.dyadic.RingElem(ring_d, num, k))

    def check(self, op, results):
        """First failure as ``call:kind``, or None."""
        for call, result in zip(op, results):
            if isinstance(result, Exception):
                kind = type(result).__name__
            else:
                kind = self._check_call(call, result)
            if kind is not None:
                return f"{call[0]}:{kind}"
        return None

    def _check_call(self, op, result):
        summary = self._summary(op, result)
        seen = self._seen.get(op)
        if seen is not None:
            return seen[1] if seen[0] == summary else "nondeterministic"
        kind = self._validate(op, result)
        if kind is None:
            ref = self.expected.get(self.op_key(op))
            if ref is not None and not self._matches(op, summary, ref):
                kind = "reference-mismatch"
        self._seen[op] = (summary, kind)
        return kind

    def _summary(self, op, result):
        """A JSON-able digest of the result, used for pins and determinism."""
        kind = op[0]
        if kind == "derive":
            return [[c.real, c.imag] for c in result.A_complex]
        if kind == "psi":
            return [result.value.real, result.value.imag, result.precision_digits]
        if kind == "semiconj":
            return result
        if kind == "detect":
            return list(result.exponents)
        if kind == "aut1":
            return [result.case, result.k, result.k_prime]
        if kind == "push":
            g = result.gamma
            return [result.alpha.e, str(g) if isinstance(g, Fraction) else repr(complex(g))]
        if kind == "deck":
            return [[w.real, w.imag] for w in map(complex, result)]
        return None if result is None else [result.sign, list(result.exponents)]

    @staticmethod
    def _matches(op, summary, ref) -> bool:
        if op[0] in ("derive", "psi", "deck", "semiconj"):
            def flat(v):
                if not isinstance(v, list):
                    return [v]
                return [x for p in v for x in flat(p)]
            a, b = flat(summary), flat(ref)
            return len(a) == len(b) and all(abs(x - y) <= 1e-9 * max(1.0, abs(y))
                                            for x, y in zip(a, b))
        return summary == ref

    def _validate(self, op, result):
        kind, d, j = op
        m, q = self.maps[d], self.q[d]
        if kind == "derive":
            ok = (result.d == d and complex(result.A[0]) == 0.0 and
                  all(abs(complex(a) - b) <= 1e-8 for a, b in zip(result.A, q.A_complex)))
            return None if ok else "strategy-disagreement"
        if kind == "psi":
            # psi_N sizes its own precision; 30 more digits must not move it
            z = self.inputs[op]
            v = complex(result.value)
            more = self.boettcher.psi(m, z, q, j, precision_digits=result.precision_digits + 30,
                                      filtration=self.filt[d])
            ok = (math.isfinite(v.real) and math.isfinite(v.imag) and
                  abs(complex(more.value) - v) <= 1e-12 * max(1.0, abs(v)))
            return None if ok else "psi-precision"
        if kind == "semiconj":
            # the residual must shrink with depth at least like |d/a|^N
            z = self.inputs[op][0]
            deeper = self.boettcher.semiconjugacy_residual(
                m, q, [z], j + 1, self._digits(d, z, j + 1), filtration=self.filt[d])
            ratio = abs(d / complex(m.a)) + 0.1
            ok = math.isfinite(result) and deeper <= ratio * result + 1e-9
            return None if ok else "semiconjugacy-diverges"
        if kind == "detect":
            exps, M = result.exponents, d * d - 1
            closed = all((a + b) % M in exps for a in exps for b in exps)
            return None if (0 in exps and M % len(exps) == 0 and closed) else "symmetry-invalid"
        if kind == "aut1":
            return None  # classify_aut1 checks its own invariants; pinned below
        if kind == "push":
            e, gamma, n = self.inputs[op]
            cov = self.covering
            f = cov.FiberAffineMap(d, cov.RootOfUnity.for_degree(d, e), gamma)
            for _ in range(n):
                f = cov.push(f, "minus", q, m.a)
            return None if (f.alpha.e == result.alpha.e and f.gamma == result.gamma) \
                else "push-mismatch"
        if kind == "deck":
            k, n, point = self.inputs[op]
            cov = self.covering
            back = cov.deck_eval(cov.deck_rational(-k, n, d), result, q, m.a)
            err = max(abs(back[0] - point[0]), abs(back[1] - point[1]))
            return None if err <= 1e-9 * max(1.0, abs(result[0])) else "deck-inverse"
        ring_d, num, k = self.inputs[op]
        x = self.dyadic.RingElem(ring_d, num, k)
        if result is None:
            return None if self.dyadic.brute_force_inverse(x, 10 ** 6, 12) is None \
                else "unit-missed"
        return None if result.value() == x else "unit-decomposition"

    def defect(self, op, kind):
        if op == (("semiconj", 3, 3),) and kind == "semiconj:semiconjugacy-diverges":
            return "psi-diverges-cubic"
        return None

    def reference_records(self, op, results) -> dict:
        return {self.op_key(call): self._summary(call, r) for call, r in zip(op, results)
                if not self._unpinned(self.op_key(call))}


WORKLOADS = {cls.name: cls for cls in (ScalarPotential, SliceSample, SliceExport, LiftExact)}
