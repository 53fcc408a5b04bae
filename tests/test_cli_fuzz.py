"""Property test of the CLI contract: whatever the map, point, option or
slice, `henonlab` exits 0, 2, 3 or 4 and writes exactly one JSON line, never
a traceback; a result carries no NaN or Infinity, and a potential it reports
has a finite error bound."""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from henonlab.cli import main

# magnitudes that reach the overflow, underflow and non-finite paths
_EDGE = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
reals = st.one_of(st.floats(-10, 10, allow_nan=False), st.sampled_from(_EDGE))
finite = st.one_of(st.floats(-10, 10, allow_nan=False), st.sampled_from([0.0, 1e-300, 1e300]))


def _scalar_text(re, im):
    return f"{re!r}{im:+}i" if im else repr(re)


complex_text = st.builds(_scalar_text, reals, reals)
# slice windows: mostly finite and small, so that some slices export
window = st.one_of(st.builds(_scalar_text, st.floats(-4, 4), st.floats(-4, 4)), complex_text)
positive = st.one_of(st.floats(0.1, 5), st.sampled_from(_EDGE))
point = st.builds(lambda x, y: f"{x},{y}", complex_text, complex_text)
# exact scalars: "p/q" strings, integer pairs and Gaussian "p/q+r/si" strings
rational_text = st.builds(lambda p, q: f"{p}/{q}", st.integers(-50, 50), st.integers(1, 12))
gaussian_text = st.builds(lambda re, im: f"{re}{'' if im[0] == '-' else '+'}{im}i",
                          rational_text, rational_text)
exact = st.one_of(rational_text, st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                  gaussian_text)


@st.composite
def henon_map(draw):
    """A dense map of degree 2..8, with float or else exact scalars, or now
    and then a float one of degree 40, 100 or 200 whose centered tail has at
    most two nonzero a_j (a dense float d = 100 map takes over a second in
    derive-q)."""
    a = [draw(finite), draw(finite)]
    d = draw(st.sampled_from([*range(2, 9)] * 2 + [40, 100, 200]))
    if d > 8:
        p = [[0.0, 0.0]] * (d - 1)
        for j in draw(st.lists(st.integers(0, d - 2), max_size=2)):
            p[j] = [draw(finite), draw(finite)]
        return json.dumps({"d": d, "p": p, "a": a})
    n = draw(st.sampled_from([d - 1, d + 1]))
    if draw(st.booleans()):
        return json.dumps({"d": d, "p": [draw(exact) for _ in range(n)], "a": draw(exact)})
    p = [[draw(finite), draw(finite)] for _ in range(n)]
    return json.dumps({"d": d, "p": p, "a": a})


@st.composite
def argv(draw, slice_dir):
    m = draw(henon_map())
    cmd = draw(st.sampled_from(["classify", "green", "green-minus", "boettcher", "derive-q",
                                "derive-q-fit", "symmetries", "push", "iterate", "deck",
                                "units", "slice"]))
    if cmd in ("classify", "boettcher"):
        return [cmd, "--map", m, f"--point={draw(point)}"]
    if cmd in ("green", "green-minus"):
        minus = ["--minus"] if cmd == "green-minus" else []
        return ["green", *minus, "--map", m, f"--point={draw(point)}",
                f"--budget={draw(st.sampled_from([-3, 0, 1, 200]))}",
                f"--target-error={draw(st.sampled_from(['1e-9', '0', '-1', 'nan', 'inf']))}"]
    if cmd == "derive-q":
        return ["derive-q", "--map", m]
    if cmd == "derive-q-fit":
        return ["derive-q", "--map", m, "--strategy", "fit"]
    if cmd == "symmetries":
        return ["symmetries", "--map", m]
    if cmd in ("push", "iterate"):
        gamma = draw(st.one_of(st.sampled_from(["7/3", "0", "1+2i", "1e300", "inf", "nan", "1/0"]),
                               rational_text, gaussian_text))
        out = ["lift", cmd, "--map", m, f"--e={draw(st.integers(-20, 80))}",
               f"--gamma={gamma}"]
        if cmd == "push":
            return out + ["--direction", draw(st.sampled_from(["plus", "minus"]))]
        return out + [f"--n={draw(st.integers(0, 60))}",
                      "--direction", draw(st.sampled_from(["plus", "minus"]))]
    if cmd == "deck":
        return ["lift", "deck", "--map", m, f"--k={draw(st.integers(-5, 40))}",
                f"--n={draw(st.integers(0, 6))}", f"--point={draw(point)}"]
    if cmd == "units":
        num, den = draw(st.integers(-10 ** 40, 10 ** 40)), draw(st.integers(0, 10 ** 4))
        elem = draw(st.one_of(st.just(f"{num}/{den}"), rational_text, gaussian_text))
        return ["units", f"--d={draw(st.integers(-1, 13))}", f"--elem={elem}"]
    cfg = {"map": json.loads(m),
           "slice": {"origin": [draw(window), draw(window)],
                     "spanU": [draw(window), draw(window)],
                     "spanV": [draw(window), draw(window)],
                     "gridW": draw(st.integers(1, 16)), "gridH": draw(st.integers(1, 16)),
                     "extent": draw(positive)},
           "budget": draw(st.one_of(st.integers(0, 60), st.sampled_from([-1, 1.5, "x", None])))}
    path = slice_dir / "run.json"
    path.write_text(json.dumps(cfg))
    fmt = draw(st.sampled_from(["csv", "pgm", "json"]))
    out_dir = draw(st.sampled_from([slice_dir, slice_dir / "missing"]))
    return ["slice", "--config", str(path), f"--c={draw(positive)}",
            "--out", str(out_dir / f"grid.{fmt}"), "--format", fmt]


def _reject_non_finite(name):
    raise AssertionError(f"a result carries {name}")


def test_cli_exit_codes_and_one_json_line(tmp_path_factory):
    slice_dir = tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv(slice_dir))
    def check(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        assert code in (0, 2, 3, 4), (args, code, err.getvalue())
        lines = (out.getvalue() + err.getvalue()).splitlines()
        assert len(lines) == 1, (args, lines)
        doc = json.loads(lines[0], parse_constant=_reject_non_finite)
        if code == 0 and args[0] in ("green", "classify"):
            green = doc["greenPlus"] if args[0] == "classify" else doc
            assert green["iterations"] >= 0, (args, doc)
            assert math.isfinite(green["errorBound"]), (args, doc)

    check()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.integers(-1, 13), st.integers(14, 10 ** 30)),
       st.integers(-10 ** 40, 10 ** 40), st.one_of(st.just(1), st.integers(0, 10 ** 4)))
def test_units_with_ring_d_up_to_1e30_is_one_json_line(d, num, den):
    """Past the factoring caps (a probable prime from 3.3e24 up, or a composite
    rho does not split) units is exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["units", f"--d={d}", f"--elem={num}/{den}"])
    assert code in (0, 2), (d, num, den, code, err.getvalue())
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1, (d, num, den, lines)
    json.loads(lines[0])
