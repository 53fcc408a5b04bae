"""CLI contract: JSON outputs, shared map parser, and exit-code mapping."""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from henonlab import boettcher
from henonlab._exact import QC, field, is_zero
from henonlab.boettcher import derive_lift_polynomial, psi
from henonlab.cli import main, parse_map, parse_point, parse_scalar, UsageError
from henonlab.covering import RootOfUnity
from henonlab.maps import HenonMap, estimate_filtration_radius

M2 = '{"d":2,"p":[0],"a":3}'
M3 = '{"d":3,"p":[0,0],"a":9}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsers -----------------------------------------------------------------

def test_parse_scalar_forms():
    assert parse_scalar(3) == 3
    assert parse_scalar([1.5, -2.25]) == complex(1.5, -2.25)
    assert parse_scalar("1.5-2.25i") == complex(1.5, -2.25)
    assert parse_scalar("2i") == 2j
    assert parse_scalar("-3") == -3
    with pytest.raises(UsageError):
        parse_scalar("spam")


@pytest.mark.parametrize("v,want", [
    ("1/3", Fraction(1, 3)), ("4/2", 2), ("4/-6", Fraction(-2, 3)), ("1_000", 1000),
    ("12345678901234567890123", 12345678901234567890123),
    ("1/2-1i", QC(Fraction(1, 2), -1)), ("1+1/4i", QC(1, Fraction(1, 4))), ("-i", QC(0, -1)),
    (["1/2", -1], QC(Fraction(1, 2), -1)), ([1, 2], QC(1, 2)), ([1, 0], 1), ("3+0i", 3),
    ("3.0", 3.0), ("1e20", 1e20), ("-0.0", -0.0), ([1, 0.0], 1.0), ("3+0.0i", 3.0),
    ("1/2+0.5i", 0.5 + 0.5j), ([1.5, "1/2"], 1.5 + 0.5j), ("1e-3-2e-3i", 0.001 - 0.002j),
], ids=repr)
def test_parse_scalar_is_exact_exactly_when_every_part_is(v, want):
    # an integer or p/q is exact; a part with a point or an exponent is a float
    got = parse_scalar(v)
    assert type(got) is type(want) and got == want
    assert math.copysign(1, complex(got).real) == math.copysign(1, complex(want).real)


@pytest.mark.parametrize("v", ["inf", "1e400", "-nani", "1/0", "3/", "/3", "1/2/3", "1+-2i",
                               "1.5/2", "", True, None, [1], [1, 2, 3], ["1+2i", 0],
                               [1e308 * 10, 0]])
def test_parse_scalar_rejects(v):
    with pytest.raises(UsageError):
        parse_scalar(v)


def test_big_integer_string_survives_exactly_in_parse_map():
    m = parse_map('{"d":2,"p":["12345678901234567890123"],"a":3}')
    assert m.exact and m.coeffs == (12345678901234567890123,)


@pytest.mark.parametrize("spec,a1", [
    ('{"d":2,"p":[[0,1]],"a":3}', QC(0, Fraction(-1, 2))),
    ('{"d":2,"p":["i",0,1],"a":3}', QC(0, Fraction(-1, 2))),
    ('{"d":2,"p":["1/3"],"a":3}', QC(Fraction(-1, 6))),
], ids=["y2+i", "y2+i-full", "y2+1/3"])
def test_formal_q_of_exact_cli_maps_is_exact(capsys, spec, a1):
    # A_1 = -a_0/2 for p = y^2 + a_0, checked as in test_formal_q_matches_closed_forms
    q = derive_lift_polynomial(parse_map(spec), "formal-series")
    assert q.A == (QC(0), a1) and all(type(c) is QC for c in q.A)
    code, out, _ = run(capsys, "derive-q", "--map", spec)
    assert code == 0 and json.loads(out)["A"] == [[0.0, 0.0], [float(a1.re), float(a1.im)]]


def test_exact_gaussian_map_from_the_cli_has_a_convergent_psi():
    # the exact twin in the PsiValue docstring, whose float twin diverges
    m = parse_map('{"d":3,"p":["1/2-1i","1+1/4i"],"a":[5,4]}')
    assert m == HenonMap(3, QC(5, 4), (QC(Fraction(1, 2), -1), QC(1, Fraction(1, 4))))
    assert m.exact
    q = derive_lift_polynomial(m, "formal-series")
    filt = estimate_filtration_radius(m)
    z = (0.4 - 0.3j, -6.28527633853461 - 7.277226710203599j)
    values = [psi(m, z, q, depth, filtration=filt).value for depth in (3, 4, 5, 6)]
    for v in values:
        assert abs(v - (-4.711316480660754 - 0.9870393388138703j)) <= 1e-10


def test_parse_map_inline_full_polynomial_normalizes():
    m = parse_map('{"d":2,"p":[1,4,2],"a":3}')
    assert m.d == 2 and complex(m.coeffs[0]) == 6


def test_parse_map_tail_form():
    m = parse_map(M3)
    assert m.d == 3 and m.coeffs == (0, 0)


def test_parse_map_file(tmp_path):
    f = tmp_path / "map.json"
    f.write_text(M2)
    assert parse_map(str(f)).d == 2


def test_parse_map_bad_length():
    with pytest.raises(UsageError):
        parse_map('{"d":3,"p":[0],"a":9}')


def test_parse_point():
    assert parse_point("1+2i,-3") == (1 + 2j, -3 + 0j)
    assert parse_point("1/2,1/4-1/2i") == (0.5 + 0j, 0.25 - 0.5j)
    with pytest.raises(UsageError):
        parse_point("1;2")
    with pytest.raises(UsageError):  # exact, but past the float range
        parse_point(f"{10 ** 400},0")


# -- subcommands -------------------------------------------------------------

def test_classify_fixed_point(capsys):
    code, out, _ = run(capsys, "classify", "--map", M2, "--point", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "bounded-within-budget"
    assert doc["greenPlus"]["value"] == 0


def test_green_reference(capsys):
    code, out, _ = run(capsys, "green", "--map", M2, "--point", "0,1e6")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(13.815510557964274, abs=1e-8)


def test_boettcher_output(capsys):
    code, out, _ = run(capsys, "boettcher", "--map", M2, "--point", "0,10")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["value", "errorBound"]
    assert doc["value"][0] == pytest.approx(9.9924877779, abs=1e-6)
    assert 0 < doc["errorBound"] < 1e-14


def test_boettcher_trunc_is_a_usage_error(capsys):
    # phi is phi_mp rounded to doubles: there is no truncation to choose
    _one_line_error(*run(capsys, "boettcher", "--map", M2, "--point", "0,10",
                         "--trunc", "20"), 2, "usage")


Q5 = '{"d":5,"p":[0.3,0,1,"0-1i"],"a":"0.5+0.2i"}'
Q5_BOX = "2.8787828968791693+5.067899959985004i,-5.651937260596624-0.41252814746273536i"


@pytest.mark.parametrize("argv", [
    ("green", "--map", Q5, "--point", Q5_BOX),
    ("green", "--map", Q5, "--point", "0,1e70"),
    ("boettcher", "--map", Q5, "--point", "0,1e70"),
], ids=["quintic-box", "quintic-deep-green", "quintic-deep-boettcher"])
def test_tail_bound_does_not_overflow(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    assert math.isfinite(json.loads(lines[0])["errorBound"])


def test_derive_q_strategies_agree(capsys):
    docs = []
    for strat in ("formal", "fit"):
        code, out, _ = run(capsys, "derive-q", "--map",
                           '{"d":2,"p":[1],"a":3}', "--strategy", strat)
        assert code == 0
        docs.append(json.loads(out))
    for a_formal, a_fit in zip(docs[0]["A"], docs[1]["A"]):
        assert a_formal[0] == pytest.approx(a_fit[0], abs=1e-8)
    assert docs[0]["A"][1][0] == pytest.approx(-0.5, abs=1e-10)


def test_symmetries_case_ii(capsys):
    code, out, _ = run(capsys, "symmetries", "--map", M3)
    assert code == 0
    doc = json.loads(out)
    assert (doc["k"], doc["kPrime"], doc["case"]) == (8, 8, "ii")


def test_units_reference_example(capsys):
    code, out, _ = run(capsys, "units", "--d", "6", "--elem", "4/6")
    assert code == 0
    doc = json.loads(out)
    assert doc["unit"] is True and doc["sign"] == 1 and doc["exponents"] == [1, -1]


def test_units_denominator_over_the_primes_of_d(capsys):
    # 1/4 = 9/36 lies in Z[1/6] although 4 is no power of 6
    code, out, _ = run(capsys, "units", "--d", "6", "--elem", "1/4")
    assert code == 0
    assert json.loads(out) == {"unit": True, "sign": 1, "exponents": [-2, 0],
                               "subgroupT": None}


def test_units_non_unit(capsys):
    code, out, _ = run(capsys, "units", "--d", "6", "--elem", "5/6")
    assert code == 0
    assert json.loads(out) == {"unit": False}


@pytest.mark.parametrize("num,want", [
    (-2 ** 69 * 3 ** 40, {"unit": True, "sign": -1, "exponents": [68, 39], "subgroupT": None}),
    (6 * (2 ** 127 - 1), {"unit": False}),
], ids=["unit", "prime-factor"])
def test_units_forty_digit_numerator(capsys, num, want):
    # |m| is never factored: trial division of 6 (2^127 - 1) would not end
    assert len(str(abs(num))) == 40
    code, out, _ = run(capsys, "units", "--d", "6", f"--elem={num}/6")
    assert code == 0
    assert json.loads(out) == want


def test_units_25_digit_prime_d_answers_at_once(capsys):
    d = 10 ** 24 + 7  # prime, below the exact Miller-Rabin range
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "units", f"--d={d}", f"--elem=1/{d}")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert json.loads(out) == {"unit": True, "sign": 1, "exponents": [-1], "subgroupT": -1}


@pytest.mark.parametrize("d,cap", [
    (100000000000031 * 100000000000067, "rho steps"),
    (2 ** 89 - 1, "Miller-Rabin is exact below"),
], ids=["two-15-digit-primes", "27-digit-prime"])
def test_units_d_past_the_factoring_caps_is_exit_2(capsys, d, cap):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "units", f"--d={d}", "--elem=1")
    assert time.perf_counter() - t0 < 2
    _one_line_error(code, out, err, 2, "usage")
    assert cap in json.loads(err)["message"]


D_PAST_RHO = 30000000000018200000000002759  # two 15-digit primes: rho does not split it


def test_units_non_unit_of_an_unfactored_d(capsys):
    # gcd peeling proves 7 a non-unit without factoring d
    code, out, _ = run(capsys, "units", f"--d={D_PAST_RHO}", "--elem=7")
    assert code == 0
    assert json.loads(out) == {"unit": False}


def test_units_unit_of_an_unfactored_d_is_exit_2(capsys):
    code, out, err = run(capsys, "units", f"--d={D_PAST_RHO}", f"--elem={D_PAST_RHO}")
    _one_line_error(code, out, err, 2, "usage")
    assert "rho steps" in json.loads(err)["message"]


def test_symmetries_of_y80_compose_no_maps(capsys, monkeypatch):
    # the group comes from the congruences alone; composition is only the oracle
    from henonlab import maps, symmetry

    def refuse(*args):
        raise AssertionError("symmetry detection composed polynomial maps")
    monkeypatch.setattr(maps, "compose_poly_maps", refuse)
    monkeypatch.setattr(symmetry, "symbolic_symmetry_check", refuse)
    code, out, _ = run(capsys, "symmetries", "--map", json.dumps({"d": 80, "p": [0] * 79, "a": 3}))
    assert code == 0
    doc = json.loads(out)
    assert (doc["k"], doc["kPrime"], doc["case"], doc["modulus"]) == (6399, 6399, "ii", 6399)
    assert doc["exponents"] == list(range(6399))


def test_formal_q_of_a_degree_200_map_answers(capsys):
    # p = y^200 + 2 y^198 + 1: the formal Q reads one series per power of phi
    m = json.dumps({"d": 200, "p": [1] + [0] * 197 + [2, 0, 1], "a": 3})
    code, out, _ = run(capsys, "derive-q", "--map", m)
    assert code == 0 and len(json.loads(out)["A"]) == 200
    code, out, _ = run(capsys, "symmetries", "--map", m)
    assert code == 0 and json.loads(out)["modulus"] == 200 ** 2 - 1


@pytest.mark.parametrize("cmd", ["derive-q", "symmetries"])
def test_formal_q_of_a_dense_degree_100_map_is_exit_2(capsys, cmd):
    # a_k = k + 1: d * products = 1.7e7, which took 5.3 s uncapped
    m = json.dumps({"d": 100, "p": list(range(1, 100)), "a": 3})
    t0 = time.perf_counter()
    code, out, err = run(capsys, cmd, "--map", m)
    assert time.perf_counter() - t0 < 1
    _one_line_error(code, out, err, 2, "usage")
    assert "d * products = 16665000, past the cap 5000000" in json.loads(err)["message"]


def test_formal_q_of_30_digit_coefficients_is_exit_2(capsys):
    # dense d = 60: 2.2e6 products of 100-bit coefficients weigh 4.6 each; it took 4.4 s uncapped
    rng = random.Random(60)
    p = [f"{rng.choice('-+')}{rng.randrange(10 ** 29, 10 ** 30)}/{rng.randrange(10 ** 29, 10 ** 30)}"
         for _ in range(59)]
    t0 = time.perf_counter()
    code, out, err = run(capsys, "derive-q", "--map", json.dumps({"d": 60, "p": p, "a": 3}))
    assert time.perf_counter() - t0 < 1
    _one_line_error(code, out, err, 2, "usage")
    assert re.search(r"past the cap 5000000, .* b = 100 bits", json.loads(err)["message"])


@pytest.mark.parametrize("cmd", ["derive-q", "symmetries"])
def test_formal_q_of_a_dense_float_degree_200_map_is_exit_2(capsys, cmd):
    # a_k = k + 1.0: 1.3e6 float products weigh 11 each; it took 4.8-8.7 s uncapped
    m = json.dumps({"d": 200, "p": [k + 1.0 for k in range(199)], "a": 3})
    t0 = time.perf_counter()
    code, out, err = run(capsys, cmd, "--map", m)
    assert time.perf_counter() - t0 < 1
    _one_line_error(code, out, err, 2, "usage")
    assert "products * 11 = 14666300, past the cap 5000000" in json.loads(err)["message"]


@pytest.mark.parametrize("d, p", [
    (60, list(range(1, 60))), (74, list(range(1, 74))), (200, [1] + [0] * 197 + [2, 0, 1]),
    (2, [1]), (3, [1, 0]), (4, [0, 0, 1]),  # the lift-exact maps
    (20, ["1/3"] * 19), (8, [[1, 2], "1/2-1i", "7/9", 0, 5, "10/3", "3/4"]),
    (100, [k + 1.0 for k in range(99)]), (139, [k + 1.0 for k in range(138)]),
    (40, [[0.5, 0.25]] * 39),  # as costly as the costliest float map of the other tests
])
def test_formal_q_cap_admits(d, p):
    # the dense float d = 139 (1.9-2.5 s) is the costliest of these
    m = parse_map(json.dumps({"d": d, "p": p, "a": 3}))
    s = [(d - k, c) for k, c in enumerate(field(m.coeffs)) if not is_zero(c)]
    assert boettcher._formal_cost(d, s, m.exact)[0] <= boettcher._FORMAL_CAP


def test_fit_past_its_cost_cap_is_exit_2(capsys):
    # 922 digits on 206 walks (a real map): digits^2 * walks * d = 3.5e10, 3.9-5.8 s uncapped
    m = json.dumps({"d": 200, "p": [0] * 199, "a": 1e300})
    t0 = time.perf_counter()
    code, out, err = run(capsys, "derive-q", "--map", m, "--strategy", "fit")
    assert time.perf_counter() - t0 < 1
    _one_line_error(code, out, err, 2, "usage")
    assert "digits^2 * walks * d = 35023460800, past the cap 5000000000" \
        in json.loads(err)["message"]


def test_formal_q_of_y316_plus_2y_answers(capsys):
    # one nonzero a_j, of order 315 in 1/y: the recurrence makes 3 products
    m = json.dumps({"d": 316, "p": [0, 2] + [0] * 313, "a": 3})
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "derive-q", "--map", m)
    assert time.perf_counter() - t0 < 1
    assert code == 0 and len(json.loads(out)["A"]) == 316


NAN_A = '{"d":4,"p":[0,0,1e300],"a":3}'  # a_2 = 1e300 overflows the float solve: A_1 is NaN


@pytest.mark.parametrize("argv", [
    ["derive-q", "--map", NAN_A], ["symmetries", "--map", NAN_A],
    ["lift", "deck", "--map", NAN_A, "--k", "1", "--n", "1", "--point", "0,2"],
    # gamma grows by (a/d)^60 past the float range
    ["lift", "iterate", "--map", M2, "--e", "1", "--gamma", "1e300", "--n", "60",
     "--direction", "plus"],
], ids=["derive-q", "symmetries", "deck", "iterate"])
def test_non_finite_result_is_exit_3(capsys, argv):
    _one_line_error(*run(capsys, *argv), 3, "overflow")


def test_lift_deck(capsys):
    code, out, _ = run(capsys, "lift", "deck", "--map", M2, "--k", "1",
                       "--n", "1", "--point", "0,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["image"][0][0] == pytest.approx(32 / 3)
    assert doc["image"][1][0] == pytest.approx(-2.0)


def test_lift_push(capsys):
    code, out, _ = run(capsys, "lift", "push", "--map", M3, "--e", "1",
                       "--gamma", "7/3", "--direction", "plus")
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == 3 and doc["gamma"] == [7.0, 0.0]


R35 = Fraction(3, 2) ** 35  # r = a/d for M2; its float times 3 rounds twice


@pytest.mark.parametrize("gamma,want", [
    ("3", [float(3 * R35), 0.0]), ("3/1", [float(3 * R35), 0.0]),
    ("1+2i", [float(R35), float(2 * R35)]), ("[1, 2]", None),
])
def test_lift_gamma_reads_the_one_scalar_grammar(capsys, gamma, want):
    # an integer gamma is exact like a fraction one: gamma_35 = (3/2)^35 gamma, rounded once
    code, out, err = run(capsys, "lift", "iterate", "--map", M2, "--e", "1",
                         f"--gamma={gamma}", "--direction", "plus", "--n", "35")
    if want is None:
        _one_line_error(code, out, err, 2, "usage")
    else:
        assert code == 0 and json.loads(out)["gamma"] == want


@pytest.mark.parametrize("direction,code", [("plus", 3), ("minus", 0)])
def test_lift_iterate_of_a_huge_n_answers_at_once(capsys, direction, code):
    # r^n past 10^6 bits is taken in doubles: r = 3 overflows, r = 1/3 underflows
    t0 = time.perf_counter()
    got, out, err = run(capsys, "lift", "iterate", "--map", M3, "--e", "2", "--gamma", "7/3",
                        "--direction", direction, "--n", "100000000")
    assert time.perf_counter() - t0 < 2
    if code:
        _one_line_error(got, out, err, 3, "overflow")
    else:
        assert got == 0 and json.loads(out)["gamma"] == [0.0, 0.0]


def test_lift_iterate_of_gamma_0_at_a_huge_n_is_0(capsys):
    # c_alpha = 0 on y^3, a = 9, so every gamma_n is 0, however far 3^n is past the float range
    code, out, _ = run(capsys, "lift", "iterate", "--map", M3, "--gamma", "0", "--n", "100000000",
                       "--direction", "plus", "--e", "2")
    assert code == 0 and json.loads(out)["gamma"] == [0.0, 0.0]


def test_lift_iterate_plus(capsys):
    code, out, _ = run(capsys, "lift", "iterate", "--map", M3, "--e", "1",
                       "--gamma", "7/3", "--direction", "plus", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    # r = a/d = 3 and c_alpha = 0 (A_0 = 0): gamma_2 = 9 * 7/3
    assert doc["e"] == 1 and doc["gamma"] == [21.0, 0.0]


@pytest.mark.parametrize("argv", [
    ("green", "--budget=-3"), ("green", "--minus", "--budget=-3"),
    ("green", "--target-error", "nan"), ("green", "--target-error", "inf"),
    ("green", "--target-error", "0"), ("green", "--minus", "--target-error", "nan"),
    ("green", "--minus", "--target-error", "inf"),
], ids=["budget", "minus-budget", "nan", "inf", "zero", "minus-nan", "minus-inf"])
def test_green_rejects_invalid_budget_and_target(capsys, argv):
    _one_line_error(*run(capsys, *argv, "--map", M2, "--point", "0,10"), 2, "usage")


def test_slice_export(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 8, "gridH": 8, "extent": 3},
    }))
    out_path = tmp_path / "g.json"
    code, out, _ = run(capsys, "slice", "--config", str(cfg), "--c", "1",
                       "--out", str(out_path), "--format", "json")
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["greenPlus"]) == 64


def test_slice_config_map_path_reads_like_map_option(tmp_path, capsys):
    map_path = tmp_path / "m.json"
    map_path.write_text('{"d":2,"p":[-1.2],"a":0.3}')
    window = {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1], "gridW": 8, "gridH": 8}
    exports = []
    for spec in (str(map_path), {"d": 2, "p": [-1.2], "a": 0.3}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map": spec, "slice": window}))
        out_path = tmp_path / "g.csv"
        code, _, err = run(capsys, "slice", "--config", str(cfg), "--c", "1",
                           "--out", str(out_path), "--format", "csv")
        assert code == 0, err
        exports.append(out_path.read_bytes())
    assert exports[0] == exports[1]


# Two d = 8 maps whose old sampled filtration radius did not double |y|
# forwards (classify divided by y = 0 inside V_R+) or |x| backwards (green
# --minus returned -2.5e-73 for a bounded backward orbit).
D8_FORWARD = ('{"d":8,"p":[[0,0],[0,0],[-0.7698788777547483,-1.9123799035882378],'
              '[-2.0239828778404876,-1.7508550792741673],[0,0],'
              '[-2.7354764940546,1.6200064163264472],[0,0]],'
              '"a":[-0.05215380121212693,-0.005786613051275247]}')
D8_BACKWARD = ('{"d":8,"p":[[-0.47406930307270434,-2.3085276611192738],[0,0],'
               '[-1.3779297636279397,2.863617057148816],[0,0],[0,0],'
               '[1.6499715482236068,0.28208535527097567],'
               '[1.7747752332969426,0.6957433724376703]],'
               '"a":[-22.89118005812839,-0.3125845303110205]}')


def test_classify_d8_point_is_bounded_within_budget(capsys):
    code, out, _ = run(capsys, "classify", "--map", D8_FORWARD, "--point",
                       "0.0757965235710465-0.038072463359466485i,"
                       "1.5436296220362746-0.047198134853721346i")
    assert code == 0
    assert json.loads(out)["status"] == "bounded-within-budget"


def test_green_minus_d8_bounded_orbit_exhausts_budget(capsys):
    code, out, _ = run(capsys, "green", "--minus", "--map", D8_BACKWARD, "--point",
                       "0.6074954358611482-1.746114175868503i,"
                       "0.635390977042096-1.2950572371718219i")
    assert code == 0
    doc = json.loads(out)
    assert doc["budgetExhausted"] is True and doc["value"] >= 0


def test_budget_exhausted_green_carries_a_bound(capsys):
    # at budget 1 the walk has not entered V_R+; the full walk gives G+ = 0.3255
    args = ("green", "--map", M2, "--point", "0.5,1.2")
    doc = json.loads(run(capsys, *args, "--budget", "1")[1])
    full = json.loads(run(capsys, *args)[1])
    assert doc["budgetExhausted"] is True and doc["value"] == 0.0
    assert not full["budgetExhausted"]
    assert full["value"] + full["errorBound"] <= doc["errorBound"] < math.inf


# -- exit codes --------------------------------------------------------------

def test_bad_subcommand_is_usage_error(capsys):
    _one_line_error(*run(capsys, "frobnicate"), 2, "usage")


def test_missing_required_argument_is_one_json_line(capsys):
    _one_line_error(*run(capsys, "classify", "--point", "0,0"), 2, "usage")


def test_negative_point_as_separate_word_points_to_equals_form(capsys):
    code, out, err = run(capsys, "green", "--map", M2, "--point", "-1,2")
    _one_line_error(code, out, err, 2, "usage")
    assert "--point=-1,2" in json.loads(err)["message"]


def test_help_still_exits_0(capsys):
    code, out, _ = run(capsys, "green", "--help")
    assert code == 0 and "--point" in out


def test_selftest_lines_carry_wall_time(capsys, monkeypatch):
    from henonlab import selfcheck
    checks = [lambda: selfcheck.CheckResult("ok", True, "fine"),
              lambda: selfcheck.CheckResult("bad", False, "off")]
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", checks)
    code, out, _ = run(capsys, "selftest")
    assert code == 5
    assert re.fullmatch(r"PASS ok: fine \(\d+\.\d\d s\)\nFAIL bad: off \(\d+\.\d\d s\)\n", out)


def test_bad_map_is_usage_error(capsys):
    assert run(capsys, "classify", "--map", "{broken", "--point", "0,0")[0] == 2


def test_domain_error_is_exit_3(capsys):
    code, _, err = run(capsys, "boettcher", "--map", M2, "--point", "0,1")
    assert code == 3
    assert json.loads(err)["error"] == "domain"


def test_overflow_is_exit_3(capsys):
    code, out, err = run(capsys, "lift", "deck", "--map", M2, "--k", "1",
                         "--n", "40", "--point", "0,2")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "overflow"


@pytest.mark.parametrize("argv", [
    ["classify", "--map", '{"d": 4, "p": [[0.0, 0.0], [0.0, 0.0], [0.0, 1e+300]], '
     '"a": [0.0, 2.756705697074009e-211]}', "--point=0.0+1.0i,0.0"],
    ["green", "--minus", "--map", '{"d": 8, "p": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], '
     '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1e+300], [0.0, 1.0], [0.0, 1.0]], '
     '"a": [1e-19, 0.0]}', "--point=0.0,0.0", "--budget=1"],
], ids=["classify", "green-minus"])
def test_walk_past_the_float_range_is_exit_3(capsys, argv):
    # one step overflows to inf: no finite bound exists, so no potential is reported
    code, out, err = run(capsys, *argv)
    _one_line_error(code, out, err, 3, "overflow")


def _slice_is_exit_3(tmp_path, capsys, doc, fmt, kind):
    """slice exits 3 with one JSON line of the given kind and writes no --out."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out_path = tmp_path / f"g.{fmt}"
    code, out, err = run(capsys, "slice", "--config", str(cfg), "--c", "1",
                         "--out", str(out_path), "--format", fmt)
    _one_line_error(code, out, err, 3, kind)
    assert not out_path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json", "pgm"])
def test_slice_window_overflow_is_exit_3(tmp_path, capsys, fmt):
    _slice_is_exit_3(tmp_path, capsys, {
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1e308, 0], "spanV": [0, 1],
                  "gridW": 8, "gridH": 8, "extent": 3},
    }, fmt, "domain")


@pytest.mark.parametrize("fmt", ["csv", "json", "pgm"])
def test_slice_walk_past_the_float_range_is_exit_3(tmp_path, capsys, fmt):
    # a = 1e300 sends every pixel near (1e10, 1) to inf in one step, where
    # `green` and `classify` exit 3 too; the grid used to export inf
    _slice_is_exit_3(tmp_path, capsys, {
        "map": {"d": 2, "p": [0], "a": 1e300},
        "slice": {"origin": [1e10, 1], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 4, "gridH": 4, "extent": 3},
    }, fmt, "overflow")


@pytest.mark.parametrize("c,extent,code,kind", [
    ("nan", 3, 2, "usage"), ("inf", 3, 2, "usage"), ("1", math.inf, 3, "domain")],
    ids=["c-nan", "c-inf", "extent-inf"])
def test_slice_non_finite_level_or_extent_is_one_json_line(tmp_path, capsys, c, extent,
                                                           code, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 4, "gridH": 4, "extent": extent},
    }))
    out_path = tmp_path / "g.pgm"
    _one_line_error(*run(capsys, "slice", "--config", str(cfg), f"--c={c}",
                         "--out", str(out_path), "--format", "pgm"), code, kind)
    assert not out_path.exists()


@pytest.mark.parametrize("budget", [-1, 1.5, "x", None, True])
def test_slice_budget_must_be_a_non_negative_integer(tmp_path, capsys, budget):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 4, "gridH": 4, "extent": 3},
        "budget": budget,
    }))
    _one_line_error(*run(capsys, "slice", "--config", str(cfg), "--c", "1",
                         "--out", str(tmp_path / "g.csv"), "--format", "csv"), 2, "usage")


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_slice_out_that_cannot_be_opened_is_exit_2(tmp_path, capsys, where):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 4, "gridH": 4, "extent": 3},
    }))
    out_path = tmp_path / "no-such-dir" / "g.csv" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "slice", "--config", str(cfg), "--c", "1",
                         "--out", str(out_path), "--format", "csv")
    _one_line_error(code, out, err, 2, "usage")
    assert str(out_path) in json.loads(err)["message"]


def test_slice_too_large_to_allocate_is_exit_2(tmp_path, capsys, monkeypatch):
    # a 200000^2 grid needs petabytes; the allocation is faked here, never made
    import numpy as np
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape).tolist()) > 10 ** 9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real_empty(shape, *args, **kwargs)
    monkeypatch.setattr(np, "empty", empty)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 200000, "gridH": 200000, "extent": 3},
    }))
    out_path = tmp_path / "g.csv"
    code, out, err = run(capsys, "slice", "--config", str(cfg), "--c", "1",
                         "--out", str(out_path), "--format", "csv")
    _one_line_error(code, out, err, 2, "memory")
    assert "Unable to allocate" in json.loads(err)["message"]
    assert not out_path.exists()


def test_slice_and_green_minus_do_not_load_boettcher(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "g.csv"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1],
                  "gridW": 16, "gridH": 16, "extent": 3},
    }))
    script = f"""
import contextlib, io, json, sys
import henonlab.cli, henonlab.grid

def loaded():
    return "henonlab.boettcher" in sys.modules

seen = []
for argv in (["slice", "--config", {str(cfg)!r}, "--c", "1", "--out", {str(out)!r},
              "--format", "csv"],
             ["green", "--minus", "--map", {M2!r}, "--point", "0.5,1.2"],
             ["green", "--map", {M2!r}, "--point", "0,1e6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert henonlab.cli.main(argv) == 0, argv
    seen.append(loaded())
print(json.dumps(seen))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    slice_loads, minus_loads, plus_loads = json.loads(proc.stdout)
    assert not slice_loads and not minus_loads
    assert plus_loads  # the refined G+ needs it


@pytest.mark.parametrize("point", ["inf,0", "1e400,0", "0,infi", "nan,1"])
def test_non_finite_point_is_exit_2(capsys, point):
    code, out, err = run(capsys, "green", "--map", M2, "--point", point)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"


def test_non_finite_map_coefficient_is_exit_2(capsys):
    code, _, err = run(capsys, "green", "--map", '{"d":2,"p":[Infinity],"a":3}',
                       "--point", "0,1")
    assert code == 2 and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "usage"


def _one_line_error(code, out, err, expected_code, kind):
    assert code == expected_code and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == kind


@pytest.mark.parametrize("elem", ["1/5", "1/0"])
def test_units_outside_ring_is_exit_2(capsys, elem):
    _one_line_error(*run(capsys, "units", "--d", "6", "--elem", elem), 2, "usage")


@pytest.mark.parametrize("elem", ["1+2i", "1.5", "3.0", "1e5"])
def test_units_takes_only_a_real_exact_elem(capsys, elem):
    code, out, err = run(capsys, "units", "--d", "6", f"--elem={elem}")
    _one_line_error(code, out, err, 2, "usage")
    assert json.loads(err)["message"] == f"--elem must be an integer or 'p/q', got {elem!r}"


def test_units_reads_the_one_scalar_grammar(capsys):
    # a Gaussian string with a zero imaginary part is its real part
    for elem in ("4/6", "4/6+0i", " 2/3 "):
        code, out, _ = run(capsys, "units", "--d", "6", f"--elem={elem}")
        assert code == 0
        assert json.loads(out) == {"unit": True, "sign": 1, "exponents": [1, -1],
                                   "subgroupT": None}


def test_symmetries_inconsistent_counts_is_exit_3(capsys, monkeypatch):
    # one lift-compatible exponent where the map has eight symmetries: k > k'
    from henonlab import symmetry
    monkeypatch.setattr(symmetry, "compute_L_prime", lambda q: [RootOfUnity(0, 8)])
    _one_line_error(*run(capsys, "symmetries", "--map", M3), 3, "domain")


def test_sextic_fit_sizes_its_own_digits_and_digits_is_a_usage_error(capsys):
    sextic = '{"d":6,"p":[0,0,0,0,1],"a":3}'
    docs = []
    for strat in ("formal", "fit"):
        code, out, _ = run(capsys, "derive-q", "--map", sextic, "--strategy", strat)
        assert code == 0
        docs.append(json.loads(out)["A"])
    assert len(docs[1]) == 6
    for a_formal, a_fit in zip(*docs):
        assert abs(complex(*a_formal) - complex(*a_fit)) <= 1e-8
    code, out, err = run(capsys, "derive-q", "--map", sextic, "--strategy", "fit",
                         "--digits", "20")
    _one_line_error(code, out, err, 2, "usage")
    assert "--digits" in json.loads(err)["message"]


def test_valid_threads_env_ok(capsys, monkeypatch):
    monkeypatch.setenv("HENON_LAB_THREADS", "4")
    assert run(capsys, "units", "--d", "2", "--elem", "2")[0] == 0


def _cli(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "henonlab.cli", *argv],
                          text=True, timeout=60, **kwargs)


def test_console_entry_point_runs():
    """Each exit code through `run`: one JSON line, on stdout for 0, else on stderr."""
    # every command sizes its own precision, so exit 4 comes from a child
    # whose phi_mp cannot resolve its winding
    unresolved = ("from henonlab import boettcher, cli, errors\n"
                  "def unresolved(*args):\n"
                  "    raise errors.PrecisionError('phi_mp winding not resolved')\n"
                  "boettcher.phi_mp = unresolved\n"
                  "cli.run()\n")
    cli = ["-m", "henonlab.cli"]
    for want, kind, argv in [
            (0, None, [*cli, "units", "--d", "6", "--elem", "4/6"]),
            (2, "usage", [*cli, "units", "--d", "6", "--elem", "1/5"]),
            (3, "overflow", [*cli, "lift", "deck", "--map", M2, "--k", "1", "--n", "40",
                             "--point", "0,2"]),
            (4, "precision", ["-c", unresolved, "boettcher", "--map", M2, "--point", "0,10"])]:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=60)
        if want == 0:
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            assert len(proc.stdout.splitlines()) == 1
            assert json.loads(proc.stdout)["unit"] is True
        else:
            _one_line_error(proc.returncode, proc.stdout, proc.stderr, want, kind)


def test_run_keeps_atexit_handlers_and_flushes_after_them(tmp_path):
    marker = tmp_path / "marker"
    child = ("import atexit, sys\n"
             "atexit.register(lambda path=sys.argv[1]: open(path, 'w').close())\n"
             "atexit.register(print, 'handler')\n"
             "sys.argv[1:] = ['units', '--d', '6', '--elem', '4/6']\n"
             "import henonlab.cli\n"
             "henonlab.cli.run()\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", child, str(marker)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    first, last = proc.stdout.splitlines()
    assert json.loads(first)["unit"] is True and last == "handler"
    assert marker.exists()


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"]["henonlab"] == "henonlab.cli:run"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["units", "slice"])
def test_closed_stdout_is_exit_2_with_one_json_line(tmp_path, command, buffered):
    # buffered, the result waits for the final flush in `run`; unbuffered, `_emit` fails
    cfg = tmp_path / "slice.json"
    cfg.write_text(json.dumps({"map": json.loads(M2), "slice": {
        "origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1], "gridW": 16, "gridH": 16}}))
    argv = {"units": ["units", "--d", "6", "--elem", "4/6"],
            "slice": ["slice", "--config", str(cfg), "--c", "1",
                      "--out", str(tmp_path / "o.csv"), "--format", "csv"]}[command]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli(*argv, stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    _one_line_error(proc.returncode, "", proc.stderr, 2, "usage")
    assert "Broken pipe" in json.loads(proc.stderr)["message"]


def test_closed_stdout_and_stderr_is_a_silent_exit_2():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli("units", "--d", "6", "--elem", "4/6", stdout=write, stderr=write)
    finally:
        os.close(write)
    assert proc.returncode == 2


_NO_MPMATH = """
import sys
import henonlab.cli as cli
unloaded = ("mpmath", "numpy", "orjson")
assert not [mod for mod in unloaded if mod in sys.modules], "import henonlab.cli"
cfg, out, m = sys.argv[1], sys.argv[2], sys.argv[3]
for argv in (["green", "--map", m, "--point", "0,100"],
             ["green", "--minus", "--map", m, "--point", "100,0"],
             ["classify", "--map", m, "--point", "0,0"],
             ["units", "--d", "6", "--elem", "4/6"],
             ["symmetries", "--map", m], ["derive-q", "--map", m],
             ["lift", "iterate", "--map", m, "--e", "1", "--gamma", "1/2", "--n", "3"]):
    assert cli.main(argv) == 0, argv
    assert not [mod for mod in unloaded if mod in sys.modules], argv
assert cli.main(["slice", "--config", cfg, "--c", "1", "--out", out + ".pgm", "--format", "pgm"]) == 0
assert not [mod for mod in ("mpmath", "orjson") if mod in sys.modules], "pgm slice"
assert cli.main(["slice", "--config", cfg, "--c", "1", "--out", out, "--format", "csv"]) == 0
assert "mpmath" not in sys.modules and "numpy" in sys.modules, "slice"
import henonlab
assert sorted(henonlab.__all__) == henonlab.__all__ and len(henonlab.__all__) > 40
missing = [name for name in henonlab.__all__ if getattr(henonlab, name, None) is None]
assert missing == [], missing
"""


def test_commands_without_mpmath_work_do_not_load_it(tmp_path):
    """In a fresh interpreter; of these commands only slice loads numpy, and
    only a CSV or JSON slice orjson."""
    cfg = tmp_path / "slice.json"
    cfg.write_text(json.dumps({"map": json.loads(M2), "slice": {
        "origin": [0, 0], "spanU": [1, 0], "spanV": [0, 1], "gridW": 16, "gridH": 16}}))
    out = tmp_path / "o.csv"
    proc = subprocess.run([sys.executable, "-c", _NO_MPMATH, str(cfg), str(out), M2],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0
