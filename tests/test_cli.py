"""CLI contract: JSON outputs, shared map parser, and exit-code mapping."""

import json
import math
import subprocess
import sys

import pytest

from henonlab.cli import main, parse_map, parse_point, parse_scalar, UsageError

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
    with pytest.raises(UsageError):
        parse_point("1;2")


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
    assert doc["truncation"] == 20
    assert doc["value"][0] == pytest.approx(9.9924877779, abs=1e-6)


Q5 = '{"d":5,"p":[0.3,0,1,"0-1i"],"a":"0.5+0.2i"}'
Q5_BOX = "2.8787828968791693+5.067899959985004i,-5.651937260596624-0.41252814746273536i"


@pytest.mark.parametrize("argv", [
    ("green", "--map", Q5, "--point", Q5_BOX),
    ("green", "--map", Q5, "--point", "0,1e70"),
    ("boettcher", "--map", Q5, "--point", "0,1e70"),
    ("boettcher", "--map", M2, "--point", "0,10", "--trunc", "2000"),
], ids=["quintic-box", "quintic-deep-green", "quintic-deep-boettcher", "trunc-2000"])
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


def test_units_non_unit(capsys):
    code, out, _ = run(capsys, "units", "--d", "6", "--elem", "5/6")
    assert code == 0
    assert json.loads(out) == {"unit": False}


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


# -- exit codes --------------------------------------------------------------

def test_bad_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


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


@pytest.mark.parametrize("fmt", ["csv", "json", "pgm"])
def test_slice_window_overflow_is_exit_3(tmp_path, capsys, fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "map": {"d": 2, "p": [0], "a": 3},
        "slice": {"origin": [0, 0], "spanU": [1e308, 0], "spanV": [0, 1],
                  "gridW": 8, "gridH": 8, "extent": 3},
    }))
    out_path = tmp_path / f"g.{fmt}"
    code, out, err = run(capsys, "slice", "--config", str(cfg), "--c", "1",
                         "--out", str(out_path), "--format", fmt)
    assert code == 3 and out == "" and not out_path.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "domain"


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


def test_bad_threads_env_is_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("HENON_LAB_THREADS", "many")
    assert run(capsys, "units", "--d", "2", "--elem", "2")[0] == 2


def test_valid_threads_env_ok(capsys, monkeypatch):
    monkeypatch.setenv("HENON_LAB_THREADS", "4")
    assert run(capsys, "units", "--d", "2", "--elem", "2")[0] == 0


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "henonlab.cli", "units", "--d", "6", "--elem", "4/6"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["unit"] is True
