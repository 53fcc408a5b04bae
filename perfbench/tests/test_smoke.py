"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# slice-sample runs from the same command but is not in BENCHMARK.json
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["slice-sample"]


def _run(cwd, workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert lines[0].startswith("# henonlab benchmark")


def test_known_defects_are_counted_not_hidden():
    proc = _run(ROOT, "slice-export", 0, "--tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0  # only unexpected failures count there
    # far-field window: JSON exits 2, CSV writes inf; both show in the report
    fail_ratio = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# fail_ratio "))
    assert float(fail_ratio.split()[2]) == pytest.approx(2 / result["attempted"])
    assert "far-field-inf-green" in proc.stdout


def test_scale_uses_the_slices_around_an_operation(harness_path):
    import hostspeed
    cal = [1.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    assert hostspeed.scale(cal, 1) == pytest.approx(hostspeed.REF_S / 1.0)
    assert hostspeed.scale(cal, 4) == pytest.approx(hostspeed.REF_S / 4.0)
    assert 0.0 < hostspeed.calibrate() < 1.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "scalar-potential", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_recorder_nests_spans_and_restores_functions():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from henonlab import potential
        from henonlab.maps import HenonMap
        from spans import Recorder
        original = potential.phi_tail_bound
        rec = Recorder()
        rec.install()
        potential.green_plus(HenonMap(2, 3, (0,)), (0.0, 1e6))
        rec.uninstall()
        assert potential.phi_tail_bound is original
        names = [s[0] for s in rec.spans]
        assert names[0] == "potential.green_plus"
        assert "boettcher.phi_tail_bound" in names
        assert all(s[3] == 0 for s in rec.spans[1:])  # children of green_plus
        selfs = rec.self_times()
        total = rec.spans[0][2] - rec.spans[0][1]
        assert 0.0 <= selfs[0] <= total
        assert abs(sum(selfs) - total) < 1e-9
        assert rec.counts["maps.evaluate.calls_from_potential"] >= 1
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.fixture
def harness_path():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.path[:0] = paths
    yield
    for path in paths:
        sys.path.remove(path)


def test_scalar_result_without_reference_is_still_checked(harness_path):
    # a call that raised at the seed has no reference; a fix of its defect
    # must not turn into a harness crash
    import workloads
    wl = workloads.ScalarPotential(workloads.DEFAULT_SEED)
    op = next(op for op in wl.ops
              if op[0] == "quadratic" and wl.points["quadratic"][op[1]][0] == "box")
    for fn in workloads.SCALAR_FNS:
        wl.refs.pop(wl.op_key(op, fn), None)
    results = wl.run(op)
    assert wl.check(op, results) is None
    wl._seen.clear()
    bad = dataclasses.replace(results[0], value=float("inf"))
    assert wl.check(op, [bad, *results[1:]]) == "green_plus:nonfinite-green"


def test_lift_defect_outputs_are_checked_not_pinned(harness_path):
    import workloads
    wl = workloads.LiftExact(workloads.DEFAULT_SEED)
    assert not [k for k in wl.expected if k.startswith(("psi/3/", "semiconj/3/"))]
    assert "psi/2/3" in wl.expected
    call = ("psi", 3, 3)
    assert wl._check_call(call, wl._run_call(call)) is None

