"""One benchmark process: set up a workload, then run its closed loop.

Started by ``run.py`` with ``src`` on PYTHONPATH.  The first line it
prints is ``READY {...}`` as soon as set-up is done (import of
``henonlab.cli``, the workload's maps, filtration certificates and seeded
inputs); with ``--setup-only`` it exits there.  Otherwise it runs the
timed loop and prints ``RESULT {...}``.

With ``--trace 1`` every operation runs twice, untraced and then with the
span recorder installed; the difference is the tracing overhead.  Slice
workloads call ``cli.main`` in-process in the traced run, so the recorder
sees inside it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


class Tally:
    """Failures by kind and by known defect, plus the largest CLI child."""

    def __init__(self):
        self.kinds, self.defects = Counter(), Counter()
        self.unexpected, self.n_unexpected = [], 0
        self.rss_kb = 0

    def add(self, wl, op, result, exc, kind):
        self.rss_kb = max(self.rss_kb, getattr(result, "rss_kb", 0))
        if kind is None:
            return
        self.kinds[kind] += 1
        defect = wl.defect(op, kind)
        if defect is not None:
            self.defects[defect] += 1
            return
        self.n_unexpected += 1
        if len(self.unexpected) < 5:
            self.unexpected.append([repr(op), kind, repr(exc) if exc else ""])


def attempt(wl, op, tally: Tally, rec=None) -> tuple:
    """Time one operation, then check it outside the timed region."""
    t0 = time.perf_counter()
    try:
        result, exc = wl.run(op), None
    except Exception as e:  # a failed operation is a measurement, not a crash
        result, exc = None, e
    latency = time.perf_counter() - t0
    if rec is not None:
        rec.recording = False
    try:
        kind = type(exc).__name__ if exc is not None else wl.check(op, result)
    except Exception as e:  # a check that cannot judge a result is an unexpected failure
        kind, exc = f"check-raised:{type(e).__name__}", e
    if rec is not None:
        rec.recording = True
    tally.add(wl, op, result, exc, kind)
    return latency, result, exc


def timed_loop(wl, seconds: float, rec=None) -> dict:
    """Closed loop, one caller: run ops in order until ``seconds`` passed,
    every operation ran at least once and a whole round is done.

    Between operations, outside the timed region, the host speed is
    calibrated every ``hostspeed.PERIOD_S``; ``ref_latencies`` are the
    latencies scaled to the reference host (see ``hostspeed``).

    With a recorder, each operation first runs untraced and then traced,
    back to back, so both see the same warm state and the same machine
    load; the untraced latencies give the tracing overhead.
    """
    tally = Tally()
    lat, untraced, cal_at = [], [], []
    cal_s = [hostspeed.calibrate()]
    last_cal = time.perf_counter()
    steps = iters = 0
    evaluate_key = "maps.evaluate.calls_from_potential"
    begin = time.perf_counter()
    i = 0
    while True:
        op = wl.ops[i % len(wl.ops)]
        if rec is not None:
            rec.uninstall()
            untraced.append(attempt(wl, op, tally)[0])
            rec.install()
            rec.op = i
            before = rec.counts[evaluate_key]
        latency, result, exc = attempt(wl, op, tally, rec)
        lat.append(latency)
        cal_at.append(len(cal_s))
        if rec is not None and exc is None and hasattr(wl, "reported_iterations"):
            steps += rec.counts[evaluate_key] - before
            iters += wl.reported_iterations(result)
        i += 1
        now = time.perf_counter()
        if now - last_cal >= hostspeed.PERIOD_S:  # calls no henonlab code: no spans
            cal_s.append(hostspeed.calibrate())
            last_cal = time.perf_counter()
        if i % wl.round_len == 0 and i >= len(wl.ops) and now - begin >= seconds:
            break
    if rec is not None:
        rec.uninstall()
    cal_s.append(hostspeed.calibrate())
    ref = [t * hostspeed.scale(cal_s, k) for t, k in zip(lat, cal_at)]
    return {"latencies": lat, "ref_latencies": ref, "untraced_latencies": untraced,
            "op_index": [k % len(wl.ops) for k in range(len(lat))], "cal_s": cal_s,
            "kinds": dict(tally.kinds), "defects": dict(tally.defects),
            "unexpected": tally.unexpected, "n_unexpected": tally.n_unexpected,
            "child_rss_kb": tally.rss_kb, "steps": steps, "iterations": iters}


def _ratio(value: float, n: float) -> float:
    return value / n if n else 0.0


def layer_metrics(rec, loop: dict, import_ms: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced loop."""
    n = len(loop["latencies"])
    ops = set(range(n))
    rows = rec.by_name(ops)
    setup_rows = rec.by_name({-1})
    total_s = sum(loop["latencies"])

    def row(name):
        return rows.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0,
                               "stats": {}})

    def ms(name, field="busy_s"):
        return _ratio(row(name)[field] * 1e3, n)

    out = {"cli.import_ms": import_ms}
    filt = setup_rows.get("maps.estimate_filtration_radius", {"calls": 0, "busy_s": 0.0})
    out["maps.estimate_filtration_radius.busy_ms"] = filt["busy_s"] * 1e3
    out["maps.estimate_filtration_radius.calls"] = filt["calls"]
    for caller in ("potential", "boettcher", "maps"):
        key = f"maps.evaluate.calls_from_{caller}"
        out[key] = _ratio(rec.counts.get(key, 0), n)
    gp = row("potential.green_plus")
    out["potential.green_plus.self_ms"] = ms("potential.green_plus", "self_s")
    out["potential.green_plus.calls"] = _ratio(gp["calls"], n)
    out["potential.green_plus.fail_share"] = _ratio(gp["fail"], gp["calls"])
    out["potential.green_minus.self_ms"] = ms("potential.green_minus", "self_s")
    out["potential.classify_point.self_ms"] = ms("potential.classify_point", "self_s")
    out["potential.steps_per_iteration"] = _ratio(loop["steps"], loop["iterations"])
    tb = row("boettcher.phi_tail_bound")
    out["boettcher.phi_tail_bound.busy_ms"] = ms("boettcher.phi_tail_bound")
    out["boettcher.phi_tail_bound.calls"] = _ratio(tb["calls"], n)
    # tail-bound calls made on behalf of green_plus, per green_plus call
    out["boettcher.phi_tail_bound.calls_per_green"] = _ratio(tb["calls"], gp["calls"])
    out["boettcher.phi_tail_bound.share_of_green_plus"] = _ratio(tb["busy_s"], gp["busy_s"])
    out["boettcher.phi_product.busy_ms"] = ms("boettcher.phi_product")
    for name in ("boettcher.derive_lift_polynomial.formal", "boettcher.derive_lift_polynomial.fit",
                 "boettcher.psi", "boettcher.phi_mp", "boettcher.semiconjugacy_residual",
                 "covering.push_iterated", "covering.deck_eval", "dyadic.unit_decompose",
                 "symmetry.detect_linear_symmetries", "symmetry.classify_aut1"):
        out[f"{name}.busy_ms"] = ms(name)
    out["boettcher.phi_mp.calls"] = _ratio(row("boettcher.phi_mp")["calls"], n)
    grid = row("potential.green_plus_grid")
    pixels = grid["stats"].get("pixels", 0)
    out["potential.green_plus_grid.busy_ms"] = ms("potential.green_plus_grid")
    out["potential.green_plus_grid.ns_per_pixel"] = _ratio(grid["busy_s"] * 1e9, pixels)
    out["potential.green_plus_grid.budget_exhausted_share"] = _ratio(
        grid["stats"].get("exhausted", 0), pixels)
    out["potential.green_plus_grid.share_of_op"] = _ratio(grid["busy_s"], total_s)
    out["grid.sample_slice.self_ms"] = ms("grid.sample_slice", "self_s")
    export_s = 0.0
    for fmt in ("csv", "json", "pgm"):
        r = row(f"grid.export_bytes.{fmt}")
        nbytes = r["stats"].get("bytes", 0)
        export_s += r["busy_s"]
        out[f"grid.export_bytes.{fmt}.busy_ms"] = ms(f"grid.export_bytes.{fmt}")
        out[f"grid.export_bytes.{fmt}.bytes"] = _ratio(nbytes, r["calls"])
        out[f"grid.export_bytes.{fmt}.mb_per_s"] = _ratio(nbytes / 1e6, r["busy_s"])
    out["grid.export_bytes.share_of_op"] = _ratio(export_s, total_s)
    out["grid.export_grid.write_ms"] = ms("grid.export_grid", "self_s")
    base = sum(loop["untraced_latencies"])
    out["perfbench.trace_overhead_pct"] = 100.0 * _ratio(total_s - base, base)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = p.parse_args(argv)

    rec = None
    t0 = time.perf_counter()
    import henonlab.cli  # noqa: F401  (timed: every user of the CLI pays it)
    import_ms = (time.perf_counter() - t0) * 1e3
    if args.trace:
        from spans import Recorder
        rec = Recorder()
        rec.install()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny,
                                  workdir=Path(args.workdir) / args.workload)
    print("READY " + json.dumps({"import_ms": import_ms}), flush=True)
    if args.setup_only:
        return 0

    result = {}
    try:
        if rec is None:
            loop = timed_loop(wl, args.seconds)
        else:
            if hasattr(wl, "use_cli_process"):
                wl.use_cli_process = False
            rec.uninstall()
            rec.counts.clear()  # set-up spans stay; set-up counts do not
            loop = timed_loop(wl, args.seconds, rec)
            traced_ops = set(range(len(loop["latencies"])))
            result["layers"] = layer_metrics(rec, loop, import_ms)
            result["span_table"] = {
                name: [row["calls"], row["busy_s"], row["self_s"], row["fail"]]
                for name, row in rec.by_name(traced_ops).items()}
            result["layer_table"] = {
                name: [row["calls"], row["self_s"]]
                for name, row in rec.by_layer(traced_ops).items()}
            if args.spans:
                rec.write(args.spans, {"workload": args.workload, "seed": args.seed})
        result.update(loop)
        result["spot_checks"] = getattr(wl, "spot_checks", None)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
