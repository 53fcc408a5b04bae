"""henonlab benchmark: one workload, one seed, one line of JSON metrics.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload scalar-potential --seed 0 --seconds 10 --trace 0

Workloads: scalar-potential, slice-sample, slice-export, lift-exact (see
perfbench/README.md).  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` the per-layer ones from a traced run.  The last
line of standard output is always the JSON result; the lines before it
are a readable report (machine stamp, every metric with unit and sample
count, failures by kind and by known defect).

``setup_s`` is the median over several fresh interpreters, each importing
``henonlab.cli`` and building the workload's inputs; the last of them goes
on to run the timed loop.  Every timing is scaled to a reference host
speed (see ``hostspeed.py``); the report prints the unscaled figures too.
Peak memory comes from ``os.wait4``: of that worker for the in-process
workloads, of the largest CLI child otherwise.

``failed`` counts operations that failed the correctness gate in a way no
known defect explains; known-defect outcomes are counted in the report's
``fail_ratio`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scalar-potential", "slice-sample", "slice-export", "lift-exact")
INPROCESS = ("scalar-potential", "lift-exact")
SETUP_PROBES = 8          # fresh interpreters that only set up; plus the worker
CHILD_LIMIT_S = 160.0     # a worker running longer than this is killed


def machine_stamp(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "HENON_LAB_THREADS": os.environ.get("HENON_LAB_THREADS", "unset"),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


class Child:
    """A worker process whose READY line is timed and whose rusage is kept."""

    def __init__(self, cmd, env):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        self._timer = threading.Timer(CHILD_LIMIT_S, self.proc.kill)
        self._timer.start()
        self.ready_s = None
        self.ready = None

    def wait_ready(self):
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self.t0
        if line.startswith("READY "):
            self.ready = json.loads(line[6:])
        return self.ready

    def finish(self):
        """Drain both pipes, reap the process, return (stdout, stderr, rusage)."""
        out, err = [], []
        t = threading.Thread(target=lambda: err.append(self.proc.stderr.read()))
        t.start()
        out.append(self.proc.stdout.read())
        t.join()
        _, status, rusage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._timer.cancel()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return out[0], err[0], rusage


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 1


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(rows, stamp):
    print(f"# henonlab benchmark  {json.dumps(stamp)}")
    print(f"# {'metric':46s} {'value':>14s} {'unit':8s} samples")
    for name, value, unit, samples, note in rows:
        print(f"# {name:46s} {value:14.6g} {unit:8s} {samples:<7d} {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs and no pinned references (harness smoke test)")
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "henonlab" / "cli.py").is_file():
        return fail(f"no henonlab sources under {src}; run from the checkout root")
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    stamp = machine_stamp(args)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_unit = {m["name"]: m["unit"] for m in spec["per_layer"]}

    # compile bytecode once, untimed, so that no set-up sample pays for it
    warm = subprocess.run([sys.executable, "-c", "import henonlab.cli"], env=env,
                          capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    if warm.returncode != 0:
        return fail(f"cannot import henonlab.cli:\n{warm.stderr}")

    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.tiny:
        base.append("--tiny")
    setup_s, setup_raw, import_ms = [], [], []

    def setup_sample(child, ready, cal_before):
        cal = (cal_before + hostspeed.calibrate()) / 2.0
        setup_raw.append(child.ready_s)
        setup_s.append(child.ready_s * hostspeed.REF_S / cal)
        import_ms.append(ready["import_ms"])

    for _ in range(SETUP_PROBES):
        cal = hostspeed.calibrate()
        child = Child(base + ["--setup-only"], env)
        ready = child.wait_ready()
        _, err, _ = child.finish()
        if ready is None or child.proc.returncode != 0:
            return fail(f"set-up failed:\n{err}")
        setup_sample(child, ready, cal)

    spans_path = workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    cal = hostspeed.calibrate()
    child = Child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--spans", str(spans_path)], env)
    ready = child.wait_ready()
    out, err, rusage = child.finish()
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if ready is None or child.proc.returncode != 0 or not lines:
        return fail(f"worker failed (exit {child.proc.returncode}):\n{err}")
    setup_sample(child, ready, cal)
    res = json.loads(lines[-1][7:])

    lat, ref = res["latencies"], res["ref_latencies"]
    attempted = len(lat) + len(res["untraced_latencies"])
    known = sum(res["defects"].values())
    inprocess = args.workload in INPROCESS
    rss_kb = rusage.ru_maxrss if inprocess else res["child_rss_kb"]
    per_op = {}
    for k, t in zip(res["op_index"], ref):
        per_op.setdefault(k, []).append(t)
    pass_s = sum(statistics.median(v) for v in per_op.values())
    e2e = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s), "median of fresh interpreters"),
        "ops_per_s": (len(per_op) / pass_s, "1/s", len(ref),
                      f"{len(per_op)} distinct ops at their median latency"),
        "latency_p50_ms": (statistics.median(ref) * 1e3, "ms", len(ref), ""),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1 if inprocess else len(lat),
                        "worker" if inprocess else "largest CLI child"),
    }
    raw = [("raw.setup_s", statistics.median(setup_raw), "s", len(setup_raw), "unscaled"),
           ("raw.ops_per_s", len(lat) / sum(lat), "1/s", len(lat), "unscaled, all ops"),
           ("raw.latency_p50_ms", statistics.median(lat) * 1e3, "ms", len(lat), "unscaled"),
           ("host.speed", hostspeed.REF_S / statistics.median(res["cal_s"]), "ratio",
            len(res["cal_s"]), "reference slice time / measured; timings above are scaled by it")]
    failed = res["n_unexpected"]
    checks = [("fail_ratio", (known + failed) / attempted, "ratio", attempted,
               f"by kind {json.dumps(res['kinds'], sort_keys=True)}")]
    for name, count in sorted(res["defects"].items()):
        checks.append((f"fail_ratio.share.{name}", count / (known + failed), "ratio",
                       known + failed, "known defect, kept in the mix"))
    if res["spot_checks"]:
        checks.append(("checks.spot_checks_done", res["spot_checks"]["done"], "count", 1,
                       f"skipped {res['spot_checks']['skipped']}"))
    if args.trace:
        res["layers"]["cli.import_ms"] = statistics.median(import_ms)
        rows = [(k, v, layer_unit[k], len(lat), "") for k, v in res["layers"].items()]
    else:
        rows = [(k, *v) for k, v in e2e.items()]
        if inprocess and len(ref) >= 2:
            note = "" if len(ref) >= 1000 else "fewer than 1000 samples: not a p99"
            rows.append(("latency_p99_ms", percentile(ref, 99) * 1e3, "ms", len(ref), note))
        rows += raw
    report(rows + checks, stamp)
    if args.trace:
        total = sum(lat)
        print(f"# traced run: {len(lat)} ops, {total:.3f} s in ops; "
              f"spans in {spans_path.relative_to(root)}")
        print(f"# {'layer':46s} {'calls':>9s} {'self_ms':>12s} {'self%':>6s}")
        for name, (calls, self_s) in sorted(res["layer_table"].items(), key=lambda kv: -kv[1][1]):
            print(f"# {name:46s} {calls:9d} {self_s * 1e3:12.2f} {100 * self_s / total:6.1f}")
        print(f"# {'span':46s} {'calls':>9s} {'busy_ms':>12s} {'self_ms':>12s} "
              f"{'self%':>6s} fail")
        for name, (calls, busy, self_s, nfail) in sorted(res["span_table"].items(),
                                                         key=lambda kv: -kv[1][2]):
            print(f"# {name:46s} {calls:9d} {busy * 1e3:12.2f} {self_s * 1e3:12.2f} "
                  f"{100 * self_s / total:6.1f} {nfail}")
    if failed:
        print(f"# UNEXPECTED failures: {failed}, e.g. {res['unexpected']}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit[k]} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in e2e.items()}
    # known-defect outcomes were checked to be exactly their defect: they
    # count in fail_ratio above, not as failures of the run
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
