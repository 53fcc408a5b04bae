"""Record the references the benchmark checks against, at the default seed.

Run from the checkout root with ``src`` on the path::

    PYTHONPATH=src python3 perfbench/record_refs.py

It runs every operation of every workload once at seed 0 and writes
``perfbench/refs/seed0.json``: scalar G+/G- values with their error
bounds, sha256 digests of the slice exports (the far-field window is left
out: its output is a known defect), and result summaries of lift-exact.
References are recorded at the commit that defines them; a change that
claims a speed-up must pass against them unchanged.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def dump(refs: dict) -> str:
    """JSON with one reference per line, so that diffs stay readable."""
    parts = []
    for section, value in sorted(refs.items()):
        if not isinstance(value, dict):
            parts.append(f"{json.dumps(section)}: {json.dumps(value)}")
            continue
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(value.items())]
        parts.append(f"{json.dumps(section)}: {{\n" + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    workloads.load_refs = lambda: {"scalar": {}, "slice": {"slice-sample": {},
                                                           "slice-export": {}}, "lift": {}}
    work = Path.cwd() / ".perfbench_work" / "record"
    refs = {"seed": workloads.DEFAULT_SEED, "scalar": {}, "slice": {}, "lift": {}}

    wl = workloads.ScalarPotential(workloads.DEFAULT_SEED)
    for op in wl.ops:
        refs["scalar"].update(wl.reference_records(op, wl.run(op)))

    for cls in (workloads.SliceSample, workloads.SliceExport):
        wl = cls(workloads.DEFAULT_SEED, workdir=work / cls.name)
        wl.use_cli_process = False
        pins = {}
        for op in wl.ops:
            if op[0] in wl.defect_windows:
                continue
            result = wl.run(op)
            if result.code != 0:
                raise SystemExit(f"{cls.name} {op} exited {result.code}: {result.stderr}")
            pins[f"{op[0]}.{op[1]}"] = workloads._sha256(result.out.read_bytes())
        refs["slice"][cls.name] = pins
        wl.cleanup()

    wl = workloads.LiftExact(workloads.DEFAULT_SEED)
    for op in wl.ops:
        refs["lift"].update(wl.reference_records(op, wl.run(op)))

    shutil.rmtree(work, ignore_errors=True)
    out = HERE / "refs" / "seed0.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(dump(refs), encoding="utf-8")
    print(f"wrote {out}: {len(refs['scalar'])} scalar, "
          f"{sum(len(v) for v in refs['slice'].values())} slice, {len(refs['lift'])} lift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
