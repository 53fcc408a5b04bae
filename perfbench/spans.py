"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
recorder replaces a public henonlab function in every henonlab module
namespace that holds it, so both the benchmark's calls and henonlab's own
module-global lookups (``potential`` calling ``phi_tail_bound``, ``grid``
calling ``green_plus_grid``) go through the wrapper.  Calls made inside
the defining module to a name it defines itself are seen too, because
those are module-global lookups as well.  ``maps.evaluate`` is only
counted, per calling module, since it runs millions of times.

A span is ``(name, start, end, parent, op, failed)``; ``op`` is the
operation id the worker loop sets (-1 during set-up).  Nothing is
recorded while ``recording`` is off: after ``uninstall`` (a wrapper the
benchmark kept a reference to may still be called) and while the
benchmark checks a result.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

_STRATEGY = {"formal-series": "formal", "bigfloat-fit": "fit"}


def _derive_name(args, kwargs):
    strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "formal-series")
    return "boettcher.derive_lift_polynomial." + _STRATEGY.get(strategy, str(strategy))


def _export_name(args, kwargs):
    fmt = kwargs.get("fmt", args[1] if len(args) > 1 else "?")
    return f"grid.export_bytes.{fmt}"


def _grid_stats(result, args):
    _, _, escaped = result
    return {"pixels": int(escaped.size), "exhausted": int(escaped.size - escaped.sum())}


def _bytes_stats(result, args):
    return {"bytes": len(result)}


# (module, function, span name or naming function, result hook)
SPANS = (
    ("cli", "main", None, None),
    ("maps", "estimate_filtration_radius", None, None),
    ("potential", "green_plus", None, None),
    ("potential", "green_minus", None, None),
    ("potential", "classify_point", None, None),
    ("potential", "green_plus_grid", None, _grid_stats),
    ("boettcher", "phi_tail_bound", None, None),
    ("boettcher", "phi_product", None, None),
    ("boettcher", "phi_mp", None, None),
    ("boettcher", "psi", None, None),
    ("boettcher", "semiconjugacy_residual", None, None),
    ("boettcher", "derive_lift_polynomial", _derive_name, None),
    ("covering", "push_iterated", None, None),
    ("covering", "deck_eval", None, None),
    ("dyadic", "unit_decompose", None, None),
    ("symmetry", "detect_linear_symmetries", None, None),
    ("symmetry", "classify_aut1", None, None),
    ("grid", "sample_slice", None, None),
    ("grid", "export_bytes", _export_name, _bytes_stats),
    ("grid", "export_grid", None, None),
)
COUNTS = (("maps", "evaluate"),)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stats = {}          # span index -> dict from a result hook
        self.counts = defaultdict(int)
        self.op = -1
        self.recording = False   # off while uninstalled or checking a result
        self._stack = []
        self._patched = []

    # -- wrappers ------------------------------------------------------
    def _span(self, name, fn, hook):
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.recording:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, rec.op, failed)
                if hook is not None and not failed:
                    stats[idx] = hook(result, args)
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.recording:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        """Wrap every target in every loaded henonlab module that holds it."""
        targets = {}
        for mod, fn, name, hook in SPANS:
            orig = getattr(importlib.import_module(f"henonlab.{mod}"), fn)
            targets[id(orig)] = ("span", name or f"{mod}.{fn}", hook, orig)
        for mod, fn in COUNTS:
            orig = getattr(importlib.import_module(f"henonlab.{mod}"), fn)
            targets[id(orig)] = ("count", f"{mod}.{fn}", None, orig)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "henonlab" or modname.startswith("henonlab.")):
                continue
            caller = modname.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                target = targets.get(id(value))
                if target is None or target[3] is not value:
                    continue
                kind, name, hook, orig = target
                if kind == "span":
                    wrapped = self._span(name, orig, hook)
                else:
                    wrapped = self._counter(f"{name}.calls_from_{caller}", orig)
                setattr(module, attr, wrapped)
                self._patched.append((module, attr, orig))
        self.recording = True

    def uninstall(self):
        self.recording = False
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def by_name(self, ops=None):
        """name -> calls, busy seconds, self seconds, failures, hook stats.

        ``ops`` restricts the table to spans of those operation ids.
        """
        table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "fail": 0, "stats": defaultdict(int)})
        selfs = self.self_times()
        for idx, (name, start, end, parent, op, failed) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = table[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += selfs[idx]
            row["fail"] += failed
            for k, v in self.stats.get(idx, {}).items():
                row["stats"][k] += v
        return table

    def by_layer(self, ops=None):
        """layer (module) -> self seconds and calls, from ``by_name``."""
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for name, row in self.by_name(ops).items():
            layer = layers[name.split(".", 1)[0]]
            layer["calls"] += row["calls"]
            layer["self_s"] += row["self_s"]
        return layers

    def write(self, path, stamp: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stamp": stamp, "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, op, failed in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, failed]) + "\n")
