"""Every henonlab name the benchmark in perfbench/ reaches still resolves.

The traced run wraps each (module, function) of ``spans.SPANS`` and
``spans.COUNTS`` by ``getattr``, and the workloads call library names
through module aliases, so deleting or renaming one breaks the benchmark
without failing any other test here.  The files are read, never edited.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(f"henonlab.{module}" if module else "henonlab")
    return hasattr(mod, name)


def _key(expr):
    """'x' for a name x, 'self.x' for an attribute x of self, else None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) \
            and expr.value.id == "self":
        return "self." + expr.attr
    return None


def _workload_names() -> set:
    """(module, name) for every attribute the workloads read off a henonlab
    module, following imports and plain or tuple assignments of modules."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    alias, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "henonlab":
            for a in node.names:
                alias[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("henonlab."):
            names.update((node.module.split(".", 1)[1], a.name) for a in node.names)
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs += zip(target.elts, value.elts)
            else:
                pairs.append((target, value))
    changed = True
    while changed:  # aliases of aliases, in any order of appearance
        changed = False
        for target, value in pairs:
            t, v = _key(target), _key(value)
            if t is not None and v in alias and alias.get(t) != alias[v]:
                alias[t] = alias[v]
                changed = True
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _key(node.value) in alias:
            names.add((alias[_key(node.value)], node.attr))
    for node in tree.body:  # the scalar workload calls getattr(potential, fn) for these
        if isinstance(node, ast.Assign) and _key(node.targets[0]) == "SCALAR_FNS":
            names.update(("potential", fn) for fn in ast.literal_eval(node.value))
    return names


def test_span_and_count_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(mod, fn) for mod, fn, *_ in spans.SPANS] + list(spans.COUNTS)
    assert len(targets) > 10
    assert [t for t in targets if not _resolves(*t)] == []


def test_names_the_workloads_call_resolve():
    names = _workload_names()
    # the aliasing is followed: each workload family is seen
    assert {("covering", "deck_rational"), ("potential", "green_minus"),
            ("cli", "parse_map"), ("symmetry", "classify_aut1")} <= names
    assert sorted(t for t in names if not _resolves(*t)) == []
