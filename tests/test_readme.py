"""README's module table names exactly the modules of the package, and its
code references to the package resolve."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _package_modules() -> set:
    return {p.stem for p in (ROOT / "src" / "henonlab").glob("*.py")}


def _table_modules() -> list:
    """The henonlab.X of each row of the table under "## Library overview"."""
    text = _readme()
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"^\| `henonlab\.(\w+)` \|", section, re.M)]


def test_readme_module_table_matches_the_package():
    listed = _table_modules()
    modules = _package_modules()
    assert listed and len(listed) == len(set(listed)), listed
    assert set(listed) <= modules, set(listed) - modules
    public = {m for m in modules if not m.startswith("_")} - {"cli", "errors"}
    assert public <= set(listed), public - set(listed)


def test_readme_code_references_resolve():
    """Every backticked henonlab.X names a module, and every `module.name`
    (or henonlab.module.name) whose module is the package's resolves by
    getattr, so README cannot keep naming a helper that is gone."""
    modules = _package_modules()
    refs = re.findall(r"`((?:\w+\.)+\w+)", _readme())
    checked = []
    for ref in refs:
        head, *rest = ref.split(".")
        if head == "henonlab":
            head, *rest = rest
        elif head not in modules:
            continue
        obj = importlib.import_module(f"henonlab.{head}")
        for name in rest:
            assert hasattr(obj, name), f"README names `{ref}`, which does not resolve"
            obj = getattr(obj, name)
        checked.append(ref)
    assert checked
