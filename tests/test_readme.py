"""README's module table names exactly the modules of the package."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _table_modules() -> list:
    """The henonlab.X of each row of the table under "## Library overview"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"^\| `henonlab\.(\w+)` \|", section, re.M)]


def test_readme_module_table_matches_the_package():
    listed = _table_modules()
    modules = {p.stem for p in (ROOT / "src" / "henonlab").glob("*.py")}
    assert listed and len(listed) == len(set(listed)), listed
    assert set(listed) <= modules, set(listed) - modules
    public = {m for m in modules if not m.startswith("_")} - {"cli", "errors"}
    assert public <= set(listed), public - set(listed)
