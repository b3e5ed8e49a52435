"""Every name the package exports has a caller outside its own definition.

A caller is a word-boundary reference in a module of the package (other
than ``__init__.py``, and other than the name's own ``def`` or ``class``
line), in a demo, or in the benchmark harness.  Tests do not count: an
export that only tests use is code that no caller needs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atomslot"


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def _caller_lines() -> list[str]:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [line for path in files for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_export_has_a_caller():
    exports = _exports()
    assert exports
    lines = _caller_lines()
    unused = []
    for name in exports:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(?:async\s+)?(?:def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"exports with no caller outside tests: {', '.join(unused)}"
