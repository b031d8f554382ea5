"""The CI manifest lists every third-party module the suite imports.

A clean runner installs only ``requirements-ci.txt``, so a module that
``src/`` or ``tests/`` imports without it being listed there stops
tier-1 collection.  Every import is parsed with :mod:`ast`, including
imports inside functions, because a lazy import fails just the same
once its code runs.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path) -> "set[str]":
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _requirements() -> "set[str]":
    names = set()
    for line in (ROOT / "requirements-ci.txt").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line:
            name = re.split(r"[<>=!~;\[ ]", line, maxsplit=1)[0]
            names.add(name.lower().replace("-", "_"))
    return names


def test_every_third_party_import_is_in_the_ci_manifest():
    local = {p.stem for p in (ROOT / "tests").glob("*.py")}
    local |= {p.name for p in (ROOT / "src").iterdir()}
    missing = {}
    for root in ("src", "tests"):
        for path in sorted((ROOT / root).rglob("*.py")):
            for name in _top_level_imports(path):
                if name in sys.stdlib_module_names or name in local:
                    continue
                missing.setdefault(name, path.relative_to(ROOT))
    missing = {
        name: str(path) for name, path in missing.items()
        if name.lower() not in _requirements()
    }
    assert not missing, f"add to requirements-ci.txt: {missing}"
