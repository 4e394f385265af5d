"""Every third-party package ``src/`` imports is declared in pyproject.toml.

An import that runs when its module is imported (module scope, class
bodies, ``try`` / ``if`` blocks among them) must name the standard
library, ``repro`` or a ``[project] dependencies`` entry: otherwise a
plain install of the package cannot import it.  An import deferred
into a function body may also name an optional extra
(``[project.optional-dependencies]``), the package needing it only
when that function is called.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _requirement_name(requirement: str) -> str:
    """Import name of a requirement string (``"numpy>=1.22"`` -> numpy)."""
    name = re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0]
    return name.lower().replace("-", "_")


def _declared() -> tuple[set[str], set[str]]:
    """``(runtime dependencies, optional extras)`` of pyproject.toml,
    each list written on one line as the file keeps them."""
    runtime: set[str] = set()
    optional: set[str] = set()
    section = None
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        header = re.fullmatch(r"\[([^\]]+)\]", line.strip())
        if header:
            section = header.group(1)
            continue
        key, equals, value = line.partition("=")
        if not equals:
            continue
        names = {_requirement_name(requirement)
                 for requirement in re.findall(r'"([^"]+)"', value)}
        if section == "project" and key.strip() == "dependencies":
            runtime |= names
        elif section == "project.optional-dependencies":
            optional |= names
    return runtime, optional


def _third_party_imports() -> list[tuple[str, str, bool]]:
    """``(top-level package, where, runs at module import)`` of every
    absolute import under ``src/`` that is neither stdlib nor repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        deferred = {id(node) for scope in ast.walk(tree)
                    if isinstance(scope, (ast.FunctionDef,
                                          ast.AsyncFunctionDef, ast.Lambda))
                    for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                found.append((top, f"{path.relative_to(SRC)}:{node.lineno}",
                              id(node) not in deferred))
    return found


def test_import_time_packages_are_declared_dependencies():
    runtime, _optional = _declared()
    imports = _third_party_imports()
    assert "numpy" in {top for top, _where, eager in imports if eager}
    undeclared = [(top, where) for top, where, eager in imports
                  if eager and top not in runtime]
    assert undeclared == []


def test_deferred_imports_are_declared():
    runtime, optional = _declared()
    undeclared = [(top, where) for top, where, eager
                  in _third_party_imports()
                  if not eager and top not in runtime | optional]
    assert undeclared == []

