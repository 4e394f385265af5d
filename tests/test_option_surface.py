"""The package's environment surface: which variables ``src/`` reads.

Every environment variable the package reads is a user-settable value
nobody sees in ``--help``.  The only ones left choose from the platform
— the numpy evaluator (``REPRO_COLUMNAR_NUMPY``) and tracing
(``REPRO_OBS``); strategies that exist to prove equivalence live in
``tests/reference/`` instead.  This test parses every module under
``src/`` and fails on any other read, and on a read whose name is not a
string literal (which would hide the name from this audit).  The same
parse keeps out process pools: segment scans run in process, and no
committed measurement showed a pool paying for its shipping costs.  It
also keeps out ``http.server``: the package has one HTTP front end.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ALLOWED = {"REPRO_COLUMNAR_NUMPY", "REPRO_OBS"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` or a bare ``environ``."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or \
        (isinstance(node, ast.Name) and node.id == "environ")


def _read_key(node: ast.AST):
    """The key expression of an environment read, or ``None``."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and node.args and (
                (func.attr in ("get", "pop", "setdefault")
                 and _is_environ(func.value))
                or func.attr == "getenv"):
            return node.args[0]
        if isinstance(func, ast.Name) and func.id == "getenv" and node.args:
            return node.args[0]
    if isinstance(node, ast.Subscript) and _is_environ(node.value):
        return node.slice
    if isinstance(node, ast.Compare) and \
            any(_is_environ(right) for right in node.comparators):
        return node.left
    return None


def _environment_reads() -> dict[str, list[str]]:
    reads: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            key = _read_key(node)
            if key is None:
                continue
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            name = key.value if isinstance(key, ast.Constant) else \
                f"<non-literal at {where}>"
            reads.setdefault(name, []).append(where)
    return reads


def test_only_platform_switches_are_read():
    reads = _environment_reads()
    assert set(reads) == ALLOWED, reads


def _imports() -> list[tuple[str, list[str]]]:
    """``(where, imported names)`` of every absolute import in ``src/``;
    ``from m import a`` yields ``m`` and ``m.a``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}"
                                    for alias in node.names]
            else:
                continue
            found.append((f"{path.relative_to(SRC)}:{node.lineno}", names))
    return found


def test_package_never_imports_the_test_oracles():
    importers = [where for where, names in _imports()
                 if any(name == "tests" or name.startswith("tests.")
                        for name in names)]
    assert importers == []


def test_package_never_imports_a_process_pool():
    importers = [where for where, names in _imports()
                 if any(name == "multiprocessing"
                        or name.startswith(("multiprocessing.",
                                            "concurrent.futures.process"))
                        or name == "concurrent.futures.ProcessPoolExecutor"
                        for name in names)]
    assert importers == []


def test_package_never_imports_http_server():
    """One HTTP front end: the asyncio server in ``service/aserver.py``."""
    importers = [where for where, names in _imports()
                 if any(name == "http.server"
                        or name.startswith("http.server.")
                        for name in names)]
    assert importers == []


def test_audit_sees_every_read_form():
    samples = {
        'os.environ.get("A")': "A",
        'os.environ["B"]': "B",
        'os.getenv("C", "")': "C",
        '"D" in os.environ': "D",
        'environ.get("E")': "E",
    }
    for source, name in samples.items():
        node = ast.parse(source, mode="eval").body
        key = _read_key(node)
        assert isinstance(key, ast.Constant) and key.value == name, source
