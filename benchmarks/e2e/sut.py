"""The system under test: the only module that imports ``repro``.

Everything the benchmark calls is named here, so a later change that
renames or removes a public entry point breaks one file.  Only default
settings are used — no strategy flags, no ``REPRO_*`` switches, one
worker, the default (asyncio) server backend — so options can be deleted
from the system without touching the benchmark.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

if not (SRC_DIR / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"system under test not found: {SRC_DIR / 'repro'} is missing "
        "(the benchmark must run from a checkout of the repository)")
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.audit import (format_log, generate_benign_noise,  # noqa: E402
                         parse_audit_log)
from repro.benchmark import ALL_CASES, CaseBuilder  # noqa: E402
from repro.hunting import ThreatRaptor  # noqa: E402
from repro.service import QueryService  # noqa: E402
from repro.storage import DualStore  # noqa: E402
from repro.streaming import DetectionEngine  # noqa: E402
from repro.tbql import parse_tbql, resolve_query  # noqa: E402
from repro.tbql.executor import TBQLExecutor  # noqa: E402

__all__ = [
    "ALL_CASES", "CaseBuilder", "DetectionEngine", "DualStore",
    "QueryService", "TBQLExecutor", "ThreatRaptor", "format_log",
    "generate_benign_noise", "parse_audit_log", "parse_tbql",
    "resolve_query", "child_env", "serve_command", "giant_sql_rows",
]


def child_env(tmp_dir: Path) -> dict[str, str]:
    """Environment for a ``repro`` subprocess: import path and temp dir.

    ``TMPDIR`` keeps the private segment directories of live stores
    inside the benchmark's work directory.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    env["TMPDIR"] = str(tmp_dir)
    return env


def serve_command(*args: str) -> list[str]:
    """``repro serve`` on a free loopback port, default settings."""
    return [sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0", *args]


def giant_sql_rows(executor: TBQLExecutor, text: str) -> list[dict]:
    """The single-statement SQL answer, in the executor's row shape.

    The giant SQL names columns ``entity_attribute``; the executor names
    them ``entity.attribute`` and applies ``distinct`` itself.
    """
    resolved = resolve_query(parse_tbql(text))
    rows = [{(key if key == "count" else key.replace("_", ".", 1)): value
             for key, value in row.items()}
            for row in executor.execute_giant_sql(resolved)]
    if resolved.distinct:
        seen: set[str] = set()
        unique = []
        for row in rows:
            marker = repr(row)
            if marker not in seen:
                seen.add(marker)
                unique.append(row)
        rows = unique
    return rows
