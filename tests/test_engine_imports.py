"""The engine holds no graph store and no Cypher.

Path patterns run on the stored rows (``repro.tbql.paths``), and giant
SQL renders them as recursive CTEs; the property graph and the giant-
Cypher compiler, whose text Tables VIII and X list, live in
``repro.benchmark.cypher``, and nothing runs Cypher.  Importing every
engine package and the CLI in a fresh interpreter loads neither that
package nor any other ``repro.benchmark`` or Cypher module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import json, sys
import repro.storage, repro.tbql, repro.service, repro.streaming
import repro.hunting, repro.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_engine_imports_load_no_benchmark_or_cypher_module():
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
        check=True)
    loaded = json.loads(completed.stdout)
    assert "repro.tbql.paths" in loaded
    assert [name for name in loaded
            if name.startswith("repro.benchmark")
            or "cypher" in name.lower()
            or name.startswith("repro.storage.graph")] == []
