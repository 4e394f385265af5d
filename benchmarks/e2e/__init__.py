"""End-to-end benchmark of the ThreatRaptor reproduction.

Four workloads drive the system the way its users do (bulk ingest,
``/query`` traffic past the cache, OSCTI-driven hunts, live detection
beside readers).  ``run.py`` is the entry point ``BENCHMARK.json`` names;
``python -m benchmarks.e2e`` runs every workload and ``compare`` judges
two result files.  See README.md for why each workload and metric exists.
"""

import json
from pathlib import Path

#: Version of the per-run JSON artifact (``--out``).
SCHEMA_VERSION = 1

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_spec() -> dict:
    """BENCHMARK.json: workloads, metric names, units, bounds."""
    return json.loads(SPEC_PATH.read_text())
