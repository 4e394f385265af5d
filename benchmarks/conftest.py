"""Shared fixtures and helpers for the benchmark harness.

Every bench module regenerates one table (or figure-style ablation) of the
paper.  Besides the pytest-benchmark timings, each module writes the
regenerated table to ``benchmarks/results/<name>.txt`` so the rows the paper
reports can be inspected after a run.  A run with ``--benchmark-disable``
(a smoke run) times nothing and writes no table.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import pytest

from repro.benchmark import build_case_store, get_case
from repro.benchmark.queries import build_case_queries

RESULTS_DIR = Path(__file__).parent / "results"

#: Benign noise level used when materializing case stores for benches.  Large
#: enough that attack events are needles in a haystack, small enough that the
#: whole harness finishes in minutes.
BENCH_NOISE_SESSIONS = 60

#: Representative cases used by the per-case benches (small / medium / the
#: paper's running example).
BENCH_CASE_IDS = ["tc_clearscope_3", "tc_theia_1", "data_leak"]


#: Whether this run times its benchmarks, as pytest-benchmark decides
#: from ``--benchmark-disable`` / ``--benchmark-enable``.
_timed = True


def pytest_configure(config: pytest.Config) -> None:
    global _timed
    _timed = not config.getoption("benchmark_disable") or \
        config.getoption("benchmark_enable")


def write_result_table(name: str, text: str) -> Optional[Path]:
    """Persist a regenerated table under ``benchmarks/results``; a run
    that times nothing writes nothing and returns ``None``."""
    if not _timed:
        return None
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def bench_case_stores():
    """Materialized stores + ground truth for the representative cases."""
    stores = {}
    for case_id in BENCH_CASE_IDS:
        case = get_case(case_id)
        store, ground_truth = build_case_store(
            case, benign_sessions=BENCH_NOISE_SESSIONS)
        stores[case_id] = (case, store, ground_truth)
    yield stores
    for _case, store, _truth in stores.values():
        store.close()


@pytest.fixture(scope="session")
def bench_case_queries():
    """The four equivalent query variants for the representative cases."""
    return {case_id: build_case_queries(get_case(case_id))
            for case_id in BENCH_CASE_IDS}
