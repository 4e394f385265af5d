"""The reference every answer is checked against.

The oracle is a second route through the system that shares as little
as possible with the route under test: a *monolithic* in-memory store of
the same events, queried with the single-statement SQL baseline
(``execute_giant_sql``) instead of the scheduled, segmented, columnar
executor.  Rows must agree row for row.  Because both routes could change
together, digests of the expected rows for ``--seed 12`` are committed in
``golden_seed12.json`` and compared whenever that seed runs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from . import sut

GOLDEN_SEED = 12
GOLDEN_PATH = Path(__file__).with_name("golden_seed12.json")


def canonical_rows(rows: Iterable[dict]) -> list[str]:
    """Order-free, comparable form of a row list."""
    return sorted(repr(row) for row in rows)


def digest(rows: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


class Oracle:
    """Giant-SQL answers over a monolithic store of the given batches.

    The store is filled batch by batch with the same flush points as the
    store under test, so both hold the same merged events (data reduction
    closes its merge runs at every flush).
    """

    def __init__(self, batches: Iterable[list[Any]]) -> None:
        self._store = sut.DualStore()
        for batch in batches:
            self._store.append_events(batch)
            self._store.flush_appends()
        self._executor = sut.TBQLExecutor(self._store)
        self._expected: dict[str, list[str]] = {}
        #: label -> digest of every answer this run relied on.
        self.digests: dict[str, str] = {}

    def expected(self, text: str, label: Optional[str] = None) -> list[str]:
        rows = self._expected.get(text)
        if rows is None:
            rows = canonical_rows(sut.giant_sql_rows(self._executor, text))
            self._expected[text] = rows
        if label is not None:
            self.digests[label] = digest(rows)
        return rows

    def agrees(self, text: str, rows: Iterable[dict]) -> bool:
        return canonical_rows(rows) == self.expected(text)

    def close(self) -> None:
        self._executor.close()
        self._store.close()


def _read_golden() -> dict[str, Any]:
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except (OSError, ValueError):
        return {}


def store_golden(scale: str, workload: str, values: dict[str, Any]) -> None:
    golden = _read_golden()
    golden.setdefault(scale, {})[workload] = values
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


def golden_mismatches(scale: str, workload: str,
                      values: dict[str, Any]) -> list[str]:
    """Keys whose value differs from the committed golden (seed 12)."""
    golden = _read_golden().get(scale, {}).get(workload, {})
    if not golden:
        return []                # nothing committed for this scale
    return sorted(key for key in set(golden) | set(values)
                  if golden.get(key) != values.get(key))
