"""The shipped executor's answers, pinned byte for byte.

The oracles in ``tests/reference/`` subclass :class:`TBQLExecutor`, so
they share its match building, event lists and projection: a drift in
row order, display names or value types there would move the oracle
with it.  This file compares against digests recorded once instead.

Each digest covers one answer's ``result_payload`` (plan timings and
hydration counts dropped, as the service does), its ``matched_events``
and its ``joined_events``, hashed from their ``repr`` so that a tuple
turning into a list or an ``int`` into a float changes it.  The
join-equivalence corpus runs on three stores built from the same
events: one never sealed, one of three sealed segments, and one of
three sealed segments plus an active tail.

The fixture is only rewritten for an intended answer change::

    PYTHONPATH=src python -m tests.test_answer_bytes
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.service.server import result_payload
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor

from .test_partitioned_equivalence import EVENTS
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

FIXTURE = Path(__file__).parent / "fixtures" / "answer_bytes.json"

#: Store name -> (flush points as fractions of EVENTS, whether the last
#: flush seals).
STORES = {
    "never_sealed": ((1.0,), False),
    "sealed_3": ((1 / 3, 2 / 3, 1.0), True),
    "sealed_3_tail": ((0.25, 0.5, 0.75, 1.0), False),
}


def build_store(name: str) -> DualStore:
    points, seal_last = STORES[name]
    store = DualStore()
    start = 0
    for index, point in enumerate(points):
        end = round(point * len(EVENTS))
        store.append_events(EVENTS[start:end])
        store.flush_appends(seal_segment=seal_last or
                            index < len(points) - 1)
        start = end
    return store


def answer_digest(executor: TBQLExecutor, text: str) -> str:
    result = executor.execute(text)
    answer = (result_payload(result), result.matched_events,
              result.joined_events)
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def compute_digests() -> dict[str, dict[str, str]]:
    digests = {}
    for name in STORES:
        store = build_store(name)
        try:
            executor = TBQLExecutor(store)
            digests[name] = {text: answer_digest(executor, text)
                             for text in EQUIVALENCE_CORPUS}
        finally:
            store.close()
    return digests


@pytest.fixture(scope="module", params=list(STORES))
def named_store(request):
    store = build_store(request.param)
    yield request.param, store
    store.close()


def test_answers_match_the_recorded_bytes(named_store):
    name, store = named_store
    assert bool(store.segment_view().sealed) == (name != "never_sealed")
    recorded = json.loads(FIXTURE.read_text())[name]
    assert list(recorded) == EQUIVALENCE_CORPUS
    executor = TBQLExecutor(store)
    for text, digest in recorded.items():
        assert answer_digest(executor, text) == digest, (name, text)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1) + "\n")
