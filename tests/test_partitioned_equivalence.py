"""Property-based sealing equivalence: sealed == never sealed, any cuts.

A log split at *random* segment boundaries and sealed at each one must
answer the full TBQL join-equivalence corpus identically to a store fed
through the same boundaries that never seals (the flush points are
shared because sealing closes open merge runs — same data in, same
stored events, only the sealing differs).  Wherever the
cuts fall, the three routes to a payload — a seal of buffered columns,
a seal of rows read back from the store, a compaction merge — write the
same bytes.
"""

from __future__ import annotations

from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor

from .conftest import assert_exact_entity_blocks, record_data_leak_attack
from .reference.executor_seed import RowPathExecutor
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


def _corpus_events():
    collector = AuditCollector(CollectorConfig(seed=11))
    record_data_leak_attack(collector)
    events = collector.events() + generate_benign_noise(num_sessions=8,
                                                        seed=23)
    events.sort(key=attrgetter("start_time", "event_id"))
    return events


EVENTS = _corpus_events()


def _build_pair(boundaries: list[int]):
    """A never-sealed and a sealed store from the same cuts (the same
    flush points)."""
    cuts = sorted(set(boundaries))
    starts = [0] + cuts
    ends = cuts + [len(EVENTS)]
    unsealed = DualStore()
    seg = DualStore()
    for start, end in zip(starts, ends):
        batch = EVENTS[start:end]
        for store in (unsealed, seg):
            store.append_events(batch)
            store.flush_appends(seal_segment=store is seg)
    return unsealed, seg


def _assert_corpus_identical(unsealed, seg, corpus) -> None:
    # The never-sealed side answers count() texts on the row path (join +
    # apply_aggregation), so the aggregate pushdown is not its own oracle.
    reference = RowPathExecutor(unsealed)
    executor = TBQLExecutor(seg)
    for text in corpus:
        expected = reference.execute(text)
        got = executor.execute(text)
        assert got.rows == expected.rows, text
        assert got.matched_events == expected.matched_events, text
        assert got.per_pattern_matches == expected.per_pattern_matches, \
            text


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(boundaries=st.lists(
    st.integers(min_value=1, max_value=max(len(EVENTS) - 1, 1)),
    min_size=1, max_size=6))
def test_random_boundaries_answer_corpus_identically(boundaries):
    unsealed, seg = _build_pair(boundaries)
    try:
        # Wherever the cuts fall, a segment's payload holds the entity
        # rows it references and is what the combined store rebuilds to.
        assert_exact_entity_blocks(seg)
        # Shared entities, temporal/attribute relations, DISTINCT, and a
        # no-match query — the corpus slice that exercises every join
        # shape; the fixed-boundary test below runs the full corpus.
        _assert_corpus_identical(unsealed, seg, EQUIVALENCE_CORPUS[:6])
        # Merging every segment reads the whole id range back from the
        # store; one seal of the same flushes packs buffered columns.
        seg.compact(min_events=10 ** 9)
        [merged] = seg.segment_view().sealed
        assert Path(merged.columnar_path).read_bytes() == \
            _sealed_once(boundaries)
        assert_exact_entity_blocks(seg)
    finally:
        unsealed.close()
        seg.close()


def _sealed_once(boundaries: list[int]) -> bytes:
    """The payload of one segment over the whole history, stored through
    the same flush points as :func:`_build_pair`."""
    cuts = sorted(set(boundaries))
    with DualStore() as store:
        for start, end in zip([0] + cuts, cuts + [len(EVENTS)]):
            store.append_events(EVENTS[start:end])
            store.flush_appends(seal_segment=False)
        info = store.seal_active_segment()
        return Path(info.columnar_path).read_bytes()


@pytest.mark.parametrize("batches", [1, 3, 7])
def test_fixed_boundaries_full_corpus(batches):
    step = len(EVENTS) // batches + 1
    unsealed, seg = _build_pair(list(range(step, len(EVENTS), step)))
    try:
        _assert_corpus_identical(unsealed, seg, EQUIVALENCE_CORPUS)
    finally:
        unsealed.close()
        seg.close()


def test_degenerate_cuts_collapse():
    """Duplicate/extreme cut points must not break the partitioning."""
    unsealed, seg = _build_pair([1, 1, len(EVENTS) - 1, len(EVENTS) - 1])
    try:
        view = seg.segment_view()
        assert view.sealed_events == seg.relational.count_events()
        _assert_corpus_identical(unsealed, seg, EQUIVALENCE_CORPUS[:2])
    finally:
        unsealed.close()
        seg.close()
