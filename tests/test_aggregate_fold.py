"""The partial-aggregate fold against the row path, on shapes the corpus
does not reach.

A pushed-down ``count()`` folds each sealed segment's matches once per
distinct group key (``np.unique`` on the group columns' codes and raw
numbers) and defers building ``matched_events`` / ``joined_events``
until they are read.  Here the fold and ``RowPathExecutor`` (no
pushdown at all) must agree on rows, per-pattern counts and both event
lists for NULL group attributes, numeric group columns, a key across
subject and object, a self-loop, a global count, ``top N`` ties and a
store with sealed segments plus an active tail — also when the lists
are first read after a later append.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.audit.entities import (FileEntity, NetworkEntity, Operation,
                                  ProcessEntity, SystemEvent)
from repro.storage import DualStore
from repro.storage.columnar import (ENTITY_INT_COLUMNS, NULL_INT,
                                    ColumnarSegment)
from repro.tbql import colscan
from repro.tbql.colscan import build_pattern_spec
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .reference.executor_seed import RowPathExecutor

FOLD_CORPUS = {
    # f.user is NULL for one file; p.path is NULL for every process
    "null_string": 'proc p read file f return f.user, count() group by f.user',
    "all_null": 'proc p read file f return p.path, count() group by p.path',
    # p.pid is NULL for one process, i.dstport never is
    "numeric_pid":
        'proc p read || write file f return p.pid, count() group by p.pid',
    "numeric_port":
        'proc p connect ip i return i.dstport, count() group by i.dstport',
    "subject_and_object":
        'proc p read || write file f return p, f, count() group by p, f',
    "numeric_and_string":
        'proc p read file f return p.pid, f.user, count() '
        'group by p.pid, f.user',
    "two_numeric":
        'proc p connect ip i return i.srcport, i.dstport, count() '
        'group by i.srcport, i.dstport',
    "self_loop": 'proc p start proc p return p, count() group by p',
    "global": 'proc p read || write file f return count()',
    "top_ties": 'proc p write file f return f, count() group by f top 2',
    "no_match": 'proc p["/nowhere"] read file f return p, count() group by p',
}

PROCS = [ProcessEntity("/bin/a", 11), ProcessEntity("/bin/a", 12),
         ProcessEntity("/bin/b", 21, user=None),
         ProcessEntity("/bin/c", None)]
FILES = [FileEntity("/etc/passwd"), FileEntity("/etc/hosts", user=None),
         FileEntity("/tmp/x"), FileEntity("/tmp/y"), FileEntity("/var/z")]
PEERS = [NetworkEntity("10.0.0.1", 5000, "1.2.3.4", 443),
         NetworkEntity("10.0.0.1", 5001, "1.2.3.4", 80),
         NetworkEntity("10.0.0.2", 5000, "5.6.7.8", 443)]


def _events(batch: int) -> list[SystemEvent]:
    """One batch: six rounds of read, write, connect and start, 10 s
    apart (so the reduction merges nothing), each round by the next
    process; some processes start themselves."""
    base = 1_000_000.0 + batch * 10_000.0
    events = []
    for index in range(24):
        at = base + index * 10.0
        proc = PROCS[index // 4 % len(PROCS)]
        kind = index % 4
        if kind == 0:
            obj, operation = FILES[(index // 4 + batch) % 5], Operation.READ
        elif kind == 1:
            # every file written once per batch: equal counts, ties
            obj, operation = FILES[index // 4 % 5], Operation.WRITE
        elif kind == 2:
            obj, operation = PEERS[(index + batch) % 3], Operation.CONNECT
        else:
            obj = proc if index % 8 == 3 else PROCS[(index + 1) % 4]
            operation = Operation.START
        events.append(SystemEvent(proc, operation, obj, at, at + 1.0))
    return events


def _store(sealed: int = 3) -> DualStore:
    """``sealed`` sealed segments plus one batch in the active tail."""
    store = DualStore()
    for batch in range(sealed):
        store.append_events(_events(batch))
        store.flush_appends()
    store.append_events(_events(sealed))
    store.flush_appends(seal_segment=False)
    view = store.segment_view()
    assert len(view.sealed) == sealed and view.active_events
    return store


@pytest.fixture(scope="module")
def store():
    with _store() as built:
        yield built


def _answer(result) -> tuple:
    return (result.rows, result.per_pattern_matches, result.matched_events,
            result.joined_events)


@pytest.mark.parametrize("label", sorted(FOLD_CORPUS))
def test_fold_equals_row_path(store, label):
    text = FOLD_CORPUS[label]
    want = RowPathExecutor(store).execute(text)
    assert want.aggregated and not want.plan[0].aggregate_pushdown
    got = TBQLExecutor(store).execute(text)
    assert got.aggregated and got.plan[0].aggregate_pushdown
    assert got.plan[0].rows_out == sum(want.per_pattern_matches.values())
    assert _answer(got) == _answer(want), label
    if label != "no_match":
        assert want.rows and want.matched_events


def test_corpus_reaches_its_shapes(store):
    """The shapes are really there: NULL keys, a NULL numeric key, a
    self-started process, and a tie across the ``top`` cut."""
    executor = RowPathExecutor(store)
    keys = {row["f.user"] for row in executor.execute(
        FOLD_CORPUS["null_string"]).rows}
    assert None in keys and "root" in keys
    pids = {row["p.pid"] for row in executor.execute(
        FOLD_CORPUS["numeric_pid"]).rows}
    assert None in pids and 11 in pids
    assert [row["p.path"] for row in executor.execute(
        FOLD_CORPUS["all_null"]).rows] == [None]
    assert any(event["subject"] == event["object"] for event in
               executor.execute(FOLD_CORPUS["self_loop"]).matched_events)
    untruncated = executor.execute(
        FOLD_CORPUS["top_ties"].replace(" top 2", "")).rows
    assert untruncated[1]["count"] == untruncated[2]["count"]


def test_lists_first_read_after_an_append():
    """Deferred lists describe the store the query ran on, even when an
    append (new entities, new matching events) bumped ``data_version``
    before they were read."""
    with _store(sealed=2) as store:
        executor = TBQLExecutor(store)
        texts = sorted(FOLD_CORPUS.values())
        want = [_answer(RowPathExecutor(store).execute(text))
                for text in texts]
        pending = [executor.execute(text) for text in texts]
        version = store.data_version
        newcomer = ProcessEntity("/bin/late", 99)
        store.append_events(
            _events(7) + [SystemEvent(newcomer, Operation.READ,
                                      FileEntity("/late"), 2e6, 2e6)])
        store.flush_appends()
        assert store.data_version != version
        executor.execute(texts[0])          # the executor syncs its cache
        for text, result, expected in zip(texts, pending, want):
            assert _answer(result) == expected, text


def test_concurrent_first_reads_build_once(store):
    """Threads racing on the first read of a deferred result all get the
    one list each field holds: the lists are built once."""
    text = FOLD_CORPUS["subject_and_object"]
    want = _answer(RowPathExecutor(store).execute(text))
    fields = ("matched_events", "joined_events")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(5):
            result = TBQLExecutor(store).execute(text)
            start = threading.Barrier(8, timeout=30)

            def read(index: int) -> list:
                start.wait()
                return getattr(result, fields[index % 2])
            with ThreadPoolExecutor(max_workers=8) as pool:
                seen = list(pool.map(read, range(8), timeout=30))
            assert len({id(events) for events in seen[::2]}) == 1
            assert len({id(events) for events in seen[1::2]}) == 1
            assert _answer(result) == want
    finally:
        sys.setswitchinterval(interval)


def _counted_per_row(segment, selected, group_columns) -> dict:
    """The fold's group counts, by one dict lookup per selected row."""
    row_of = {entity_id: row for row, entity_id
              in enumerate(segment.column("entity.id"))}

    def value(row, on_subject, column):
        side = "subject_id" if on_subject else "object_id"
        entity_row = row_of[segment.column(f"event.{side}")[row]]
        cell = segment.column(f"entity.{column}")[entity_row]
        if column in ENTITY_INT_COLUMNS:
            return None if cell == NULL_INT else cell
        return segment.strings[cell]
    return dict(Counter(tuple(value(row, on_subject, column)
                              for on_subject, column in group_columns)
                        for row in selected.tolist()))


@pytest.mark.parametrize("label", ["subject_and_object", "numeric_and_string",
                                   "two_numeric", "global", "self_loop"])
def test_fold_counts_equal_a_per_row_count(store, label):
    """Per segment, the ``np.unique`` fold gives the group counts one
    dict lookup per selected row gives, and as many records."""
    resolved = resolve_query(parse_tbql(FOLD_CORPUS[label]))
    pattern = resolved.patterns[0]
    spec = build_pattern_spec(pattern, resolved)
    columns = tuple(
        (entity_id == pattern.subject.entity_id,
         {"group": "grp"}.get(attribute, attribute))
        for entity_id, attribute in resolved.aggregation.group_by)
    for info in store.segment_view().sealed:
        segment = ColumnarSegment(info.columnar_path)
        try:
            selected, counts = colscan.aggregate_columnar(segment, spec,
                                                          columns)
            records = colscan.gather_rows(segment, selected)
            assert counts == _counted_per_row(segment, selected, columns)
        finally:
            segment.close()
        assert sum(counts.values()) == len(records) > 0
