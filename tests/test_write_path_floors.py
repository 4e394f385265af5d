"""The write path's invariants around parse, append, seal and open.

* A store fed events whose entities are shared objects (what
  ``parse_audit_log`` now yields) is the store fed one fresh object per
  line — rows, payload bytes and graph alike, wherever the flushes fall.
* Edge properties carry nothing that depends on how many entities the
  process built earlier.
* Every section that pauses the cyclic collector puts it back, also when
  it raises.
* A sealed segment is one payload and a manifest: no seal, save, reopen
  or query opens a database other than the combined store's, a failed
  seal leaves the store able to seal again, and an older build refuses
  the snapshot by its format version.
"""

from __future__ import annotations

import gc
import os
import sqlite3
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.audit.logfmt import format_log, parse_record
from repro.audit.parser import AuditLogParser, parse_audit_log
from repro.errors import AuditError, StorageError
from repro.storage import DualStore, dualstore
from repro.tbql.executor import TBQLExecutor

from .conftest import record_data_leak_attack


def _log_text() -> str:
    collector = AuditCollector(CollectorConfig(seed=11))
    record_data_leak_attack(collector)
    events = collector.events() + generate_benign_noise(num_sessions=5,
                                                        seed=23)
    events.sort(key=attrgetter("start_time", "event_id"))
    return format_log(events)


LOG_TEXT = _log_text()
LINES = LOG_TEXT.splitlines()


def _segmented(events, boundaries) -> DualStore:
    cuts = sorted(set(boundaries))
    store = DualStore(layout="segmented")
    for start, end in zip([0] + cuts, cuts + [len(events)]):
        store.append_events(events[start:end])
        store.flush_appends()
    return store


def _table(store: DualStore, name: str) -> list[tuple]:
    return [tuple(row.values()) for row in
            store.execute_sql(f"SELECT * FROM {name} ORDER BY id")]


def _graph_tuples(store: DualStore) -> tuple[list, list]:
    """Every node and edge with its id, label and properties; ``repr``
    keeps key order and value types (``1`` is not ``1.0``)."""
    graph = store.graph.graph
    return ([(node.node_id, node.label, repr(list(node.properties.items())))
             for node in graph.nodes()],
            [(edge.edge_id, edge.source, edge.target, edge.label,
              repr(list(edge.properties.items())))
             for edge in graph.edges()])


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(boundaries=st.lists(
    st.integers(min_value=1, max_value=len(LINES) - 1),
    min_size=1, max_size=5))
def test_shared_and_unshared_entities_build_the_same_store(boundaries):
    shared = parse_audit_log(LOG_TEXT)
    unshared = sorted((parse_record(line) for line in LINES),
                      key=attrgetter("start_time", "event_id"))
    assert len({id(event.subject) for event in shared}) < \
        len({id(event.subject) for event in unshared}) == len(LINES)
    one, other = _segmented(shared, boundaries), \
        _segmented(unshared, boundaries)
    try:
        for table in ("entities", "events"):
            assert _table(one, table) == _table(other, table)
        left, right = one.segment_view().sealed, other.segment_view().sealed
        assert [info.name for info in left] == [info.name for info in right]
        for ours, theirs in zip(left, right):
            assert Path(ours.columnar_path).read_bytes() == \
                Path(theirs.columnar_path).read_bytes(), ours.name
        assert _graph_tuples(one) == _graph_tuples(other)
    finally:
        one.close()
        other.close()


def test_edge_properties_do_not_depend_on_process_history():
    """The same text ingested twice in one process (the second parse
    draws later global entity ids) gives equal edges, none carrying an
    endpoint id of its own."""
    def edges(store: DualStore) -> list[tuple]:
        return [(edge.source, edge.target, dict(edge.properties))
                for edge in store.graph.graph.edges()]

    with DualStore() as first, DualStore() as second:
        first.load_events(parse_audit_log(LOG_TEXT))
        second.load_events(parse_audit_log(LOG_TEXT))
        assert edges(first) == edges(second)
        rows = first.execute_sql(
            "SELECT subject_id, object_id FROM events ORDER BY id")
        for (source, target, properties), row in zip(edges(first), rows):
            assert (source, target) == (row["subject_id"], row["object_id"])
            assert not {"subject_id", "object_id"} & set(properties)


# ---------------------------------------------------------------------------
# the collector is put back
# ---------------------------------------------------------------------------

class TestCollectorIsRestored:
    @pytest.fixture(autouse=True)
    def _collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_after_a_raising_append(self):
        def events():
            yield parse_record(LINES[0])
            raise RuntimeError("source went away")

        with DualStore() as store:
            with pytest.raises(RuntimeError):
                store.append_events(events())
            assert gc.isenabled()
            store.append_events([parse_record(LINES[0])])
            assert gc.isenabled()

    def test_after_a_strict_parse_error(self):
        with pytest.raises(AuditError):
            AuditLogParser(strict=True).parse_lines([LINES[0], "garbage"])
        assert gc.isenabled()

    def test_after_a_failing_seal(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise StorageError("disk full")

        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            monkeypatch.setattr(store.relational, "segment_rows", refuse)
            with pytest.raises(StorageError):
                store.flush_appends()
            assert gc.isenabled()

    def test_after_open_and_when_it_was_off_to_begin_with(self, tmp_path):
        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            store.save(tmp_path / "snap")
        DualStore.open(tmp_path / "snap").close()
        assert gc.isenabled()
        with pytest.raises(StorageError):
            DualStore.open(tmp_path / "missing")
        assert gc.isenabled()
        gc.disable()
        try:
            DualStore.open(tmp_path / "snap").close()
            parse_audit_log(LOG_TEXT)
            assert not gc.isenabled()
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# a sealed segment is one payload
# ---------------------------------------------------------------------------

#: One query of each class: rows, ``then``, ``group by``, ``and not``.
QUERY_CLASSES = (
    'proc p read file f return distinct p',
    'proc p read file f then proc p write file g return distinct p',
    'proc p read file f return p, count() group by p',
    'proc p read file f and not proc p connect ip i return distinct p',
)


class TestOnePayloadPerSegment:
    def test_only_the_combined_store_is_ever_connected_to(
            self, monkeypatch, tmp_path):
        connected: list[str] = []
        real = sqlite3.connect

        def spy(database, *args, **kwargs):
            connected.append(str(database))
            return real(database, *args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", spy)
        events = parse_audit_log(LOG_TEXT)
        step = len(events) // 4 + 1
        snap = tmp_path / "snap"
        with _segmented(events, range(step, len(events), step)) as store:
            sealed = store.segment_view().sealed
            assert len(sealed) == 4
            for info in sealed:
                assert sorted(os.listdir(info.directory)) == \
                    ["events.col", "segment.json"]
            manifest = store.save(snap)
        assert manifest["format_version"] == 5
        for info in sealed:
            assert sorted(os.listdir(snap / "segments" / info.name)) == \
                ["events.col", "segment.json"]
        with DualStore.open(snap) as reopened, DualStore() as mono:
            mono.load_events(events)
            executor = TBQLExecutor(reopened)
            try:
                for text in QUERY_CLASSES:
                    result = executor.execute(text)
                    assert result.plan[0].segments_scanned is not None
                    assert result.rows == \
                        TBQLExecutor(mono).execute(text).rows, text
            finally:
                executor.close()
        combined = str(snap / "relational.sqlite")
        assert set(connected) == {
            ":memory:", combined,
            (snap / "relational.sqlite").resolve().as_uri() + "?mode=ro"}

    def test_an_older_build_refuses_the_snapshot(self, monkeypatch,
                                                 tmp_path):
        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            store.save(tmp_path / "snap")
        monkeypatch.setattr(dualstore, "SNAPSHOT_FORMAT_VERSION", 4)
        with pytest.raises(StorageError,
                           match="unsupported snapshot format version 5"):
            DualStore.open(tmp_path / "snap")

    def test_a_failed_seal_leaves_a_store_that_seals_again(
            self, monkeypatch):
        real = dualstore.write_columnar

        def broken(path, *args):
            real(path, *args)
            raise StorageError(f"disk full writing {path}")

        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            monkeypatch.setattr(dualstore, "write_columnar", broken)
            with pytest.raises(StorageError, match="disk full"):
                store.flush_appends()
            assert store.segment_view() is None
            assert store.segment_stats()["sealed_segments"] == 0
            monkeypatch.setattr(dualstore, "write_columnar", real)
            sealed = store.seal_active_segment()
            assert sealed is not None
            assert sealed.event_count == store.relational.count_events()
            [info] = store.segment_view().sealed
            assert sorted(os.listdir(info.directory)) == \
                ["events.col", "segment.json"]
