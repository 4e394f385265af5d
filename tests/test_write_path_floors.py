"""The write path's invariants around parse, append, seal and open.

* A store fed events whose entities are shared objects (what
  ``parse_audit_log`` now yields) is the store fed one fresh object per
  line — rows, payload bytes and graph alike, wherever the flushes fall.
* Edge properties carry nothing that depends on how many entities the
  process built earlier.
* Every section that pauses the cyclic collector puts it back, also when
  it raises.
* A segment export is a bulk build without journal or fsync whose file is
  complete, indexed and read-only-openable, and a failure half-way
  leaves the store able to seal again.
"""

from __future__ import annotations

import gc
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
from repro.storage import DualStore
from repro.storage.relational import database, schema

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


def _graph_bytes(store: DualStore, path: Path) -> bytes:
    store.graph.graph.save(path)
    return path.read_bytes()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(boundaries=st.lists(
    st.integers(min_value=1, max_value=len(LINES) - 1),
    min_size=1, max_size=5))
def test_shared_and_unshared_entities_build_the_same_store(boundaries,
                                                           tmp_path):
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
        assert _graph_bytes(one, tmp_path / "one.bin") == \
            _graph_bytes(other, tmp_path / "other.bin")
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

    def test_after_a_failing_export(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise StorageError("disk full")

        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            monkeypatch.setattr(store.relational, "export_segment", refuse)
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
# the export
# ---------------------------------------------------------------------------

class TestSegmentExport:
    def test_export_is_complete_indexed_and_opens_read_only(self):
        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            store.flush_appends()
            [info] = store.segment_view().sealed
            directory = Path(info.directory)
            assert sorted(path.name for path in directory.iterdir()) == \
                ["events.col", "relational.sqlite", "segment.json"]
            connection = sqlite3.connect(
                f"file:{info.sqlite_path}?mode=ro", uri=True)
            try:
                assert connection.execute(
                    "PRAGMA integrity_check").fetchall() == [("ok",)]
                indexes = {row[0] for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'")}
                assert indexes >= set(schema.INDEX_NAMES)
                assert connection.execute(
                    "SELECT COUNT(*) FROM events").fetchone()[0] == \
                    info.event_count == store.relational.count_events()
                plan = connection.execute(
                    "EXPLAIN QUERY PLAN SELECT * FROM events "
                    "WHERE subject_id = 1").fetchall()
                assert "idx_events_subject" in str(plan)
            finally:
                connection.close()

    def test_a_failure_half_way_leaves_a_store_that_seals_again(
            self, monkeypatch):
        real = database.all_ddl_for

        def broken(schema_name=None):
            return real(schema_name) + [
                "CREATE INDEX segment.idx_broken ON no_such_table(x)"]

        with DualStore(layout="segmented") as store:
            store.append_events(parse_audit_log(LOG_TEXT))
            monkeypatch.setattr(database, "all_ddl_for", broken)
            with pytest.raises(StorageError, match="export"):
                store.flush_appends()          # fails after the inserts
            assert store.segment_view() is None
            assert store.segment_stats()["sealed_segments"] == 0
            monkeypatch.setattr(database, "all_ddl_for", real)
            sealed = store.seal_active_segment()
            assert sealed is not None
            assert sealed.event_count == store.relational.count_events()
            [info] = store.segment_view().sealed
            assert Path(info.manifest_path).is_file()
            connection = sqlite3.connect(
                f"file:{info.sqlite_path}?mode=ro", uri=True)
            try:
                assert connection.execute(
                    "PRAGMA integrity_check").fetchall() == [("ok",)]
            finally:
                connection.close()
