"""Unit tests for the relational (SQLite) storage backend."""

import sqlite3

import pytest

from repro.audit.collector import AuditCollector
from repro.errors import StorageError
from repro.storage import DualStore
from repro.storage.relational import RelationalStore
from repro.storage.relational.schema import INDEX_NAMES
from repro.storage.relational.sqlgen import (comparison, in_list,
                                             like_escape)

from .reference.fuzzy_bruteforce import joined_event_rows
from .reference.ingest_rowwise import entity_id_for


@pytest.fixture()
def small_store():
    """The relational store of an unreduced load: rows written through
    the one write path, :meth:`RelationalStore.append_rows`."""
    collector = AuditCollector()
    tar = collector.spawn_process("/bin/tar")
    collector.read_file(tar, "/etc/passwd", burst=2)
    collector.write_file(tar, "/tmp/upload.tar", burst=1)
    curl = collector.spawn_process("/usr/bin/curl")
    collector.connect_ip(curl, "192.168.29.128")
    with DualStore(reduce=False) as store:
        store.load_events(collector.events())
        yield store.relational


class TestLoading:
    def test_counts(self, small_store):
        assert small_store.count_events() == 4
        # tar, passwd, upload.tar, curl, connection
        assert small_store.count_entities() == 5

    def test_entities_deduplicated(self, small_store):
        rows = small_store.execute(
            "SELECT COUNT(*) AS n FROM entities WHERE exename = '/bin/tar'")
        assert rows[0]["n"] == 1

    def test_entity_id_for_is_stable(self):
        collector = AuditCollector()
        tar = collector.spawn_process("/bin/tar")
        store = RelationalStore()
        first = entity_id_for(store, tar)
        second = entity_id_for(store, tar)
        assert first == second
        store.close()

    def test_failed_first_batch_keeps_the_indexes(self):
        # A batch into the empty table drops the indexes before it
        # inserts; a row that fails must roll the drop back with it.
        store = RelationalStore()
        bad_host = (1, 1, 1, "read", "file", 0.0, 0.0, 0.0, 0, 0, None)
        with pytest.raises(sqlite3.IntegrityError):
            store.append_rows([], [bad_host])
        names = {row["name"] for row in store.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}
        assert set(INDEX_NAMES) <= names
        assert store.count_events() == 0
        store.close()

    def test_clear_resets(self, small_store):
        small_store.clear()
        assert small_store.count_events() == 0
        assert small_store.count_entities() == 0

    def test_rebuild_id_state_equals_the_written_state(self, small_store):
        # A writable reopen rebuilds from the rows the bookkeeping the
        # write path adopted batch by batch.
        mapping, next_entity, next_event = small_store.id_state()
        written = (dict(mapping), next_entity, next_event)
        assert written[1:] == (6, 5)
        small_store.rebuild_id_state()
        rebuilt_mapping, *rebuilt_next = small_store.id_state()
        assert (rebuilt_mapping, *rebuilt_next) == written

    def test_save_to_and_from_snapshot_keep_rows_ids_and_indexes(
            self, small_store, tmp_path):
        path = tmp_path / "copy.db"
        small_store.save_to(path)
        with RelationalStore.from_snapshot(path) as restored:
            for sql in ("SELECT * FROM entities ORDER BY id",
                        "SELECT * FROM events ORDER BY id"):
                assert restored.execute(sql) == small_store.execute(sql)
            names = {row["name"] for row in restored.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'")}
            assert set(INDEX_NAMES) <= names
            mapping, *next_ids = small_store.id_state()
            restored_mapping, *restored_next = restored.id_state()
            assert (restored_mapping, restored_next) == (mapping, next_ids)

    def test_on_disk_database(self, tmp_path):
        collector = AuditCollector()
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd")
        path = tmp_path / "audit.db"
        with DualStore(relational_path=path, reduce=False) as store:
            store.load_events(collector.events())
            assert store.relational.count_events() == 3
        assert path.exists()


class TestQuerying:
    def test_parameterized_query(self, small_store):
        rows = small_store.execute(
            "SELECT * FROM events WHERE operation = ?", ("connect",))
        assert len(rows) == 1

    def test_invalid_sql_raises_storage_error(self, small_store):
        with pytest.raises(StorageError):
            small_store.execute("SELECT * FROM not_a_table")

    def test_joined_rows_inline_both_endpoints(self, small_store):
        rows = [row for row in joined_event_rows(small_store)
                if row["object_name"] == "/etc/passwd"]
        assert len(rows) == 2
        assert all(row["subject_exename"] == "/bin/tar" for row in rows)
        assert all(row["operation"] == "read" for row in rows)
        connect, = [row for row in joined_event_rows(small_store)
                    if row["operation"] == "connect"]
        assert connect["subject_exename"] == "/usr/bin/curl"
        assert connect["object_dstip"] == "192.168.29.128"

    def test_joined_rows_cover_every_event_in_time_order(self, small_store):
        rows = joined_event_rows(small_store)
        assert len(rows) == small_store.count_events() == 4
        expected_keys = {"event_id", "operation", "subject_exename",
                         "object_name", "object_dstip", "start_time"}
        assert expected_keys <= set(rows[0].keys())
        order = [(row["start_time"], row["event_id"]) for row in rows]
        assert order == sorted(order)

    def test_select_tuples_follow_select_order(self, small_store):
        sql = "SELECT operation, id FROM events ORDER BY id"
        assert small_store.select_tuples(sql) == [
            (row["operation"], row["id"])
            for row in small_store.execute(sql)]

    def test_entity_by_ids_hydrates_processes(self, small_store):
        processes = small_store.execute(
            "SELECT id FROM entities WHERE type = 'proc'")
        rows, statements = small_store.entity_by_ids(
            [row["id"] for row in processes] + [10_000])
        assert statements == 1
        assert {row["exename"] for row in rows.values()} == {
            "/bin/tar", "/usr/bin/curl"}

    def test_segment_rows_hold_only_referenced_entities(self, small_store):
        connect = small_store.execute(
            "SELECT id, subject_id, object_id FROM events "
            "WHERE operation = 'connect'")[0]
        events, entities = small_store.segment_rows(connect["id"],
                                                    connect["id"])
        assert [row[0] for row in events] == [connect["id"]]
        assert [row[0] for row in entities] == sorted(
            {connect["subject_id"], connect["object_id"]})

    def test_indexes_exist(self, small_store):
        rows = small_store.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'")
        names = {row["name"] for row in rows}
        assert "idx_entities_exename" in names
        assert "idx_events_operation" in names


class TestSQLHelpers:
    def test_like_escape_escapes_underscore(self):
        assert like_escape("%drakon_loader%") == "%drakon\\_loader%"

    def test_comparison_wildcard_becomes_like(self):
        params = []
        clause = comparison("s.name", "=", "%/bin/tar%", params)
        assert "LIKE" in clause
        assert params == ["%/bin/tar%"]

    def test_comparison_negated_wildcard(self):
        params = []
        clause = comparison("s.name", "!=", "%/bin/tar%", params)
        assert "NOT LIKE" in clause

    def test_comparison_plain_equality(self):
        params = []
        clause = comparison("s.pid", "=", 42, params)
        assert clause == "s.pid = ?"
        assert params == [42]

    def test_comparison_unknown_operator(self):
        with pytest.raises(ValueError):
            comparison("s.pid", "~", 42, [])

    def test_in_list(self):
        params = []
        clause = in_list("e.operation", ["read", "write"], False, params)
        assert clause == "e.operation IN (?, ?)"
        assert params == ["read", "write"]

    def test_not_in_list(self):
        clause = in_list("e.operation", ["read"], True, [])
        assert "NOT IN" in clause
