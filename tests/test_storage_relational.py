"""Unit tests for the relational (SQLite) storage backend."""

import pytest

from repro.audit.collector import AuditCollector
from repro.audit.entities import EntityType
from repro.errors import StorageError
from repro.storage.relational import RelationalStore
from repro.storage.relational.sqlgen import (comparison, in_list,
                                             like_escape)

from .reference.ingest_rowwise import entity_id_for


@pytest.fixture()
def small_store():
    collector = AuditCollector()
    tar = collector.spawn_process("/bin/tar")
    collector.read_file(tar, "/etc/passwd", burst=2)
    collector.write_file(tar, "/tmp/upload.tar", burst=1)
    curl = collector.spawn_process("/usr/bin/curl")
    collector.connect_ip(curl, "192.168.29.128")
    store = RelationalStore()
    store.load_events(collector.events())
    yield store
    store.close()


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

    def test_clear_resets(self, small_store):
        small_store.clear()
        assert small_store.count_events() == 0
        assert small_store.count_entities() == 0

    def test_on_disk_database(self, tmp_path):
        collector = AuditCollector()
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd")
        path = tmp_path / "audit.db"
        with RelationalStore(path) as store:
            store.load_events(collector.events())
            assert store.count_events() == 3
        assert path.exists()


class TestQuerying:
    def test_parameterized_query(self, small_store):
        rows = small_store.execute(
            "SELECT * FROM events WHERE operation = ?", ("connect",))
        assert len(rows) == 1

    def test_invalid_sql_raises_storage_error(self, small_store):
        with pytest.raises(StorageError):
            small_store.execute("SELECT * FROM not_a_table")

    def test_query_events_joins_entities(self, small_store):
        rows = small_store.query_events("o.name LIKE ?", ("%passwd%",))
        assert rows
        assert all(row["subject_exename"] == "/bin/tar" for row in rows)
        assert all(row["object_name"] == "/etc/passwd" for row in rows)

    def test_query_events_limit(self, small_store):
        rows = small_store.query_events(limit=1)
        assert len(rows) == 1

    def test_all_events_shape(self, small_store):
        rows = small_store.all_events()
        assert len(rows) == 4
        expected_keys = {"event_id", "operation", "subject_exename",
                         "object_name", "object_dstip", "start_time"}
        assert expected_keys <= set(rows[0].keys())

    def test_entities_matching_by_type(self, small_store):
        processes = small_store.entities_matching(EntityType.PROCESS)
        assert {row["exename"] for row in processes} == {"/bin/tar",
                                                         "/usr/bin/curl"}

    def test_entities_matching_with_filter(self, small_store):
        rows = small_store.entities_matching(
            EntityType.NETWORK, "dstip = ?", ("192.168.29.128",))
        assert len(rows) == 1

    def test_entity_by_id(self, small_store):
        row = small_store.entity_by_id(1)
        assert row is not None
        assert small_store.entity_by_id(10_000) is None

    def test_explain_returns_plan(self, small_store):
        plan = small_store.explain(
            "SELECT * FROM entities WHERE exename = ?", ("/bin/tar",))
        assert plan

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
