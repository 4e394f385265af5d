"""Tests for the replicated dual store and the error hierarchy."""

import pytest

from repro import errors
from repro.audit import AuditCollector, generate_benign_noise
from repro.storage import DualStore


@pytest.fixture()
def small_events():
    collector = AuditCollector()
    tar = collector.spawn_process("/bin/tar")
    collector.read_file(tar, "/etc/passwd", burst=6)
    collector.write_file(tar, "/tmp/upload.tar", burst=4)
    curl = collector.spawn_process("/usr/bin/curl")
    collector.connect_ip(curl, "192.168.29.128")
    return collector.events()


class TestDualStore:
    def test_data_replicated_across_backends(self, small_events):
        with DualStore() as store:
            stored = store.load_events(small_events)
            stats = store.statistics()
            assert stats["relational_events"] == stored
            assert store.graph.num_edges() == stored
            assert stats["relational_entities"] == store.graph.num_nodes()

    def test_reduction_applied_by_default(self, small_events):
        with DualStore() as store:
            stored = store.load_events(small_events)
            assert stored < len(small_events)
            assert store.last_reduction is not None
            assert store.last_reduction.reduction_ratio > 1.0
            assert store.statistics()["reduction_ratio"] > 1.0

    def test_reduction_can_be_disabled(self, small_events):
        with DualStore(reduce=False) as store:
            stored = store.load_events(small_events)
            assert stored == len(small_events)
            assert store.last_reduction is None

    def test_custom_merge_threshold(self, small_events):
        with DualStore(merge_threshold=0.0) as loose, \
                DualStore(merge_threshold=10.0) as tight:
            loose_count = loose.load_events(small_events)
            tight_count = tight.load_events(small_events)
            assert tight_count <= loose_count

    def test_events_accessor_returns_reduced_stream(self, small_events):
        with DualStore() as store:
            stored = store.load_events(small_events)
            assert len(store.events()) == stored

    def test_both_query_interfaces_agree(self, small_events):
        with DualStore() as store:
            store.load_events(small_events + generate_benign_noise(5))
            sql_rows = store.execute_sql(
                "SELECT COUNT(*) AS n FROM events e JOIN entities s ON "
                "e.subject_id = s.id WHERE s.exename = '/bin/tar'")
            cypher_rows = store.execute_cypher(
                "MATCH (p:proc {exename: '/bin/tar'})-[e:EVENT]->(o) "
                "RETURN e")
            assert sql_rows[0]["n"] == len(cypher_rows)

    def test_on_disk_relational_path(self, tmp_path, small_events):
        path = tmp_path / "events.db"
        with DualStore(relational_path=path) as store:
            store.load_events(small_events)
        assert path.exists()

    def test_close_is_idempotent(self, small_events):
        store = DualStore()
        store.load_events(small_events)
        store.close()
        store.close()   # second close must be a no-op, not an error

    def test_context_manager_closes_connection(self, tmp_path,
                                               small_events):
        path = tmp_path / "events.db"
        with DualStore(relational_path=path) as store:
            store.load_events(small_events)
        with pytest.raises(errors.StorageError):
            store.execute_sql("SELECT COUNT(*) AS n FROM events")

    def test_data_version_bumps_on_reload(self, small_events):
        with DualStore() as store:
            before = store.data_version
            store.load_events(small_events)
            after_first = store.data_version
            store.load_events(small_events)
            assert before < after_first < store.data_version


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in ("AuditError", "StorageError", "CypherError", "NLPError",
                     "ExtractionError", "TBQLError", "TBQLSyntaxError",
                     "TBQLSemanticError", "SynthesisError", "ExecutionError",
                     "BenchmarkError"):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_tbql_errors_derive_from_tbql_error(self):
        for name in ("TBQLSyntaxError", "TBQLSemanticError",
                     "SynthesisError", "ExecutionError"):
            assert issubclass(getattr(errors, name), errors.TBQLError)

    def test_syntax_error_carries_location(self):
        error = errors.TBQLSyntaxError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert error.line == 3 and error.column == 7

    def test_cypher_error_position(self):
        error = errors.CypherError("oops", position=12)
        assert error.position == 12

    def test_catching_base_class_catches_subsystem_errors(self):
        from repro.tbql.parser import parse_tbql
        with pytest.raises(errors.ReproError):
            parse_tbql("proc p @@@")
