"""Tests for the dual store and the error hierarchy."""

from operator import attrgetter

import pytest

from repro import errors
from repro.audit import AuditCollector, generate_benign_noise
from repro.audit.reduction import reduce_events
from repro.storage import DualStore
from repro.storage.relational.schema import INDEX_NAMES
from repro.tbql.compiler_sql import compile_pattern_sql
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.paths import adjacency
from repro.tbql.semantics import resolve_query


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
    def test_stored_rows_feed_the_path_adjacency(self, small_events):
        with DualStore() as store:
            stored = store.load_events(small_events)
            stats = store.statistics()
            assert stats["relational_events"] == stored
            edges = adjacency(store).out_edges
            assert sum(map(len, edges.values())) == stored
            assert set(edges) <= set(range(
                1, stats["relational_entities"] + 1))

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

    def test_stores_the_reduced_stream(self, small_events):
        with DualStore() as store:
            stored = store.load_events(small_events)
            assert stored == len(reduce_events(small_events)[0])

    def test_both_query_interfaces_agree(self, small_events):
        with DualStore() as store:
            store.load_events(small_events + generate_benign_noise(5))
            sql_rows = store.execute_sql(
                "SELECT COUNT(*) AS n FROM events e JOIN entities s ON "
                "e.subject_id = s.id WHERE s.exename = '/bin/tar'")
            paths = sum(TBQLExecutor(store).execute(
                f'proc p["/bin/tar"] -> {kind} o return p')
                .per_pattern_matches["evt1"]
                for kind in ("proc", "file", "ip"))
            assert sql_rows[0]["n"] == paths > 0

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
        for name in ("AuditError", "StorageError", "NLPError",
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

    def test_catching_base_class_catches_subsystem_errors(self):
        from repro.tbql.parser import parse_tbql
        with pytest.raises(errors.ReproError):
            parse_tbql("proc p @@@")


#: Every way rows reach the relational store.  A batch into an empty
#: ``events`` table defers the index build to its end; none may leave
#: the store without an index (answers stay right, only slow).
_WRITE_SHAPES = ["load_fresh", "load_over_populated", "first_append",
                 "later_append", "reopen_then_append"]


def _written(shape, first, second, tmp_path) -> DualStore:
    """A store written as ``shape`` says, from ``first`` (and ``second``)."""
    def appended(store, *batches):
        for batch in batches:
            store.append_events(batch)
            store.flush_appends()
        return store

    if shape.startswith("load"):
        store = DualStore()
        for batch in ([first, second] if shape == "load_over_populated"
                      else [first]):
            store.load_events(batch)
        return store
    if shape == "reopen_then_append":
        with appended(DualStore(), first) as saved:
            saved.save(tmp_path / "snap")
        return appended(DualStore.open(tmp_path / "snap", read_only=False),
                        second)
    return appended(DualStore(), *([first, second]
                                   if shape == "later_append" else [first]))


@pytest.mark.parametrize("shape", _WRITE_SHAPES)
def test_indexes_after_every_write_shape(shape, tmp_path):
    events = sorted(generate_benign_noise(8, seed=3),
                    key=attrgetter("start_time", "event_id"))
    half = len(events) // 2
    with _written(shape, events[:half], events[half:], tmp_path) as store:
        assert store.relational.count_events() > 0
        names = {row["name"] for row in store.execute_sql(
            "SELECT name FROM sqlite_master WHERE type = 'index'")}
        assert set(INDEX_NAMES) <= names
        resolved = resolve_query(parse_tbql(
            "proc p read file f return p, f"))
        subjects = [row["id"] for row in store.execute_sql(
            "SELECT id FROM entities WHERE type = 'proc' LIMIT 3")]
        compiled = compile_pattern_sql(resolved.patterns[0], resolved,
                                       subject_candidates=subjects)
        plan = " | ".join(row["detail"] for row in store.execute_sql(
            "EXPLAIN QUERY PLAN " + compiled.sql, compiled.params))
        assert "idx_events_subject" in plan, plan
