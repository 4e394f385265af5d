"""Equivalence tests for the ingestion write path.

``DualStore.load_events`` (a clear, then the append path: streaming
reduction, one build pass, multi-row inserts) must store data
*identical* to the row-at-a-time
reference loader kept in ``tests/reference/ingest_rowwise.py`` — same
relational rows, same id assignment — and the bulk property-graph
construction of ``repro.benchmark.cypher`` must build the graph its
item-wise reference builds, from the events and from the stored rows
alike.
"""

import pytest

from repro.audit import AuditCollector, generate_benign_noise
from repro.storage import DualStore, IngestStats
from repro.tbql.paths import adjacency
from repro.benchmark.cypher import graph_from_events, graph_from_store

from .reference.ingest_rowwise import (RowwiseDualStore,
                                       graph_from_events_itemwise)


@pytest.fixture(scope="module")
def noise_events():
    return generate_benign_noise(40, seed=7)


def _graphs_equal(left, right):
    assert left.num_nodes() == right.num_nodes()
    assert left.num_edges() == right.num_edges()
    for node_id in range(1, left.num_nodes() + 1):
        a, b = left.node(node_id), right.node(node_id)
        assert (a.label, a.properties) == (b.label, b.properties)
    for edge_id in range(1, left.num_edges() + 1):
        a, b = left.edge(edge_id), right.edge(edge_id)
        assert (a.source, a.target, a.label, a.properties) == \
               (b.source, b.target, b.label, b.properties)


class TestLoadStrategyEquivalence:
    @pytest.mark.parametrize("reduce", [True, False])
    def test_identical_backends(self, noise_events, reduce):
        with DualStore(reduce=reduce) as batched, \
                RowwiseDualStore(reduce=reduce) as rowwise:
            count_batched = batched.load_events(noise_events)
            count_rowwise = rowwise.load_events(noise_events)
            assert int(count_batched) == int(count_rowwise)
            for sql in ("SELECT * FROM entities ORDER BY id",
                        "SELECT * FROM events ORDER BY id"):
                assert batched.execute_sql(sql) == rowwise.execute_sql(sql)
            _graphs_equal(graph_from_store(batched),
                          graph_from_events_itemwise(rowwise.stored_events))

    def test_reduction_stats_agree(self, noise_events):
        with DualStore() as batched, RowwiseDualStore() as rowwise:
            batched.load_events(noise_events)
            rowwise.load_events(noise_events)
            assert batched.last_reduction.input_events == \
                rowwise.last_reduction.input_events
            assert batched.last_reduction.output_events == \
                rowwise.last_reduction.output_events
            assert batched.last_reduction.merged_events == \
                rowwise.last_reduction.merged_events

    def test_reload_keeps_ids_aligned(self, noise_events):
        # A second batched load restarts the ids at 1; the path adjacency
        # built over the first load is rebuilt, never extended past it.
        with DualStore() as store:
            store.load_events(noise_events)
            first = adjacency(store)
            store.load_events(noise_events)
            rebuilt = adjacency(store)
            assert rebuilt is not first
            assert rebuilt.out_edges == first.out_edges
            assert rebuilt.high_water == store.relational.count_events()

    def test_new_entities_appended_after_a_load_get_dense_ids(
            self, noise_events):
        # The load hands its id assignment to the relational store, so
        # a later append keeps counting up: no collision, no gap.
        collector = AuditCollector()
        proc = collector.spawn_process("/bin/late")
        collector.read_file(proc, "/tmp/late-file")
        with DualStore() as store:
            store.load_events(noise_events)
            before = store.relational.count_entities()
            store.append_events(collector.events())
            store.flush_appends()
            assert store.relational.count_entities() == before + 2
            top = store.execute_sql(
                "SELECT COUNT(*) AS n, MAX(id) AS top FROM entities")[0]
            assert top["n"] == top["top"]
            late = store.execute_sql(
                "SELECT id FROM entities WHERE exename = '/bin/late' "
                "OR path = '/tmp/late-file'")
            assert sorted(row["id"] for row in late) == [before + 1,
                                                         before + 2]


class TestIngestStats:
    def test_int_compatible(self, noise_events):
        with DualStore() as store:
            stats = store.load_events(noise_events)
            assert isinstance(stats, IngestStats)
            assert isinstance(stats, int)
            assert stats == stats.events
            assert stats == store.statistics()["relational_events"]
            assert store.last_ingest is stats
            # The CLI prints the count through an f-string; the stats
            # object must render as a plain number there.
            assert f"{stats}" == str(int(stats))

    def test_breakdown_fields(self, noise_events):
        with DualStore() as store:
            stats = store.load_events(noise_events)
            assert stats.input_events == len(noise_events)
            assert stats.events <= stats.input_events
            assert stats.entities == store.relational.count_entities()
            assert stats.relational_batches >= 1
            assert set(stats.seconds) == {"reduce", "build", "relational"}
            assert stats.total_seconds == pytest.approx(
                sum(stats.seconds.values()))
            as_dict = stats.as_dict()
            assert as_dict["events"] == stats.events

    def test_rowwise_stats(self, noise_events):
        with RowwiseDualStore() as store:
            stats = store.load_events(noise_events)
            assert stats.entities == store.relational.count_entities()


class TestBulkGraphConstruction:
    def test_bulk_equals_itemwise(self, noise_events):
        _graphs_equal(graph_from_events(noise_events),
                      graph_from_events_itemwise(noise_events))

    def test_bulk_indexes_are_queryable(self, noise_events):
        bulk = graph_from_events(noise_events)
        itemwise = graph_from_events_itemwise(noise_events)
        probes = [("type", "proc"), ("type", "file")]
        sample = next(node for node in bulk.nodes()
                      if node.properties.get("path"))
        probes.append(("path", sample.properties["path"]))
        for key, value in probes:
            assert {n.node_id for n in bulk.nodes_with_property(key, value)} \
                == {n.node_id
                    for n in itemwise.nodes_with_property(key, value)}

    def test_clear_resets_everything(self, noise_events):
        graph = graph_from_events(noise_events)
        graph.clear()
        assert graph.num_nodes() == 0
        assert graph.num_edges() == 0
        assert list(graph.nodes()) == []
        assert graph.nodes_with_property("type", "proc") == []
        new_id = graph.add_node("proc", {"exename": "/bin/x"})
        assert new_id == 1  # id counters reset too


class TestIngestCLI:
    def test_ingest_stats_output(self, capsys, tmp_path, noise_events):
        from repro.audit.logfmt import format_log
        from repro.cli import main

        log_path = tmp_path / "audit.log"
        log_path.write_text(format_log(noise_events), encoding="utf-8")
        code = main(["ingest", "--log", str(log_path), "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "ingested" in captured.out
        assert "relational batches" in captured.out
        assert "reduce seconds" in captured.out
        lines = captured.out.splitlines()
        parse_line = next(index for index, line in enumerate(lines)
                          if "parse seconds" in line)
        assert "lines/s" in lines[parse_line]
        assert "malformed lines:    0" in lines[parse_line + 1]
        assert "entities created" in lines[parse_line + 2]
        assert "reduce seconds" in lines[parse_line + 3]
