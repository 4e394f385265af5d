"""Equivalence tests for the batched ingestion fast path.

The batched loader (streaming reduction, single build pass, chunked
``executemany``, bulk graph insertion) must populate both backends with data
*identical* to the retained row-at-a-time reference loader — same relational
rows, same graph nodes/edges/properties, same id assignment.
"""

import pytest

from repro.audit import AuditCollector, generate_benign_noise
from repro.storage import DualStore, IngestStats
from repro.storage.graph.graphdb import (graph_from_events,
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
                DualStore(reduce=reduce) as rowwise:
            count_batched = batched.load_events(noise_events,
                                                strategy="batched")
            count_rowwise = rowwise.load_events(noise_events,
                                                strategy="rowwise")
            assert int(count_batched) == int(count_rowwise)
            for sql in ("SELECT * FROM entities ORDER BY id",
                        "SELECT * FROM events ORDER BY id"):
                assert batched.execute_sql(sql) == rowwise.execute_sql(sql)
            _graphs_equal(batched.graph.graph, rowwise.graph.graph)
            assert [e.event_id for e in batched.events()] == \
                   [e.event_id for e in rowwise.events()]

    def test_reduction_stats_agree(self, noise_events):
        with DualStore() as batched, DualStore() as rowwise:
            batched.load_events(noise_events, strategy="batched")
            rowwise.load_events(noise_events, strategy="rowwise")
            assert batched.last_reduction.input_events == \
                rowwise.last_reduction.input_events
            assert batched.last_reduction.output_events == \
                rowwise.last_reduction.output_events
            assert batched.last_reduction.merged_events == \
                rowwise.last_reduction.merged_events

    def test_unknown_strategy_rejected(self, noise_events):
        with DualStore() as store:
            with pytest.raises(ValueError):
                store.load_events(noise_events, strategy="sideways")

    def test_reload_keeps_ids_aligned(self, noise_events):
        # Candidate pushdown relies on relational id == graph node id, and
        # the invariant must survive a second batched load.
        with DualStore() as store:
            store.load_events(noise_events)
            store.load_events(noise_events)
            rows = store.execute_sql(
                "SELECT id, type FROM entities ORDER BY id")
            for row in rows:
                node = store.graph.graph.node(row["id"])
                assert node.properties["type"] == row["type"]

    def test_incremental_relational_load_after_batched(self, noise_events):
        # adopt_entity_ids must leave the relational store ready for later
        # incremental loads: ids keep counting up, no collisions.
        collector = AuditCollector()
        proc = collector.spawn_process("/bin/late")
        collector.read_file(proc, "/tmp/late-file")
        with DualStore() as store:
            store.load_events(noise_events)
            before = store.relational.count_entities()
            store.relational.load_events(collector.events())
            after = store.relational.count_entities()
            assert after > before
            top = store.execute_sql(
                "SELECT COUNT(*) AS n, MAX(id) AS top FROM entities")[0]
            assert top["n"] == top["top"]  # dense, collision-free ids


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
            assert stats.strategy == "batched"
            assert stats.input_events == len(noise_events)
            assert stats.events <= stats.input_events
            assert stats.entities == store.statistics()["graph_nodes"]
            assert stats.relational_batches >= 1
            assert set(stats.seconds) == {"reduce", "build", "relational",
                                          "graph"}
            assert stats.total_seconds == pytest.approx(
                sum(stats.seconds.values()))
            as_dict = stats.as_dict()
            assert as_dict["events"] == stats.events
            assert as_dict["strategy"] == "batched"

    def test_rowwise_stats(self, noise_events):
        with DualStore() as store:
            stats = store.load_events(noise_events, strategy="rowwise")
            assert stats.strategy == "rowwise"
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
