"""Snapshot round-trip tests: ingest -> save -> open -> identical results.

The persistence contract of the serving subsystem: a store reopened from a
snapshot directory must answer the full TBQL equivalence corpus with results
identical to the freshly ingested store it was saved from, expose the same
statistics, and refuse mutation (read-only reader connections).  The binary
graph snapshot format is exercised directly for versioning and corruption
handling.
"""

from __future__ import annotations

import json
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import StorageError
from repro.storage import DualStore
from repro.storage.dualstore import (SNAPSHOT_FORMAT_VERSION, SNAPSHOT_GRAPH,
                                     SNAPSHOT_MANIFEST)
from repro.storage.graph.graphdb import (GRAPH_SNAPSHOT_MAGIC,
                                         GRAPH_SNAPSHOT_VERSION,
                                         PropertyGraph)
from repro.storage.relational import RelationalStore
from repro.tbql.executor import TBQLExecutor

from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


@pytest.fixture(scope="module")
def snapshot_dir(data_leak_events, tmp_path_factory):
    """A snapshot directory saved from a freshly ingested store."""
    directory = tmp_path_factory.mktemp("snapshots") / "data_leak"
    with DualStore() as store:
        store.load_events(data_leak_events)
        store.save(directory)
    return directory


@pytest.fixture(scope="module")
def reopened_store(snapshot_dir):
    store = DualStore.open(snapshot_dir)
    yield store
    store.close()


class TestRoundTrip:
    @pytest.mark.parametrize("text", EQUIVALENCE_CORPUS)
    def test_corpus_results_identical(self, data_leak_store, reopened_store,
                                      text):
        fresh = TBQLExecutor(data_leak_store).execute(text)
        warm = TBQLExecutor(reopened_store).execute(text)
        assert warm.rows == fresh.rows
        assert warm.matched_events == fresh.matched_events
        assert warm.per_pattern_matches == fresh.per_pattern_matches

    def test_counts_survive_round_trip(self, data_leak_store,
                                       reopened_store):
        fresh = data_leak_store.statistics()
        warm = reopened_store.statistics()
        for key in ("relational_entities", "relational_events",
                    "graph_nodes", "graph_edges"):
            assert warm[key] == fresh[key]

    def test_manifest_contents(self, snapshot_dir, reopened_store):
        manifest = json.loads(
            (snapshot_dir / SNAPSHOT_MANIFEST).read_text(encoding="utf-8"))
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["relational_events"] == \
            reopened_store.relational.count_events()
        assert manifest["graph_nodes"] == reopened_store.graph.num_nodes()

    def test_concurrent_reads_match_serial(self, reopened_store):
        executor = TBQLExecutor(reopened_store)
        serial = {text: executor.execute(text).rows
                  for text in EQUIVALENCE_CORPUS}

        def run(index):
            text = EQUIVALENCE_CORPUS[index % len(EQUIVALENCE_CORPUS)]
            return text, executor.execute(text).rows

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(run, range(4 * len(EQUIVALENCE_CORPUS))))
        for text, rows in outcomes:
            assert rows == serial[text]

    def test_events_list_not_part_of_snapshot(self, reopened_store):
        # Raw events are not persisted — both query backends are.
        assert reopened_store.events() == []


class TestReadOnly:
    def test_load_events_refused(self, reopened_store, data_leak_events):
        with pytest.raises(StorageError, match="read-only"):
            reopened_store.load_events(data_leak_events)

    def test_relational_mutation_refused(self, reopened_store):
        with pytest.raises(StorageError, match="read-only"):
            reopened_store.relational.clear()
        with pytest.raises(StorageError, match="read-only"):
            reopened_store.relational.insert_rows([], [(1,) * 11])

    def test_read_only_flags(self, data_leak_store, reopened_store):
        assert reopened_store.read_only
        assert reopened_store.relational.read_only
        assert not data_leak_store.read_only

    def test_read_only_requires_a_file(self):
        with pytest.raises(StorageError, match="on-disk"):
            RelationalStore(None, read_only=True)


class TestSnapshotValidation:
    def test_open_rejects_missing_manifest(self, tmp_path):
        empty = tmp_path / "not_a_snapshot"
        empty.mkdir()
        with pytest.raises(StorageError, match="not a dual-store snapshot"):
            DualStore.open(empty)

    def test_open_rejects_newer_format_version(self, snapshot_dir, tmp_path):
        copy = tmp_path / "newer"
        shutil.copytree(snapshot_dir, copy)
        manifest_path = copy / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StorageError, match="unsupported snapshot"):
            DualStore.open(copy)

    def test_open_rejects_count_mismatch(self, snapshot_dir, tmp_path,
                                         data_leak_store):
        """A relational count that disagrees fails the open; a graph
        count is checked when the graph loads, on first use — the open
        and every relational answer succeed, each graph use raises."""
        for key in ("relational_events", "graph_edges"):
            copy = tmp_path / f"tampered-{key}"
            shutil.copytree(snapshot_dir, copy)
            manifest_path = copy / SNAPSHOT_MANIFEST
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            manifest[key] += 1
            manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
            if key == "relational_events":
                with pytest.raises(StorageError, match="corrupt"):
                    DualStore.open(copy)
                continue
            with DualStore.open(copy) as store:
                text = EQUIVALENCE_CORPUS[0]
                assert TBQLExecutor(store).execute(text).rows == \
                    TBQLExecutor(data_leak_store).execute(text).rows
                for _attempt in range(2):
                    with pytest.raises(StorageError,
                                       match="corrupt: graph_edges"):
                        store.graph.graph
                with pytest.raises(StorageError, match="corrupt"):
                    store.statistics()

    def test_open_missing_graph_file_maps_to_storage_error(self,
                                                           snapshot_dir,
                                                           tmp_path):
        copy = tmp_path / "no_graph"
        shutil.copytree(snapshot_dir, copy)
        (copy / SNAPSHOT_GRAPH).unlink()
        with pytest.raises(StorageError, match="cannot read"):
            DualStore.open(copy)

    @pytest.mark.parametrize("damage,message", [
        (lambda data: b"NOTAGRAPH" + data[9:], "not a property-graph"),
        (lambda data: data[:8] + (GRAPH_SNAPSHOT_VERSION + 1).to_bytes(
            2, "little") + data[10:], "unsupported graph snapshot"),
        (lambda data: data[:-7], "truncated"),
        (lambda data: data[:12], "truncated"),
    ], ids=["magic", "version", "payload", "header"])
    def test_open_checks_the_graph_header(self, snapshot_dir, tmp_path,
                                          damage, message):
        """The graph payload loads lazily, but a damaged container header
        still fails the open itself."""
        copy = tmp_path / "damaged"
        shutil.copytree(snapshot_dir, copy)
        graph_path = copy / SNAPSHOT_GRAPH
        graph_path.write_bytes(damage(graph_path.read_bytes()))
        with pytest.raises(StorageError, match=message):
            DualStore.open(copy)

    def test_graph_load_rejects_bad_magic(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"NOTAGRAPH" + b"\x00" * 32)
        with pytest.raises(StorageError, match="not a property-graph"):
            PropertyGraph.load(bogus)

    def test_graph_load_rejects_newer_version(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node("proc", {"exename": "/bin/sh"})
        path = tmp_path / "graph.bin"
        graph.save(path)
        data = bytearray(path.read_bytes())
        offset = len(GRAPH_SNAPSHOT_MAGIC)
        data[offset:offset + 2] = (GRAPH_SNAPSHOT_VERSION + 1).to_bytes(
            2, "little")
        path.write_bytes(data)
        with pytest.raises(StorageError, match="unsupported graph snapshot"):
            PropertyGraph.load(path)

    def test_graph_load_rejects_truncation(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node("proc", {"exename": "/bin/sh"})
        graph.add_node("file", {"path": "/etc/passwd"})
        graph.add_edge(1, 2, "EVENT", {"operation": "read"})
        path = tmp_path / "graph.bin"
        graph.save(path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(StorageError, match="truncated"):
            PropertyGraph.load(path)


class TestGraphSnapshotFormat:
    def test_value_types_round_trip(self, tmp_path):
        graph = PropertyGraph()
        properties = {
            "none": None, "true": True, "false": False,
            "int": -42, "big": 2 ** 80, "float": 3.25,
            "str": "päth/✓", "zero": 0.0,
        }
        node_a = graph.add_node("proc", dict(properties,
                                             exename="/bin/tar"))
        node_b = graph.add_node("file", {"path": "/etc/passwd"})
        graph.add_edge(node_a, node_b, "EVENT",
                       {"operation": "read", "start_time": 12.5})
        path = tmp_path / "graph.bin"
        graph.save(path)
        loaded = PropertyGraph.load(path)
        assert loaded.num_nodes() == 2
        assert loaded.num_edges() == 1
        restored = loaded.node(node_a).properties
        for key, value in properties.items():
            assert restored[key] == value
            assert type(restored[key]) is type(value)

    def test_indexes_rebuilt_on_load(self, tmp_path):
        graph = PropertyGraph()
        node_a = graph.add_node("proc", {"exename": "/bin/tar"})
        node_b = graph.add_node("file", {"path": "/etc/passwd"})
        graph.add_edge(node_a, node_b, "EVENT", {"operation": "read"})
        path = tmp_path / "graph.bin"
        graph.save(path)
        loaded = PropertyGraph.load(path)
        assert [node.node_id for node in
                loaded.nodes_with_property("exename", "/bin/tar")] == [node_a]
        assert [edge.edge_id for edge in
                loaded.edges_with_property("operation", "read")] == [1]
        assert {node.node_id for node in loaded.nodes("file")} == {node_b}

    def test_id_counters_continue_after_load(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node("proc", {"exename": "/bin/tar"})
        path = tmp_path / "graph.bin"
        graph.save(path)
        loaded = PropertyGraph.load(path)
        assert loaded.add_node("file", {"path": "/tmp/x"}) == 2

    def test_unsnapshotable_value_rejected(self, tmp_path):
        graph = PropertyGraph()
        graph.add_node("proc", {"bad": object()})
        with pytest.raises(StorageError, match="unsnapshotable"):
            graph.save(tmp_path / "graph.bin")


class TestLifecycle:
    def test_snapshot_files_deletable_after_close(self, data_leak_events,
                                                  tmp_path):
        directory = tmp_path / "snap"
        with DualStore() as store:
            store.load_events(data_leak_events)
            store.save(directory)
        with DualStore.open(directory) as reopened:
            assert reopened.relational.count_events() > 0
        # Every connection is closed; CI can remove the directory.
        shutil.rmtree(directory)
        assert not directory.exists()

    def test_save_overwrites_previous_snapshot(self, tmp_path,
                                               data_leak_events):
        directory = tmp_path / "snap"
        with DualStore() as store:
            store.load_events(data_leak_events)
            store.save(directory)
            first = json.loads((directory / SNAPSHOT_MANIFEST).read_text(
                encoding="utf-8"))
            store.save(directory)
        second = json.loads((directory / SNAPSHOT_MANIFEST).read_text(
            encoding="utf-8"))
        assert second["relational_events"] == first["relational_events"]
        with DualStore.open(directory) as reopened:
            assert reopened.relational.count_events() == \
                first["relational_events"]

    def test_graph_snapshot_is_a_single_binary_file(self, snapshot_dir):
        payload = (snapshot_dir / SNAPSHOT_GRAPH).read_bytes()
        assert payload.startswith(GRAPH_SNAPSHOT_MAGIC)

    def test_cli_snapshot_command(self, tmp_path, capsys):
        from repro.audit.collector import AuditCollector, CollectorConfig
        from repro.audit.logfmt import format_log
        from repro.cli import main

        collector = AuditCollector(CollectorConfig(seed=3))
        proc = collector.spawn_process("/bin/tar")
        collector.read_file(proc, "/etc/passwd")
        log_path = tmp_path / "audit.log"
        log_path.write_text(format_log(collector.events()),
                            encoding="utf-8")
        out_dir = tmp_path / "snap"
        assert main(["snapshot", "--log", str(log_path),
                     "--out", str(out_dir)]) == 0
        assert "snapshot written" in capsys.readouterr().out
        with DualStore.open(out_dir) as store:
            assert store.relational.count_events() > 0
