"""Unit tests for the property graph of ``repro.benchmark.cypher`` (the
independent oracle of the path adjacency and the fuzzy index) and its
construction from events and from a store's rows."""

import pytest

from repro.audit.collector import AuditCollector
from repro.benchmark.cypher import (PropertyGraph, graph_from_events,
                                    graph_from_store)
from repro.errors import StorageError
from repro.storage import DualStore


class TestPropertyGraph:
    def test_add_and_fetch_nodes(self):
        graph = PropertyGraph()
        node_id = graph.add_node("proc", {"exename": "/bin/tar"})
        assert graph.node(node_id).get("exename") == "/bin/tar"
        assert graph.node(node_id).get("id") == node_id

    def test_duplicate_node_id_rejected(self):
        graph = PropertyGraph()
        graph.add_node("proc", node_id=1)
        with pytest.raises(StorageError):
            graph.add_node("proc", node_id=1)

    def test_edge_requires_existing_endpoints(self):
        graph = PropertyGraph()
        a = graph.add_node("proc")
        with pytest.raises(StorageError):
            graph.add_edge(a, 999, "EVENT")

    def test_unknown_node_raises(self):
        with pytest.raises(StorageError):
            PropertyGraph().node(5)

    def test_adjacency(self):
        graph = PropertyGraph()
        a = graph.add_node("proc")
        b = graph.add_node("file")
        edge = graph.add_edge(a, b, "EVENT", {"operation": "read"})
        assert [e.edge_id for e in graph.out_edges(a)] == [edge]
        assert [e.edge_id for e in graph.in_edges(b)] == [edge]
        assert graph.degree(a) == 1
        assert graph.degree(b) == 1

    def test_label_index(self):
        graph = PropertyGraph()
        graph.add_node("proc")
        graph.add_node("file")
        graph.add_node("file")
        assert len(list(graph.nodes("file"))) == 2
        assert len(list(graph.nodes())) == 3

    def test_property_index_lookup(self):
        graph = PropertyGraph()
        graph.add_node("proc", {"exename": "/bin/tar"})
        graph.add_node("proc", {"exename": "/bin/cp"})
        matches = graph.nodes_with_property("exename", "/bin/tar")
        assert len(matches) == 1

    def test_unindexed_property_lookup_scans(self):
        graph = PropertyGraph()
        graph.add_node("proc", {"cmdline": "tar cf x"})
        assert len(graph.nodes_with_property("cmdline", "tar cf x")) == 1

    def test_edge_property_index(self):
        graph = PropertyGraph()
        a = graph.add_node("proc")
        b = graph.add_node("file")
        graph.add_edge(a, b, "EVENT", {"operation": "read"})
        graph.add_edge(a, b, "EVENT", {"operation": "write"})
        assert len(graph.edges_with_property("operation", "read")) == 1

    def test_average_degree(self):
        graph = PropertyGraph()
        a = graph.add_node("proc")
        b = graph.add_node("file")
        graph.add_edge(a, b, "EVENT")
        assert graph.average_degree() == pytest.approx(0.5)
        assert PropertyGraph().average_degree() == 0.0

    def test_clear(self):
        graph = PropertyGraph()
        graph.add_node("proc")
        graph.clear()
        assert graph.num_nodes() == 0


class TestGraphFromEvents:
    def test_entities_become_nodes_events_become_edges(self):
        collector = AuditCollector()
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd", burst=2)
        collector.write_file(tar, "/tmp/upload.tar", burst=1)
        graph = graph_from_events(collector.events())
        assert graph.num_nodes() == 3      # tar, passwd, upload.tar
        assert graph.num_edges() == 3      # 2 reads + 1 write

    def test_node_labels_match_entity_types(self):
        collector = AuditCollector()
        curl = collector.spawn_process("/usr/bin/curl")
        collector.connect_ip(curl, "1.2.3.4")
        graph = graph_from_events(collector.events())
        labels = {node.label for node in graph.nodes()}
        assert labels == {"proc", "ip"}

    def test_edge_carries_event_attributes(self):
        collector = AuditCollector()
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd", burst=1)
        graph = graph_from_events(collector.events())
        edge = next(iter(graph.edges()))
        assert edge.get("operation") == "read"
        assert edge.get("start_time") > 0


class TestGraphFromStore:
    def test_load_and_traverse(self, data_leak_events):
        with DualStore() as store:
            count = store.load_events(data_leak_events)
            graph = graph_from_store(store)
        assert count == graph.num_edges()
        dstips = {graph.node(edge.target).get("dstip")
                  for edge in graph.edges()
                  if edge.get("operation") == "connect" and
                  "curl" in graph.node(edge.source).get("exename")}
        assert dstips == {"192.168.29.128"}
