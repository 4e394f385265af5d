"""The derived graph is the graph the events describe.

However appends, seals, compactions, reads and a reload interleave, the
graph a store extends in place equals one derived from its relational
rows in one go and :func:`graph_from_events` over the events it stored:
node and edge ids, labels, property keys in order, and value types.
Snapshots written while ``graph.bin`` was part of the format open and
answer the same whether that file is intact, empty, damaged or missing,
and a resave deletes it.  The bulk paths fill the graph's indexes and
id counters.  Rows whose ids leave a gap fail the derivation.
"""

from __future__ import annotations

import json
import shutil
import sys
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.audit.logfmt import format_log
from repro.audit.parser import parse_audit_log
from repro.errors import StorageError
from repro.storage import DualStore
from repro.storage.graph import GraphStore
from repro.storage.graph.graphdb import (INDEXED_EDGE_PROPERTIES,
                                         INDEXED_NODE_PROPERTIES,
                                         PropertyGraph, graph_from_events)
from repro.storage.relational.database import entity_attributes, entity_row
from repro.tbql.executor import TBQLExecutor
from repro.tbql.fuzzy import FuzzySearcher

from .conftest import record_data_leak_attack, snapshot_files
from .test_snapshot_lazy_graph import CYPHER, PATH_TEXTS

#: A snapshot saved while the format still held ``graph.bin`` (v3).
_PR13_SNAPSHOT = Path(__file__).parent / "fixtures" / "snapshot_v3_pr13"
#: Fuzzy texts that align to the fixture's data-leak attack.
_FUZZY_TEXTS = [
    'proc p["%/bin/tarr%"] read file f["%/etc/passwd0%"] as evt1 '
    'proc p write file g["%/tmp/upload.tar%"] as evt2 return p, f, g',
    'proc p["%curl%"] connect ip i["%192.168.29.12%"] return p, i',
]


def _log_events():
    collector = AuditCollector(CollectorConfig(seed=11))
    record_data_leak_attack(collector)
    events = collector.events() + generate_benign_noise(num_sessions=4,
                                                        seed=23)
    events.sort(key=attrgetter("start_time", "event_id"))
    return parse_audit_log(format_log(events))


EVENTS = _log_events()


def _shape(graph: PropertyGraph) -> tuple[list, list]:
    """Every node and edge with its ids, label and properties; ``repr``
    keeps key order and value types (``1`` is not ``1.0``)."""
    return ([(node.node_id, node.label, repr(list(node.properties.items())))
             for node in graph.nodes()],
            [(edge.edge_id, edge.source, edge.target, edge.label,
              repr(list(edge.properties.items())))
             for edge in graph.edges()])


def _assert_derived_graph_is_exact(store: DualStore) -> None:
    extended = _shape(store.graph.graph)
    assert extended == _shape(GraphStore(store.relational).graph)
    assert extended == _shape(graph_from_events(store.events()))
    assert len(extended[1]) == store.relational.count_events()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(
    st.tuples(st.integers(min_value=1, max_value=len(EVENTS) - 1),
              st.sampled_from(["none", "flush", "seal"]),
              st.booleans(), st.booleans()),
    min_size=1, max_size=6),
    replace=st.integers(min_value=1, max_value=len(EVENTS)))
def test_extended_graph_equals_a_fresh_build(steps, replace):
    """``steps``: per append batch, where it ends, what follows it (an
    unsealed flush of the merge runs, a seal or nothing), whether the
    graph is read then, and whether a compaction runs."""
    steps = sorted(steps)
    with DualStore(layout="segmented") as store:
        start = 0
        for end, flush, read, compact in steps + [(len(EVENTS), "seal",
                                                   False, False)]:
            store.append_events(EVENTS[start:end])
            start = max(start, end)
            if flush != "none":
                store.flush_appends(seal_segment=(flush == "seal"))
            if compact:
                store.compact(min_events=len(EVENTS) // 3)
            if read:
                store.graph.graph
        _assert_derived_graph_is_exact(store)
        store.load_events(EVENTS[:replace])
        _assert_derived_graph_is_exact(store)


def _graph_bin(directory: Path) -> tuple[list, list]:
    """The nodes and edges a ``graph.bin`` held: its payload is JSON after
    an 18-byte header (magic, u16 version, u64 length).  Builds of the
    fixture's age also put the collector's global ``subject_id`` /
    ``object_id`` on every edge; later builds dropped them."""
    document = json.loads((directory / "graph.bin").read_bytes()[18:])
    return ([(node_id, label, repr(list(properties.items())))
             for node_id, label, properties in document["nodes"]],
            [(edge_id, source, target, label,
              repr([item for item in properties.items()
                    if item[0] not in ("subject_id", "object_id")]))
             for edge_id, source, target, label, properties
             in document["edges"]])


def _answers(directory: Path) -> tuple:
    with DualStore.open(directory) as store:
        return ([TBQLExecutor(store).execute(text).rows
                 for text in PATH_TEXTS],
                store.execute_cypher(CYPHER),
                [[(sorted(alignment.mapping.items()), alignment.score,
                   alignment.node_names)
                  for alignment in FuzzySearcher(store).search(text)
                  .alignments] for text in _FUZZY_TEXTS],
                _shape(store.graph.graph))


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """``(a copy of the fixture snapshot, its answers)``."""
    directory = tmp_path_factory.mktemp("legacy") / "intact"
    shutil.copytree(_PR13_SNAPSHOT, directory)
    return directory, _answers(directory)


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="the fixture's payloads are little-endian")
def test_a_graph_bin_is_ignored_intact_or_empty(intact, tmp_path):
    directory, answers = intact
    empty = tmp_path / "empty"
    shutil.copytree(_PR13_SNAPSHOT, empty)
    (empty / "graph.bin").write_bytes(b"")
    before = snapshot_files(empty)
    paths, cypher, fuzzy, graph = answers
    assert all(paths) and cypher and all(fuzzy)
    assert _answers(empty) == answers
    assert snapshot_files(empty) == before
    # The graph derived from the rows is the graph the old build saved.
    assert graph == _graph_bin(directory)


@pytest.mark.parametrize("damage", [
    lambda data: b"NOTAGRAPH" + data[9:],
    lambda data: data[:8] + (0xFFFF).to_bytes(2, "little") + data[10:],
    lambda data: data[:-7],
    lambda data: data[:12],
    None,
], ids=["magic", "version", "payload", "header", "missing"])
def test_a_damaged_or_missing_graph_bin_is_ignored(intact, tmp_path,
                                                   damage):
    """Damage that used to fail the open or the graph load — a bad magic
    or version, a truncated payload or header, a deleted file — in every
    ``graph.bin`` of the snapshot changes no answer."""
    directory = tmp_path / "damaged"
    shutil.copytree(_PR13_SNAPSHOT, directory)
    graph_files = sorted(directory.rglob("graph.bin"))
    assert len(graph_files) == 4
    for path in graph_files:
        if damage is None:
            path.unlink()
        else:
            path.write_bytes(damage(path.read_bytes()))
    assert _answers(directory) == intact[1]


def test_a_resave_deletes_a_graph_bin(tmp_path):
    directory = tmp_path / "snap"
    shutil.copytree(_PR13_SNAPSHOT, directory)
    with DualStore.open(directory, read_only=False) as store:
        store.save(directory)
    assert not (directory / "graph.bin").exists()
    assert not list(directory.glob("segments/*/graph.bin"))
    manifest = json.loads((directory / "manifest.json").read_text("utf-8"))
    assert manifest["format_version"] == 5
    assert "graph_nodes" not in manifest and "graph_edges" not in manifest


def test_entity_attributes_inverts_entity_row():
    """Node properties read back from an entities row keep the keys, key
    order and value types the entity's ``attributes()`` builds."""
    entities = {entity.unique_key: entity for event in EVENTS
                for entity in (event.subject, event.obj)}
    assert {entity.entity_type.value for entity in entities.values()} == \
        {"proc", "file", "ip"}
    for entity_id, entity in enumerate(entities.values(), start=1):
        label, properties = entity_attributes(entity_row(entity_id, entity))
        assert label == entity.entity_type.value
        assert repr(list(properties.items())) == \
            repr(list(entity.attributes().items()))


def test_derived_indexes_match_a_scan():
    """The bulk paths a derivation and an extension take fill the label
    and property indexes: every indexed lookup equals a full scan."""
    half = len(EVENTS) // 2
    with DualStore(layout="segmented") as store:
        store.append_events(EVENTS[:half])
        store.flush_appends()
        first = store.graph.num_edges()
        store.append_events(EVENTS[half:])
        store.flush_appends()
        graph = store.graph.graph
        assert first < graph.num_edges() == store.relational.count_events()
        nodes, edges = list(graph.nodes()), list(graph.edges())
        for label in ("proc", "file", "ip"):
            assert {node.node_id for node in graph.nodes(label)} == \
                {node.node_id for node in nodes if node.label == label}
        for key in INDEXED_NODE_PROPERTIES:
            for value in {node.properties.get(key) for node in nodes}:
                assert {node.node_id for node in
                        graph.nodes_with_property(key, value)} == \
                    {node.node_id for node in nodes
                     if key in node.properties
                     and node.properties[key] == value}
        for key in INDEXED_EDGE_PROPERTIES:
            for value in {edge.properties[key] for edge in edges}:
                assert {edge.edge_id for edge in
                        graph.edges_with_property(key, value)} == \
                    {edge.edge_id for edge in edges
                     if edge.properties[key] == value}


def test_id_counters_continue_after_derive():
    with DualStore() as store:
        store.load_events(EVENTS)
        graph = GraphStore(store.relational).graph
        nodes, edges = graph.num_nodes(), graph.num_edges()
        assert (nodes, edges) == (store.relational.count_entities(),
                                  store.relational.count_events())
        assert graph.next_node_id == nodes + 1
        node = graph.add_node("file", {"path": "/tmp/x"})
        assert node == nodes + 1
        assert graph.add_edge(1, node, "EVENT",
                              {"operation": "write"}) == edges + 1


def test_an_id_gap_is_a_storage_error_not_a_shifted_graph():
    """Edge ids are assigned in row order, so a missing event row would
    shift every later id; the derivation refuses instead."""
    with DualStore() as store:
        store.load_events(EVENTS)
        with store.relational._lock:
            store.relational._connection.execute(
                "DELETE FROM events WHERE id = 2")
        with pytest.raises(StorageError, match="gaps"):
            store.graph.graph
