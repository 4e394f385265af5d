"""In-memory property graph store (Neo4j stand-in).

System entities become nodes and system events become directed edges, exactly
as in the paper's Neo4j layout (Section III-B).  Nodes and edges carry
property dictionaries; label and property indexes are maintained for the
attributes threat-hunting filters use (file name, process executable name,
source/destination IP, operation type).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from ...audit.entities import SystemEvent
from ...errors import StorageError

#: Node properties indexed for equality lookups (mirrors the relational
#: indexes created in Section III-B).  ``path`` is indexed because file
#: entity keys are path-first: path lookups would otherwise fall back to a
#: full node scan.
INDEXED_NODE_PROPERTIES = ("type", "name", "path", "exename", "dstip",
                           "srcip")
#: Edge properties indexed for equality lookups.
INDEXED_EDGE_PROPERTIES = ("operation",)

#: Magic prefix identifying a property-graph snapshot file.
GRAPH_SNAPSHOT_MAGIC = b"RPGRAPH\x00"
#: Highest snapshot format version this build reads and writes.  Bump when
#: the container layout or payload schema changes;
#: :meth:`PropertyGraph.load` rejects snapshots newer than what it
#: understands instead of misreading them.
GRAPH_SNAPSHOT_VERSION = 1

_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")
#: Magic, version and payload length: what precedes the payload.
_HEADER_SIZE = len(GRAPH_SNAPSHOT_MAGIC) + _U16.size + _U64.size

#: Scalar types a snapshotted property value may have.  The payload encoder
#: is type-preserving exactly for this closed set (``bool`` included via
#: ``int``); anything else — tuples, objects, nested containers — is
#: rejected at save time rather than silently altered on round trip.
_SCALAR_TYPES = (str, int, float, type(None))


def _validate_properties(properties: dict, owner: str) -> None:
    for key, value in properties.items():
        if not isinstance(key, str):
            raise StorageError(
                f"unsnapshotable property key {key!r} on {owner}")
        if not isinstance(value, _SCALAR_TYPES):
            raise StorageError(
                f"unsnapshotable property value type "
                f"{type(value).__name__!r} for {key!r} on {owner}")


@dataclass(slots=True)
class GraphNode:
    """A node of the property graph."""

    node_id: int
    label: str
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        if key == "id":
            return self.node_id
        return self.properties.get(key, default)


@dataclass(slots=True)
class GraphEdge:
    """A directed edge of the property graph."""

    edge_id: int
    source: int
    target: int
    label: str
    properties: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        if key == "id":
            return self.edge_id
        return self.properties.get(key, default)


class PropertyGraph:
    """Directed multigraph with labeled, property-carrying nodes and edges."""

    def __init__(self) -> None:
        self._nodes: dict[int, GraphNode] = {}
        self._edges: dict[int, GraphEdge] = {}
        self._outgoing: dict[int, list[int]] = {}
        self._incoming: dict[int, list[int]] = {}
        self._node_label_index: dict[str, set[int]] = {}
        self._node_property_index: dict[tuple[str, Any], set[int]] = {}
        self._edge_property_index: dict[tuple[str, Any], set[int]] = {}
        self._next_node_id = 1
        self._next_edge_id = 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, label: str, properties: dict[str, Any] | None = None,
                 node_id: int | None = None) -> int:
        """Add a node and return its id."""
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._nodes:
            raise StorageError(f"duplicate node id: {node_id}")
        self._next_node_id = max(self._next_node_id, node_id + 1)
        node = GraphNode(node_id, label, dict(properties or {}))
        self._nodes[node_id] = node
        self._outgoing[node_id] = []
        self._incoming[node_id] = []
        self._node_label_index.setdefault(label, set()).add(node_id)
        for key in INDEXED_NODE_PROPERTIES:
            if key in node.properties:
                self._node_property_index.setdefault(
                    (key, node.properties[key]), set()).add(node_id)
        return node_id

    def add_edge(self, source: int, target: int, label: str,
                 properties: dict[str, Any] | None = None,
                 edge_id: int | None = None) -> int:
        """Add a directed edge and return its id."""
        if source not in self._nodes or target not in self._nodes:
            raise StorageError(
                f"edge endpoints must exist: {source} -> {target}")
        if edge_id is None:
            edge_id = self._next_edge_id
        if edge_id in self._edges:
            raise StorageError(f"duplicate edge id: {edge_id}")
        self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        edge = GraphEdge(edge_id, source, target, label,
                         dict(properties or {}))
        self._edges[edge_id] = edge
        self._outgoing[source].append(edge_id)
        self._incoming[target].append(edge_id)
        for key in INDEXED_EDGE_PROPERTIES:
            if key in edge.properties:
                self._edge_property_index.setdefault(
                    (key, edge.properties[key]), set()).add(edge_id)
        return edge_id

    def add_nodes_bulk(self, nodes: Iterable[tuple[str, dict[str, Any]]]
                       ) -> list[int]:
        """Add many ``(label, properties)`` nodes; returns their ids.

        The fast path behind bulk loading: ids are assigned sequentially,
        adjacency lists and the label/property indexes are maintained with
        bound locals, and the property dictionaries are adopted as-is (no
        defensive copy) — callers hand over ownership and must not mutate
        them afterwards.
        """
        node_map = self._nodes
        outgoing = self._outgoing
        incoming = self._incoming
        label_index = self._node_label_index
        property_index = self._node_property_index
        indexed = INDEXED_NODE_PROPERTIES
        node_id = self._next_node_id
        ids: list[int] = []
        for label, properties in nodes:
            node_map[node_id] = GraphNode(node_id, label, properties)
            outgoing[node_id] = []
            incoming[node_id] = []
            bucket = label_index.get(label)
            if bucket is None:
                bucket = label_index[label] = set()
            bucket.add(node_id)
            for key in indexed:
                if key in properties:
                    entry = (key, properties[key])
                    values = property_index.get(entry)
                    if values is None:
                        values = property_index[entry] = set()
                    values.add(node_id)
            ids.append(node_id)
            node_id += 1
        self._next_node_id = node_id
        return ids

    def add_edges_bulk(self, edges: Iterable[tuple[int, int, str,
                                                   dict[str, Any]]]
                       ) -> list[int]:
        """Add many ``(source, target, label, properties)`` edges.

        Endpoints must already exist (unknown endpoints raise
        :class:`StorageError` before anything is inserted).  As with
        :meth:`add_nodes_bulk`, property dictionaries are adopted without
        copying and index maintenance is amortized across the batch.
        """
        edge_map = self._edges
        outgoing = self._outgoing
        incoming = self._incoming
        property_index = self._edge_property_index
        indexed = INDEXED_EDGE_PROPERTIES
        edge_id = self._next_edge_id
        ids: list[int] = []
        for source, target, label, properties in edges:
            source_out = outgoing.get(source)
            target_in = incoming.get(target)
            if source_out is None or target_in is None:
                raise StorageError(
                    f"edge endpoints must exist: {source} -> {target}")
            edge_map[edge_id] = GraphEdge(edge_id, source, target, label,
                                          properties)
            source_out.append(edge_id)
            target_in.append(edge_id)
            for key in indexed:
                if key in properties:
                    entry = (key, properties[key])
                    values = property_index.get(entry)
                    if values is None:
                        values = property_index[entry] = set()
                    values.add(edge_id)
            ids.append(edge_id)
            edge_id += 1
        self._next_edge_id = edge_id
        return ids

    def clear(self) -> None:
        """Remove every node and edge.

        Each structure is reset explicitly (not via ``__init__`` on the live
        instance, which would break subclasses that extend the constructor).
        """
        self._nodes.clear()
        self._edges.clear()
        self._outgoing.clear()
        self._incoming.clear()
        self._node_label_index.clear()
        self._node_property_index.clear()
        self._edge_property_index.clear()
        self._next_node_id = 1
        self._next_edge_id = 1

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def next_node_id(self) -> int:
        """Id the next added node will receive (id-space continuation)."""
        return self._next_node_id

    def node(self, node_id: int) -> GraphNode:
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise StorageError(f"unknown node id: {node_id}") from exc

    def edge(self, edge_id: int) -> GraphEdge:
        try:
            return self._edges[edge_id]
        except KeyError as exc:
            raise StorageError(f"unknown edge id: {edge_id}") from exc

    def nodes(self, label: str | None = None) -> Iterator[GraphNode]:
        """Iterate nodes, optionally restricted to one label."""
        if label is None:
            yield from self._nodes.values()
            return
        for node_id in self._node_label_index.get(label, ()):
            yield self._nodes[node_id]

    def edges(self) -> Iterator[GraphEdge]:
        yield from self._edges.values()

    def nodes_by_ids(self, node_ids: Iterable[int]) -> list[GraphNode]:
        """Return existing nodes among ``node_ids`` (unknown ids skipped)."""
        return [self._nodes[node_id] for node_id in node_ids
                if node_id in self._nodes]

    def num_nodes(self) -> int:
        return len(self._nodes)

    def num_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, node_id: int) -> list[GraphEdge]:
        """Return edges whose source is ``node_id``."""
        return [self._edges[eid] for eid in self._outgoing.get(node_id, ())]

    def in_edges(self, node_id: int) -> list[GraphEdge]:
        """Return edges whose target is ``node_id``."""
        return [self._edges[eid] for eid in self._incoming.get(node_id, ())]

    def degree(self, node_id: int) -> int:
        return (len(self._outgoing.get(node_id, ())) +
                len(self._incoming.get(node_id, ())))

    def average_degree(self) -> float:
        """Average (out) degree, as reported for the TC cases in Section IV."""
        if not self._nodes:
            return 0.0
        return len(self._edges) / len(self._nodes)

    # ------------------------------------------------------------------
    # indexed lookups
    # ------------------------------------------------------------------
    def nodes_with_property(self, key: str, value: Any) -> list[GraphNode]:
        """Return nodes with an exact property value, using the index."""
        if key in INDEXED_NODE_PROPERTIES:
            ids = self._node_property_index.get((key, value), set())
            return [self._nodes[node_id] for node_id in ids]
        return [node for node in self._nodes.values()
                if node.properties.get(key) == value]

    def edges_with_property(self, key: str, value: Any) -> list[GraphEdge]:
        """Return edges with an exact property value, using the index."""
        if key in INDEXED_EDGE_PROPERTIES:
            ids = self._edge_property_index.get((key, value), set())
            return [self._edges[edge_id] for edge_id in ids]
        return [edge for edge in self._edges.values()
                if edge.properties.get(key) == value]

    # ------------------------------------------------------------------
    # binary snapshots
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Write a versioned binary snapshot of the graph; returns the size.

        Container layout: the :data:`GRAPH_SNAPSHOT_MAGIC` prefix, a
        little-endian ``u16`` format version, a ``u64`` payload length, then
        the payload — a UTF-8 JSON document holding the id counters plus
        every node ``[id, label, properties]`` and edge
        ``[id, source, target, label, properties]``.  JSON keeps the hot
        restore path in C (parsing tens of MB of per-value Python decoding
        was slower than re-ingesting) and is type-preserving for the scalar
        property values the stores use; save rejects anything outside that
        set.  The label/property indexes are *not* stored — :meth:`load`
        rebuilds them, so the on-disk layout stays decoupled from the
        in-memory indexing strategy.  The file is written to a temporary
        sibling and atomically renamed into place, so a crashed save never
        leaves a torn snapshot.
        """
        nodes = []
        for node in self._nodes.values():
            _validate_properties(node.properties, f"node {node.node_id}")
            nodes.append((node.node_id, node.label, node.properties))
        edges = []
        for edge in self._edges.values():
            _validate_properties(edge.properties, f"edge {edge.edge_id}")
            edges.append((edge.edge_id, edge.source, edge.target,
                          edge.label, edge.properties))
        payload = json.dumps({
            "next_node_id": self._next_node_id,
            "next_edge_id": self._next_edge_id,
            "nodes": nodes,
            "edges": edges,
        }, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        out = bytearray()
        out += GRAPH_SNAPSHOT_MAGIC
        out += _U16.pack(GRAPH_SNAPSHOT_VERSION)
        out += _U64.pack(len(payload))
        out += payload
        target = Path(path)
        temporary = target.with_name(target.name + ".tmp")
        temporary.write_bytes(out)
        os.replace(temporary, target)
        return len(out)

    @staticmethod
    def check_snapshot(path: str | Path) -> int:
        """Validate a snapshot's container header against the file size
        without reading the payload; returns the payload size.

        Raises the :class:`StorageError` :meth:`load` would for a
        missing, foreign, newer-version or truncated file.
        """
        try:
            with open(path, "rb") as handle:
                header = handle.read(_HEADER_SIZE)
                found = os.fstat(handle.fileno()).st_size - _HEADER_SIZE
        except OSError as exc:
            raise StorageError(
                f"cannot read graph snapshot {path}: {exc}") from exc
        magic_size = len(GRAPH_SNAPSHOT_MAGIC)
        if header[:magic_size] != GRAPH_SNAPSHOT_MAGIC:
            raise StorageError(f"not a property-graph snapshot: {path}")
        if len(header) < _HEADER_SIZE:
            raise StorageError(f"truncated graph snapshot: {path}")
        (version,) = _U16.unpack_from(header, magic_size)
        if version < 1 or version > GRAPH_SNAPSHOT_VERSION:
            raise StorageError(
                f"unsupported graph snapshot version {version} "
                f"(this build reads <= {GRAPH_SNAPSHOT_VERSION})")
        (payload_size,) = _U64.unpack_from(header, magic_size + _U16.size)
        if found < payload_size:
            raise StorageError(
                f"truncated graph snapshot: expected {payload_size} payload "
                f"bytes, found {found}")
        return payload_size

    @classmethod
    def load(cls, path: str | Path) -> "PropertyGraph":
        """Rebuild a graph from a binary snapshot written by :meth:`save`.

        Raises:
            StorageError: when the file is missing or unreadable, is not a
                graph snapshot, was written by a newer format version, or
                is truncated/corrupt.
        """
        payload_size = cls.check_snapshot(path)
        try:
            with open(path, "rb") as handle:
                handle.seek(_HEADER_SIZE)
                document = json.loads(handle.read(payload_size))
            node_rows = document.pop("nodes")
            edge_rows = document.pop("edges")
            next_node_id = int(document["next_node_id"])
            next_edge_id = int(document["next_edge_id"])
            # Popped in order as built, so no parsed row outlives its use.
            node_rows.reverse()
            edge_rows.reverse()
        except OSError as exc:
            raise StorageError(
                f"cannot read graph snapshot {path}: {exc}") from exc
        except (ValueError, KeyError, TypeError, AttributeError,
                UnicodeDecodeError) as exc:
            raise StorageError(
                f"corrupt graph snapshot payload: {exc}") from exc
        graph = cls()
        node_map = graph._nodes
        outgoing = graph._outgoing
        incoming = graph._incoming
        label_index = graph._node_label_index
        node_property_index = graph._node_property_index
        indexed_node_keys = INDEXED_NODE_PROPERTIES
        while node_rows:
            node_id, label, properties = node_rows.pop()
            if node_id in node_map:
                raise StorageError(
                    f"corrupt graph snapshot: duplicate node id {node_id}")
            node_map[node_id] = GraphNode(node_id, label, properties)
            outgoing[node_id] = []
            incoming[node_id] = []
            bucket = label_index.get(label)
            if bucket is None:
                bucket = label_index[label] = set()
            bucket.add(node_id)
            for key in indexed_node_keys:
                if key in properties:
                    entry = (key, properties[key])
                    values = node_property_index.get(entry)
                    if values is None:
                        values = node_property_index[entry] = set()
                    values.add(node_id)
        edge_map = graph._edges
        edge_property_index = graph._edge_property_index
        indexed_edge_keys = INDEXED_EDGE_PROPERTIES
        while edge_rows:
            edge_id, source, target, label, properties = edge_rows.pop()
            if edge_id in edge_map:
                raise StorageError(
                    f"corrupt graph snapshot: duplicate edge id {edge_id}")
            source_out = outgoing.get(source)
            target_in = incoming.get(target)
            if source_out is None or target_in is None:
                raise StorageError(
                    f"corrupt graph snapshot: edge {edge_id} references "
                    f"unknown endpoints {source} -> {target}")
            edge_map[edge_id] = GraphEdge(edge_id, source, target, label,
                                          properties)
            source_out.append(edge_id)
            target_in.append(edge_id)
            for key in indexed_edge_keys:
                if key in properties:
                    entry = (key, properties[key])
                    values = edge_property_index.get(entry)
                    if values is None:
                        values = edge_property_index[entry] = set()
                    values.add(edge_id)
        graph._next_node_id = max(next_node_id,
                                  max(node_map, default=0) + 1)
        graph._next_edge_id = max(next_edge_id,
                                  max(edge_map, default=0) + 1)
        return graph


def graph_from_events(events: Iterable[SystemEvent]) -> PropertyGraph:
    """Build the provenance property graph from a system event stream.

    Nodes are deduplicated by the entity unique keys of Section III-A; each
    event becomes one edge labeled ``EVENT`` carrying the event attributes.
    The stream is flattened into node/edge batches first and inserted through
    the bulk paths.
    """
    nodes: list[tuple[str, dict]] = []
    edges: list[tuple[int, int, str, dict]] = []
    node_ids: dict[tuple, int] = {}
    next_node_id = 1
    for event in events:
        endpoints = []
        for entity in (event.subject, event.obj):
            key = entity.unique_key
            node_id = node_ids.get(key)
            if node_id is None:
                node_id = node_ids[key] = next_node_id
                next_node_id += 1
                nodes.append((entity.entity_type.value, entity.attributes()))
            endpoints.append(node_id)
        edges.append((endpoints[0], endpoints[1], "EVENT",
                      event.attributes()))
    graph = PropertyGraph()
    graph.add_nodes_bulk(nodes)
    graph.add_edges_bulk(edges)
    return graph


__all__ = [
    "GraphNode",
    "GraphEdge",
    "PropertyGraph",
    "graph_from_events",
    "INDEXED_NODE_PROPERTIES",
    "INDEXED_EDGE_PROPERTIES",
    "GRAPH_SNAPSHOT_MAGIC",
    "GRAPH_SNAPSHOT_VERSION",
]
