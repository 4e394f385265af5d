"""In-memory property graph store (Neo4j stand-in).

System entities become nodes and system events become directed edges, exactly
as in the paper's Neo4j layout (Section III-B).  Nodes and edges carry
property dictionaries; label and property indexes are maintained for the
attributes threat-hunting filters use (file name, process executable name,
source/destination IP, operation type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
]
