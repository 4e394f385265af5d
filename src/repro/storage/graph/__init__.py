"""Graph storage backend (property graph + mini-Cypher, Neo4j stand-in)."""

import threading
from pathlib import Path
from typing import Callable, Optional

from ...gcpause import gc_paused
from ...obs.trace import start_span
from .cypher_ast import (BooleanExpr, Comparison, CypherQuery, Literal,
                         NodePattern, NotExpr, PathPattern, PropertyRef,
                         RelationshipPattern, ReturnItem)
from .cypher_eval import CypherEvaluator, evaluate_where
from .cypher_parser import CypherParser, parse_cypher, tokenize
from .graphdb import GraphEdge, GraphNode, PropertyGraph, graph_from_events


class GraphStore:
    """Neo4j-style store: a property graph plus a Cypher query interface;
    :attr:`graph` loads on first access after :meth:`defer_load`."""

    def __init__(self) -> None:
        self._graph: Optional[PropertyGraph] = PropertyGraph()
        self._pending: Optional[tuple[Path, int,
                                      Callable[[PropertyGraph], None]]] = None
        self._lock = threading.Lock()

    @property
    def graph(self) -> PropertyGraph:
        graph = self._graph
        return graph if graph is not None else self._load_pending()

    @graph.setter
    def graph(self, graph: PropertyGraph) -> None:
        with self._lock:                # replaces a pending load
            self._graph, self._pending = graph, None

    def defer_load(self, path: str | Path,
                   verify: Callable[[PropertyGraph], None]) -> None:
        """Make :attr:`graph` the snapshot at ``path``, parsed on first use.

        The container header is checked now.  ``verify`` sees the loaded
        graph before it is kept; a load or ``verify`` that raises keeps
        nothing, so every later access raises again.
        """
        payload = PropertyGraph.check_snapshot(path)
        with self._lock:
            self._graph, self._pending = None, (Path(path), payload, verify)

    def _load_pending(self) -> PropertyGraph:
        with self._lock:
            graph = self._graph
            if graph is None:       # not loaded while this thread waited
                assert self._pending is not None
                path, payload, verify = self._pending
                with start_span("graph_load", bytes=payload) as span, \
                        gc_paused():
                    graph = PropertyGraph.load(path)
                    span.set_attribute("nodes", graph.num_nodes())
                    span.set_attribute("edges", graph.num_edges())
                verify(graph)
                self._graph, self._pending = graph, None
            return graph

    def load_events(self, events) -> int:
        """Load a system event stream into the property graph."""
        self.graph = graph_from_events(events)
        return self.graph.num_edges()

    def load_prepared(self, nodes, edges) -> int:
        """Rebuild the graph from pre-flattened node/edge batches.

        ``nodes`` are ``(label, properties)`` pairs and ``edges`` are
        ``(source, target, label, properties)`` tuples whose endpoints refer
        to the 1-based position of the node in ``nodes`` — the contract of
        the dual store's single-pass loader.  Returns the edge count.
        """
        graph = PropertyGraph()
        graph.add_nodes_bulk(nodes)
        graph.add_edges_bulk(edges)
        self.graph = graph
        return graph.num_edges()

    def append_prepared(self, nodes, edges) -> int:
        """Append pre-flattened node/edge batches to the *existing* graph.

        The incremental counterpart of :meth:`load_prepared`: nodes get the
        next free ids (continuing the stored id space) and edge endpoints
        are absolute node ids, so a delta built against the store's current
        id assignment lands without a rebuild.  Returns the appended edge
        count.
        """
        self.graph.add_nodes_bulk(nodes)
        self.graph.add_edges_bulk(edges)
        return len(edges)

    def execute(self, cypher: str) -> list[dict]:
        """Parse and evaluate a mini-Cypher query, returning result rows."""
        query = parse_cypher(cypher)
        return CypherEvaluator(self.graph).execute(query)

    def num_nodes(self) -> int:
        return self.graph.num_nodes()

    def num_edges(self) -> int:
        return self.graph.num_edges()

    def clear(self) -> None:
        self.graph.clear()


__all__ = [
    "BooleanExpr",
    "Comparison",
    "CypherQuery",
    "Literal",
    "NodePattern",
    "NotExpr",
    "PathPattern",
    "PropertyRef",
    "RelationshipPattern",
    "ReturnItem",
    "CypherEvaluator",
    "evaluate_where",
    "CypherParser",
    "parse_cypher",
    "tokenize",
    "GraphEdge",
    "GraphNode",
    "PropertyGraph",
    "graph_from_events",
    "GraphStore",
]
