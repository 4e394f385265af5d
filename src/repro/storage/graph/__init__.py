"""Graph storage backend (property graph + mini-Cypher, Neo4j stand-in)."""

import threading
from typing import Any, Callable, Optional, Sequence

from ...errors import StorageError
from ...gcpause import gc_paused
from ...obs.trace import start_span
from ..relational.database import entity_attributes
from ..relational.schema import ENTITY_COLUMNS
from .cypher_ast import (BooleanExpr, Comparison, CypherQuery, Literal,
                         NodePattern, NotExpr, PathPattern, PropertyRef,
                         RelationshipPattern, ReturnItem)
from .cypher_eval import CypherEvaluator, evaluate_where
from .cypher_parser import CypherParser, parse_cypher, tokenize
from .graphdb import GraphEdge, GraphNode, PropertyGraph, graph_from_events

#: The events columns an edge is built from: its endpoints, then the
#: properties in the order ``SystemEvent.attributes()`` builds them.
_EDGE_SELECT = ("SELECT id, subject_id, object_id, operation, start_time, "
                "end_time, duration, data_amount, failure_code, host, "
                "category FROM events WHERE id >= ? ORDER BY id")
_NODE_SELECT = (f"SELECT {', '.join(ENTITY_COLUMNS)} FROM entities "
                "WHERE id >= ? ORDER BY id")


def _check_aligned(table: str, rows: Sequence[Sequence[Any]],
                   first_id: int) -> None:
    """Ascending ids from ``first_id`` are contiguous iff the last one is
    where a gapless run would end; the graph assigns ids that way."""
    if rows and rows[-1][0] != first_id + len(rows) - 1:
        raise StorageError(
            f"{table} ids {first_id}..{rows[-1][0]} have gaps; the graph "
            f"cannot stay id-aligned with the relational store")


class GraphStore:
    """Neo4j-style access path: a property graph plus a Cypher interface.

    Bound to a relational store, the graph is a derived index of its
    ``entities`` and ``events`` rows, built only when something reads
    :attr:`graph`.  It is memoised per ``version()``: when the version
    moves, the next reader extends the graph in place from the rows above
    its high-water marks (entity id >= ``next_node_id``, event id >
    ``num_edges()``).  The store is append-only and id-aligned — entity
    id == node id, event id == edge id — so a first build is the same
    call on an empty graph.  A store whose data is replaced calls
    :meth:`drop`.  Unbound, the graph is whatever :meth:`load_events` or
    an assignment put there.
    """

    def __init__(self, relational=None,
                 version: Callable[[], int] = lambda: 0) -> None:
        self._relational = relational
        self._version = version
        self._graph = PropertyGraph()
        #: The version the graph reflects; ``None`` means "derive on the
        #: next read".  An unbound store never derives.
        self._derived_at: Optional[int] = None if relational is not None \
            else version()
        self._lock = threading.Lock()

    @property
    def graph(self) -> PropertyGraph:
        version = self._version()
        if version != self._derived_at:
            with self._lock:        # racing readers derive once
                if version != self._derived_at:
                    self._derive(self._graph)
                    self._derived_at = version
        return self._graph

    @graph.setter
    def graph(self, graph: PropertyGraph) -> None:
        """Adopt ``graph`` as the graph of the current version; a bound
        store extends it from its high-water marks after the next
        version change."""
        with self._lock:
            self._graph, self._derived_at = graph, self._version()

    def drop(self) -> None:
        """Forget the graph: the data it was derived from was replaced."""
        with self._lock:
            self._graph, self._derived_at = PropertyGraph(), None

    @gc_paused()
    def _derive(self, graph: PropertyGraph) -> tuple[int, int]:
        """Add the relational rows above ``graph``'s high-water marks;
        returns the node and edge counts added."""
        first_node = graph.next_node_id
        first_edge = graph.num_edges() + 1
        with start_span("graph_derive") as span:
            entity_rows = self._relational.select_tuples(
                _NODE_SELECT, (first_node,))
            event_rows = self._relational.select_tuples(
                _EDGE_SELECT, (first_edge,))
            _check_aligned("entity", entity_rows, first_node)
            _check_aligned("event", event_rows, first_edge)
            graph.add_nodes_bulk(map(entity_attributes, entity_rows))
            graph.add_edges_bulk(
                (subject, obj, "EVENT", {
                    "operation": operation, "start_time": start,
                    "end_time": end, "duration": duration,
                    "data_amount": amount, "failure_code": failure,
                    "host": host, "category": category})
                for (_id, subject, obj, operation, start, end, duration,
                     amount, failure, host, category) in event_rows)
            span.set_attribute("nodes", len(entity_rows))
            span.set_attribute("edges", len(event_rows))
        return len(entity_rows), len(event_rows)

    def load_events(self, events) -> int:
        """Load a system event stream into the property graph."""
        self.graph = graph_from_events(events)
        return self.graph.num_edges()

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
