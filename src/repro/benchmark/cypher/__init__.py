"""The giant-Cypher baseline of Table VIII: a property graph plus
mini-Cypher (Neo4j stand-in).

The paper replicates the audit data into Neo4j and runs path patterns as
Cypher (Section III-B).  The engine here runs path patterns on the stored
event rows (:mod:`repro.tbql.paths`) and holds no graph; this package
keeps the graph store and its query language as the RQ4 baseline a case
benchmark times against.  :func:`graph_from_store` builds the graph of a
store's rows — node id == entity id, edge id == event id — before any
timing starts, and :func:`execute_cypher` runs a mini-Cypher statement
on it.  Nothing under the engine packages imports this one.
"""

from typing import Any, Sequence

from ...errors import StorageError
from ...gcpause import gc_paused
from ...storage.relational.database import entity_attributes
from ...storage.relational.schema import ENTITY_COLUMNS
from .compiler import compile_giant_cypher, render_filter_cypher
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
                "category FROM events ORDER BY id")
_NODE_SELECT = (f"SELECT {', '.join(ENTITY_COLUMNS)} FROM entities "
                "ORDER BY id")


def _check_aligned(table: str, rows: Sequence[Sequence[Any]]) -> None:
    """Ascending ids from 1 are contiguous iff the last one is the row
    count; the graph assigns ids that way."""
    if rows and rows[-1][0] != len(rows):
        raise StorageError(
            f"{table} ids 1..{rows[-1][0]} have gaps; the graph cannot "
            f"stay id-aligned with the relational store")


@gc_paused()
def graph_from_store(store) -> PropertyGraph:
    """The property graph of ``store``'s ``entities`` and ``events`` rows
    (a :class:`~repro.storage.DualStore` or its relational store), equal
    to :func:`graph_from_events` over the events it stored."""
    relational = getattr(store, "relational", store)
    entity_rows = relational.select_tuples(_NODE_SELECT)
    event_rows = relational.select_tuples(_EDGE_SELECT)
    _check_aligned("entity", entity_rows)
    _check_aligned("event", event_rows)
    graph = PropertyGraph()
    graph.add_nodes_bulk(map(entity_attributes, entity_rows))
    graph.add_edges_bulk(
        (subject, obj, "EVENT", {
            "operation": operation, "start_time": start,
            "end_time": end, "duration": duration,
            "data_amount": amount, "failure_code": failure,
            "host": host, "category": category})
        for (_id, subject, obj, operation, start, end, duration,
             amount, failure, host, category) in event_rows)
    return graph


def execute_cypher(graph: PropertyGraph, cypher: str) -> list[dict]:
    """Parse and evaluate a mini-Cypher query, returning result rows."""
    return CypherEvaluator(graph).execute(parse_cypher(cypher))


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
    "graph_from_store",
    "execute_cypher",
    "compile_giant_cypher",
    "render_filter_cypher",
]
