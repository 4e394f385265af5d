"""The giant-Cypher text of Table VIII and Table X, and a property graph.

The paper replicates the audit data into Neo4j and runs path patterns as
Cypher (Section III-B).  The engine here runs path patterns on the stored
event rows (:mod:`repro.tbql.paths`), holds no graph and runs no Cypher:
:func:`compile_giant_cypher` writes the Cypher statement a Neo4j user
would, whose text Table VIII lists and Table X measures, but nothing
executes it — without a graph database the Cypher timing is not
reproduced.  :func:`graph_from_store` builds the property graph of a
store's rows — node id == entity id, edge id == event id — which tests
hold the path adjacency and the fuzzy index against.  Nothing under the
engine packages imports this one.
"""

from typing import Any, Sequence

from ...errors import StorageError
from ...gcpause import gc_paused
from ...storage.relational.database import entity_attributes
from ...storage.relational.schema import ENTITY_COLUMNS
from .compiler import compile_giant_cypher, render_filter_cypher
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


__all__ = [
    "GraphEdge",
    "GraphNode",
    "PropertyGraph",
    "graph_from_events",
    "graph_from_store",
    "compile_giant_cypher",
    "render_filter_cypher",
]
