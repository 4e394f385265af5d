"""Path patterns run as mini-Cypher, frozen as the path operator's oracle.

The executor once compiled each path pattern into one small Cypher data
query (:func:`compile_pattern_cypher`) and evaluated it on a property
graph derived from the store's rows.  :class:`CypherPathExecutor` is the
shipped executor with that path step put back: its path patterns run
through the mini-Cypher evaluator of ``repro.benchmark.cypher`` on a
graph built from the store's rows (rebuilt whenever ``data_version``
moves), everything else is shared.  The compiler and the executor's
path step are the old code, with the graph read from the local build.

Two differences from the shipped operator are Cypher's own, and a
differential test must steer clear of them: ``CONTAINS`` / ``STARTS
WITH`` / ``ENDS WITH`` match case-sensitively where SQL ``LIKE`` does
not, and start subjects are enumerated in the label index's ``set``
order, which is ascending id order only while ids stay below the set's
table size.  Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.benchmark.cypher import (PropertyGraph, execute_cypher,
                                    graph_from_store)
from repro.benchmark.cypher.compiler import _pattern_match_and_where
from repro.tbql.executor import PatternMatch, TBQLExecutor, _entity
from repro.tbql.fuzzy import ProvenanceIndex
from repro.tbql.semantics import ResolvedPattern, ResolvedQuery


def _candidate_clause(var: str, candidate_ids: Sequence[int]) -> str:
    """Render an entity-candidate allowlist as a ``var.id IN [...]`` test.

    The evaluator recognizes this form and enumerates the listed node ids
    directly instead of scanning a label, so candidates injected by the
    scheduler prune graph traversal the same way they prune SQL.
    """
    rendered = ", ".join(str(int(node_id)) for node_id in candidate_ids)
    return f"{var}.id IN [{rendered}]"


def compile_pattern_cypher(pattern: ResolvedPattern, query: ResolvedQuery,
                           subject_candidates: Sequence[int] | None = None,
                           object_candidates: Sequence[int] | None = None
                           ) -> str:
    """Compile one pattern into a small Cypher data query.

    The query returns the matched subject/object node ids plus the edge (or
    edge path) id(s) and the final-hop timing, which is what the scheduler's
    join needs.  ``subject_candidates`` / ``object_candidates`` are node-id
    restrictions injected from previously executed patterns.
    """
    match, where = _pattern_match_and_where(pattern, query, "s", "o", "e")
    if subject_candidates is not None:
        where.append(_candidate_clause("s", subject_candidates))
    if object_candidates is not None:
        where.append(_candidate_clause("o", object_candidates))
    where_text = f" WHERE {' AND '.join(where)}" if where else ""
    return (f"MATCH {match}{where_text} "
            "RETURN s.id AS subject_id, o.id AS object_id, "
            "e AS event_ids, e.start_time AS start_time, "
            "e.end_time AS end_time")


class CypherPathExecutor(TBQLExecutor):
    """:class:`TBQLExecutor` whose path steps run as mini-Cypher."""

    def __init__(self, store, use_scheduler: bool = True) -> None:
        super().__init__(store, use_scheduler=use_scheduler)
        self._graph: Optional[PropertyGraph] = None
        self._graph_version: Optional[int] = None

    def graph(self) -> PropertyGraph:
        """The property graph of the store's rows at its current
        ``data_version``."""
        if self._graph is None or \
                self._graph_version != self.store.data_version:
            self._graph = graph_from_store(self.store)
            self._graph_version = self.store.data_version
        return self._graph

    def _execute_path_pattern(self, pattern: ResolvedPattern,
                              resolved: ResolvedQuery,
                              subject_ids: Optional[list[int]] = None,
                              object_ids: Optional[list[int]] = None):
        cypher = compile_pattern_cypher(pattern, resolved,
                                        subject_candidates=subject_ids,
                                        object_candidates=object_ids)
        graph = self.graph()
        rows = execute_cypher(graph, cypher)
        entities: dict = {}
        matches = []
        for row in rows:
            for node_id in (row["subject_id"], row["object_id"]):
                if node_id not in entities:
                    entities[node_id] = _entity(
                        dict(graph.node(node_id).properties))
            subject_attrs, subject_key, _ = entities[row["subject_id"]]
            object_attrs, object_key, _ = entities[row["object_id"]]
            event_ids = row["event_ids"]
            if isinstance(event_ids, int):
                event_ids = [event_ids]
            final_edge = graph.edge(event_ids[-1]) if event_ids else None
            operation = final_edge.get("operation") if final_edge else None
            # Explicit None checks: a legitimate epoch-0 timestamp must not
            # be conflated with a missing value.
            start_time = row.get("start_time")
            end_time = row.get("end_time")
            matches.append(PatternMatch(
                subject_key, object_key, subject_attrs, object_attrs,
                operation, 0.0 if start_time is None else start_time,
                0.0 if end_time is None else end_time, tuple(event_ids),
                row["subject_id"], row["object_id"]))
        return matches, entities, 0


def provenance_index_from_graph(graph: PropertyGraph) -> ProvenanceIndex:
    """The fuzzy search's index built straight from a property graph —
    the construction ``ProvenanceIndex.from_store`` replaced."""
    index = ProvenanceIndex()
    node_names = index.node_names
    node_types = index.node_types
    for node in graph.nodes():
        properties = node.properties
        node_names[node.node_id] = (
            properties.get("dstip") or properties.get("path") or
            properties.get("exename") or properties.get("name") or "")
        node_types[node.node_id] = properties.get("type", "")
    for edge in graph.edges():
        properties = edge.properties
        index.edges.add([(edge.edge_id, edge.source, edge.target,
                          properties.get("operation", ""),
                          properties.get("start_time", 0.0),
                          properties.get("end_time", 0.0))])
    return index


__all__ = ["CypherPathExecutor", "compile_pattern_cypher",
           "provenance_index_from_graph"]
