"""The seed's brute-force fuzzy search, frozen as a differential oracle.

The shipped search prefilters node candidates through a bigram index,
scores them with a bit-parallel Levenshtein, reads information flows
from a cached closure of whichever endpoint of a query edge it maps
first (forward from the source or backward into the target) and cuts
alignment subtrees by branch-and-bound.  The seed did none of that: a
full Levenshtein DP against every node per query node, one bounded BFS
per query edge per partial alignment, no bounding, and the provenance
index built from the joined relational rows (:func:`joined_event_rows`).
Both must return identical alignments, scores and candidate counts; the
Table IX benchmark times them against each other.

The bodies below are the old code verbatim, with ``self`` renamed where
a method became a function; :meth:`BruteForceAligner._flow_score_to`
routes edges the shipped aligner reads from their target through the
same BFS.  The aligner still inherits ``alignments()``, ``_score`` and
``candidate_counts`` from :class:`GraphAligner`, so
``tests/test_fuzzy_answers.py`` pins those against recorded digests.
Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.storage.relational import RelationalStore
from repro.tbql.fuzzy import (MAX_FLOW_LENGTH, NODE_SIMILARITY_THRESHOLD,
                              Alignment, FuzzySearcher, FuzzySearchResult,
                              GraphAligner, ProvenanceIndex, QueryEdge,
                              QueryGraph, QueryNode, string_similarity)
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import ResolvedQuery, resolve_query


#: Every stored event joined with its subject's and object's attributes,
#: the rows the seed built its provenance index from.
_JOINED_EVENTS_SQL = (
    "SELECT e.id AS event_id, e.operation, e.category, e.start_time, "
    "e.end_time, e.duration, e.data_amount, e.failure_code, e.host, "
    "s.id AS subject_id, s.type AS subject_type, s.name AS "
    "subject_name, s.path AS subject_path, s.exename AS "
    "subject_exename, s.pid AS subject_pid, s.user AS subject_user, "
    "s.grp AS subject_group, s.cmdline AS subject_cmdline, "
    "o.id AS object_id, o.type AS object_type, o.name AS object_name, "
    "o.path AS object_path, o.exename AS object_exename, o.pid AS "
    "object_pid, o.user AS object_user, o.grp AS object_group, "
    "o.cmdline AS object_cmdline, o.srcip AS object_srcip, o.srcport "
    "AS object_srcport, o.dstip AS object_dstip, o.dstport AS "
    "object_dstport, o.protocol AS object_protocol "
    "FROM events e "
    "JOIN entities s ON e.subject_id = s.id "
    "JOIN entities o ON e.object_id = o.id "
    "ORDER BY e.start_time, e.id")


def joined_event_rows(relational: RelationalStore) -> list[dict]:
    """Every stored event row with its endpoints' attributes inlined
    (``subject_*`` / ``object_*`` columns), in time order."""
    return relational.execute(_JOINED_EVENTS_SQL)


def candidates_for_bruteforce(index: ProvenanceIndex, query_node: QueryNode,
                              threshold: Optional[float] = None
                              ) -> list[tuple[int, float]]:
    """Reference candidate scan: full Levenshtein DP per store entity."""
    if threshold is None:
        threshold = NODE_SIMILARITY_THRESHOLD
    results: list[tuple[int, float]] = []
    needle = query_node.search_string
    for node_id, name in index.node_names.items():
        if query_node.entity_type and \
                index.node_types.get(node_id) != query_node.entity_type:
            continue
        similarity = string_similarity(needle, name or "") if needle \
            else 0.5
        if similarity >= threshold:
            results.append((node_id, similarity))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results


def flow_score_bruteforce(index: ProvenanceIndex, source: int, target: int,
                          operations: Optional[frozenset[str]]) -> float:
    """Reference flow scoring: one bounded BFS per call."""
    frontier = [(source, 0)]
    visited = {source}
    best = 0.0
    while frontier:
        node, depth = frontier.pop(0)
        if depth >= MAX_FLOW_LENGTH:
            continue
        for _event, _subject, neighbor, operation, _start, _end in \
                index.edges.out_edges.get(node, ()):
            hop = depth + 1
            if neighbor == target and (
                    operations is None or operation in operations or
                    not operations):
                best = max(best, 1.0 / hop)
            if neighbor not in visited:
                visited.add(neighbor)
                frontier.append((neighbor, hop))
    return best


class BruteForceIndex(ProvenanceIndex):
    """A provenance index answering through the reference scans (no
    candidate memo: ``candidates_for`` reads through this override)."""

    def lookup_candidates(self, query_node: QueryNode,
                          threshold: Optional[float] = None
                          ) -> tuple[list[tuple[int, float]], bool]:
        return candidates_for_bruteforce(self, query_node, threshold), False

    def flow_score(self, source: int, target: int,
                   operations: Optional[frozenset[str]]) -> float:
        return flow_score_bruteforce(self, source, target, operations)


class BruteForceAligner(GraphAligner):
    """The aligner without branch-and-bound (use with a
    :class:`BruteForceIndex`)."""

    def _flow_score(self, source: int, target: int,
                    operations: Optional[frozenset[str]]) -> float:
        # The seed scored every flow through the index, with no closure.
        return self.index.flow_score(source, target, operations)

    def _flow_score_to(self, source: int, target: int,
                       operations: Optional[frozenset[str]]) -> float:
        return self.index.flow_score(source, target, operations)

    def _extend(self, order: list[QueryNode], position: int,
                mapping: dict[str, int],
                candidates: dict[str, list[tuple[int, float]]],
                ready_edges: list[list[QueryEdge]],
                flow_total: float, scored_edges: int,
                stop_after_first: bool) -> Iterator[Alignment]:
        if self._expansions > self.max_expansions:
            return
        if position == len(order):
            alignment = self._score(mapping)
            if alignment is not None:
                yield alignment
            return
        node = order[position]
        used = set(mapping.values())
        newly_ready = ready_edges[position]
        for candidate_id, _similarity in candidates[node.entity_id]:
            if candidate_id in used:
                continue
            self._expansions += 1
            mapping[node.entity_id] = candidate_id
            consistent = True
            added = 0.0
            for edge in newly_ready:
                score = self.index.flow_score(mapping[edge.source],
                                              mapping[edge.target],
                                              edge.operations)
                if score == 0.0:
                    consistent = False
                    break
                added += score
            if consistent:
                for alignment in self._extend(
                        order, position + 1, mapping, candidates,
                        ready_edges, flow_total + added,
                        scored_edges + len(newly_ready), stop_after_first):
                    yield alignment
                    if stop_after_first:
                        del mapping[node.entity_id]
                        return
            del mapping[node.entity_id]


class BruteForceFuzzySearcher(FuzzySearcher):
    """:class:`FuzzySearcher` over the seed's search."""

    def search(self, query: str | ResolvedQuery) -> FuzzySearchResult:
        resolved = query if isinstance(query, ResolvedQuery) else \
            resolve_query(parse_tbql(query))
        load_start = time.perf_counter()
        rows = joined_event_rows(self.store.relational)
        loading = time.perf_counter() - load_start
        prep_start = time.perf_counter()
        index = BruteForceIndex()
        for row in rows:
            index.add_event(row)
        preprocessing = time.perf_counter() - prep_start

        search_start = time.perf_counter()
        query_graph = QueryGraph.from_resolved(resolved)
        aligner = BruteForceAligner(query_graph, index,
                                    score_threshold=self.score_threshold)
        alignments = list(aligner.alignments(
            stop_after_first=self.stop_after_first))
        searching = time.perf_counter() - search_start
        return FuzzySearchResult(alignments=alignments,
                                 loading_seconds=loading,
                                 preprocessing_seconds=preprocessing,
                                 searching_seconds=searching,
                                 candidate_counts=aligner.candidate_counts())


class BruteForcePoirotSearcher(BruteForceFuzzySearcher):
    """The Poirot baseline over the seed's search: first alignment only."""

    stop_after_first = True


__all__ = ["BruteForceAligner", "BruteForceFuzzySearcher",
           "BruteForceIndex", "BruteForcePoirotSearcher",
           "candidates_for_bruteforce", "flow_score_bruteforce",
           "joined_event_rows"]
