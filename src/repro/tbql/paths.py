"""Path patterns (``->``, ``~>``) over the stored event rows.

The paper runs TBQL's path patterns as Cypher on a Neo4j copy of the
audit data (Section III-B).  Here they run on the rows the store already
holds: one two-way adjacency per store — each event row of the relational
``events`` table read once as an edge ``(event id, subject id, object
id, operation, start, end)``, that same tuple listed under its subject
in ``out_edges`` and under its object in ``in_edges``, both in event-id
order — expanded by a bounded depth-first search.  The fuzzy search
(:mod:`repro.tbql.fuzzy`) reads its flows from the same adjacency.

A match is a trail (no event twice) of ``min_length`` to ``max_length``
events (an unbounded ``~>`` stops at
:data:`~repro.tbql.semantics.DEFAULT_MAX_PATH_LENGTH`) from a start
subject to an object.  Its endpoints obey the event
patterns' semantics, rendered by the SQL compiler: the start set is the
subject type, the subject filter's entity conjuncts and the pushed
subject ids; the final hop must pass the object type, the object and
pattern filters, the operations, the window and the pushed object ids.
As in an event pattern, event attributes judge the event — the final
hop — also inside the subject filter.  Start subjects are expanded in
ascending id order, each with a LIFO stack over edges in id order.
Giant SQL (:func:`~repro.tbql.compiler_sql.compile_giant_sql`) renders
this same definition as a recursive CTE over the ``events`` rows, the
oracle the operator's answers are tested against.

The adjacency is memoised per store and built once however many readers
race for it; after an append it is extended from its high-water event
id, and after :meth:`~repro.storage.DualStore.load_events` replaced the
data it is rebuilt.
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict
from typing import Any, NamedTuple, Optional, Sequence

from ..gcpause import gc_paused
from ..obs.trace import start_span
from ..storage.dualstore import DualStore
from ..storage.relational.sqlgen import in_list
from .ast import AttributeFilter
from .compiler_sql import (_pattern_clauses, _split_subject_filter,
                           render_filter)
from .semantics import DEFAULT_MAX_PATH_LENGTH, ResolvedPattern, ResolvedQuery

#: One stored event: ``(event id, subject id, object id, operation,
#: start, end)``.
Edge = tuple[int, int, int, str, float, float]

_EDGE_SELECT = ("SELECT id, subject_id, object_id, operation, start_time, "
                "end_time FROM events WHERE id > ? ORDER BY id")

#: Most reached final hops the final-hop statement lists by event id;
#: past that it reads every event that passes (with up to as many pushed
#: object ids, under older SQLite's 999-variable limit).
_HOP_PUSHDOWN = 450

#: ``(subject, event)`` pairs per statement that checks a subject
#: conjunct reading event attributes (two bound values a pair, under
#: older SQLite's 999-variable limit with room for the filter's own).
_PAIR_CHUNK = 400


class PathMatch(NamedTuple):
    """One path: its start subject, events, end object and final hop."""

    subject_id: int
    event_ids: tuple[int, ...]
    object_id: int
    operation: str
    start_time: float
    end_time: float


class Adjacency:
    """Each edge under its subject id (``out_edges``) and its object id
    (``in_edges``), covering event ids ``1..high_water``."""

    def __init__(self, generation: int = 0) -> None:
        self.out_edges: defaultdict[int, list[Edge]] = defaultdict(list)
        self.in_edges: defaultdict[int, list[Edge]] = defaultdict(list)
        self.high_water = 0
        self.generation = generation
        self.version: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Adjacency) and \
            (self.out_edges, self.in_edges) == (other.out_edges,
                                                other.in_edges)

    def add(self, edges: Sequence[Edge]) -> None:
        """Append ``edges`` to both maps, in order."""
        out_edges, in_edges = self.out_edges, self.in_edges
        for edge in edges:
            out_edges[edge[1]].append(edge)
            in_edges[edge[2]].append(edge)
        if edges:
            self.high_water = max(self.high_water, edges[-1][0])

    @gc_paused()
    def extend(self, store: DualStore) -> int:
        """Add the event rows above the high-water id; returns their
        count."""
        with start_span("path_adjacency") as span:
            rows = store.relational.select_tuples(_EDGE_SELECT,
                                                  (self.high_water,))
            self.add(rows)
            span.set_attribute("edges", len(rows))
        return len(rows)


#: ``store -> Adjacency``; weak, so it never keeps a dropped store alive.
_MEMO: "weakref.WeakKeyDictionary[DualStore, Adjacency]" = \
    weakref.WeakKeyDictionary()
_MEMO_LOCK = threading.Lock()


def adjacency(store: DualStore) -> Adjacency:
    """``store``'s adjacency at its current ``data_version``."""
    with _MEMO_LOCK:
        memo = _MEMO.get(store)
        if memo is None or memo.generation != store.data_generation:
            memo = _MEMO[store] = Adjacency(store.data_generation)
        version = store.data_version
        if memo.version != version:
            memo.extend(store)
            memo.version = version
        return memo


def _select_ids(store: DualStore, sql: str, params: list[Any]) -> list[int]:
    return [row[0] for row in store.relational.select_tuples(sql, params)]


def _start_ids(store: DualStore, pattern: ResolvedPattern,
               conjuncts: list[AttributeFilter],
               subject_ids: Optional[Sequence[int]]) -> list[int]:
    params: list[Any] = [pattern.subject.entity_type.value]
    clauses = ["s.type = ?"]
    for conjunct in conjuncts:
        clauses.append(render_filter(conjunct, "s", "e", params) or "1")
    if subject_ids is not None:
        clauses.append(in_list("s.id", list(subject_ids), False, params))
    return _select_ids(store, "SELECT s.id FROM entities s WHERE " +
                       " AND ".join(clauses) + " ORDER BY s.id", params)


def _final_hops(store: DualStore, pattern: ResolvedPattern,
                resolved: ResolvedQuery,
                object_ids: Optional[Sequence[int]],
                reached: set[int]) -> set[int]:
    """The ``reached`` events that may end a path: object type and
    filters, pattern filter, operations, window, pushed object ids."""
    params: list[Any] = []
    listed = len(reached) <= _HOP_PUSHDOWN
    clauses = _pattern_clauses(
        pattern, resolved, "e", "s", "o", params, subject=False,
        operation_drives=object_ids is None and not listed)
    if object_ids is not None:
        clauses.append(in_list("o.id", list(object_ids), False, params))
    if listed:
        clauses.append(in_list("e.id", sorted(reached), False, params))
    return set(_select_ids(
        store, "SELECT e.id FROM events e "
        "JOIN entities o ON e.object_id = o.id WHERE " +
        " AND ".join(clauses), params))


def _passing_pairs(store: DualStore, conjuncts: list[AttributeFilter],
                   pairs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """The ``(subject id, event id)`` pairs passing every conjunct."""
    passing: set[tuple[int, int]] = set()
    filter_params: list[Any] = []
    where = " AND ".join(render_filter(conjunct, "s", "e", filter_params)
                         or "1" for conjunct in conjuncts)
    for start in range(0, len(pairs), _PAIR_CHUNK):
        chunk = pairs[start:start + _PAIR_CHUNK]
        sql = ("WITH pairs(sid, eid) AS (VALUES " +
               ", ".join("(?, ?)" for _ in chunk) + ") "
               "SELECT sid, eid FROM pairs "
               "JOIN entities s ON s.id = pairs.sid "
               "JOIN events e ON e.id = pairs.eid WHERE " + where)
        params = [value for pair in chunk for value in pair]
        passing.update((subject, event) for subject, event in
                       store.relational.select_tuples(
                           sql, params + filter_params))
    return passing


def _expand(out_edges: dict[int, list[Edge]], starts: list[int],
            min_length: int, max_length: int,
            operations: Optional[frozenset[str]]
            ) -> list[tuple[int, tuple[int, ...], Edge]]:
    """Bounded DFS: ``(start, event ids, final edge)`` of every trail
    from each start whose length is in range and whose final hop has one
    of ``operations`` (``None``: any).  The stack holds a node's edges,
    pushed only when it has some: popping one without would add
    nothing.  One ``path_expand`` span counts the starts, the edge lists
    popped (``edges``) and the trails found (``paths``)."""
    get = out_edges.get
    found: list[tuple[int, tuple[int, ...], Edge]] = []
    walked = 0
    with start_span("path_expand", starts=len(starts)) as span:
        for start in starts:
            edges = get(start)
            if not edges:
                continue
            stack: list[tuple[list[Edge], tuple[int, ...]]] = [(edges, ())]
            while stack:
                edges, path = stack.pop()
                walked += 1
                length = len(path) + 1
                ends = length >= min_length
                deeper = length < max_length
                for edge in edges:
                    event_id = edge[0]
                    if event_id in path:
                        continue
                    extended = path + (event_id,)
                    if ends and (operations is None or
                                 edge[3] in operations):
                        found.append((start, extended, edge))
                    if deeper:
                        following = get(edge[2])
                        if following:
                            stack.append((following, extended))
        span.set_attribute("edges", walked)
        span.set_attribute("paths", len(found))
    return found


def path_matches(store: DualStore, pattern: ResolvedPattern,
                 resolved: ResolvedQuery,
                 subject_ids: Optional[Sequence[int]] = None,
                 object_ids: Optional[Sequence[int]] = None
                 ) -> list[PathMatch]:
    """Every path ``pattern`` matches in ``store``; ``subject_ids`` /
    ``object_ids`` are entity ids pushed down from earlier steps."""
    on_entity, on_pair = _split_subject_filter(pattern)
    starts = _start_ids(store, pattern, on_entity, subject_ids)
    if not starts:
        return []
    paths = _expand(adjacency(store).out_edges, starts, pattern.min_length,
                    pattern.max_length or DEFAULT_MAX_PATH_LENGTH,
                    pattern.operations)
    if not paths:
        return []
    accepted = _final_hops(store, pattern, resolved, object_ids,
                           {edge[0] for _start, _path, edge in paths})
    matches = [PathMatch(start, path, *edge[2:])
               for start, path, edge in paths if edge[0] in accepted]
    if on_pair and matches:
        passing = _passing_pairs(store, on_pair, sorted(
            {(match.subject_id, match.event_ids[-1]) for match in matches}))
        matches = [match for match in matches
                   if (match.subject_id, match.event_ids[-1]) in passing]
    return matches


__all__ = ["Adjacency", "PathMatch", "adjacency", "path_matches"]
