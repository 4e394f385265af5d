"""The executor's seed-era join, anti-join and aggregation, frozen as oracles.

Each class below is a :class:`TBQLExecutor` with one operator swapped for
the naive implementation it replaced; the swapped-in bodies are the old
code verbatim.  The differential suites run the same corpus through the
shipped executor and through these:

* :class:`BacktrackingJoinExecutor` — the seed's cross-product
  backtracking join, every ``with`` relation checked on the complete
  assignment (worst case ``O(prod |matches_i|)``);
* :class:`ScanNegationExecutor` — the ``and not`` anti-join as a linear
  scan of the absence pattern's match list per assignment;
* :class:`ScanAggregationExecutor` — ``count()`` / ``group by`` with a
  linear list lookup per row;
* :class:`RowPathExecutor` — no partial-aggregate pushdown: aggregated
  queries take the general scan → join → aggregate path.

The seed references never pushed an aggregate down: the join oracle is
a row-path executor too, and the aggregation oracle runs its query
without the aggregation, which no pushdown applies to.  Test-only —
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.tbql.aggregate import _group_key, rows_from_counts
from repro.tbql.executor import PatternMatch, QueryResult, TBQLExecutor
from repro.tbql.semantics import ResolvedAggregation, ResolvedQuery


def count_scan(rows: list[dict[str, Any]],
               group_by: list[tuple[str, str]]) -> dict[tuple, int]:
    """Naive reference accumulator: linear lookup, no hashing."""
    keys: list[tuple] = []
    counts: list[int] = []
    for row in rows:
        key = _group_key(row, group_by)
        for index, existing in enumerate(keys):
            if existing == key:
                counts[index] += 1
                break
        else:
            keys.append(key)
            counts.append(1)
    return dict(zip(keys, counts))


def apply_aggregation_scan(rows: list[dict[str, Any]],
                           aggregation: Optional[ResolvedAggregation]
                           ) -> list[dict[str, Any]]:
    """``apply_aggregation`` over the :func:`count_scan` accumulator."""
    if aggregation is None:
        return rows
    return rows_from_counts(count_scan(rows, aggregation.group_by),
                            aggregation)


class RowPathExecutor(TBQLExecutor):
    """An executor that never pushes an aggregate below the scatter."""

    def _try_aggregate_pushdown(self, resolved: ResolvedQuery,
                                started: float) -> Optional[QueryResult]:
        return None


class BacktrackingJoinExecutor(RowPathExecutor):
    """An executor joining with the seed's backtracking enumeration."""

    def _join(self, resolved: ResolvedQuery,
              matches_by_pattern: dict[str, list[PatternMatch]],
              negated_matches: Optional[dict[str, list[PatternMatch]]] = None
              ) -> tuple[list[dict], list[dict]]:
        """The seed's cross-product backtracking join (reference only).

        Worst-case ``O(∏|matches_i|)``: every level re-scans the pattern's
        full match list against the partial binding.  Kept so equivalence
        tests can assert the hash join produces bit-identical results.
        """
        negation_allows = self._build_negation_checker(
            resolved, negated_matches or {})
        pattern_order = self._join_order(resolved, matches_by_pattern)
        rows: list[dict] = []
        seen_rows: set[tuple] = set()
        matched_events: list[dict] = []
        seen_events: set[tuple] = set()

        def backtrack(position: int, entity_binding: dict[str, str],
                      assignment: dict[str, PatternMatch]) -> None:
            if position == len(pattern_order):
                if not self._relations_hold(resolved, assignment):
                    return
                if negation_allows is not None and \
                        not negation_allows(entity_binding):
                    return
                self._emit(self._projection(resolved), assignment, rows,
                           seen_rows, matched_events, seen_events)
                return
            pattern_id = pattern_order[position]
            pattern = resolved.pattern_by_id(pattern_id)
            for match in matches_by_pattern[pattern_id]:
                subject_prev = entity_binding.get(pattern.subject.entity_id)
                object_prev = entity_binding.get(pattern.obj.entity_id)
                if subject_prev is not None and \
                        subject_prev != match.subject_key:
                    continue
                if object_prev is not None and \
                        object_prev != match.object_key:
                    continue
                new_binding = dict(entity_binding)
                new_binding[pattern.subject.entity_id] = match.subject_key
                new_binding[pattern.obj.entity_id] = match.object_key
                new_assignment = dict(assignment)
                new_assignment[pattern_id] = match
                backtrack(position + 1, new_binding, new_assignment)

        backtrack(0, {}, {})
        return rows, matched_events

    def _relations_hold(self, resolved: ResolvedQuery,
                        assignment: dict[str, PatternMatch]) -> bool:
        for relation in resolved.temporal_relations:
            if not self._temporal_holds(relation, assignment):
                return False
        for relation in resolved.attribute_relations:
            if not self._attribute_holds(relation, resolved, assignment):
                return False
        return True


class ScanNegationExecutor(TBQLExecutor):
    """An executor whose anti-join scans the absence pattern's matches."""

    def _build_negation_checker(
            self, resolved: ResolvedQuery,
            negated_matches: dict[str, list[PatternMatch]]):
        """Compile the anti-join test for complete positive assignments.

        For each ``and not`` pattern the test asks: does any of its
        matches agree with the assignment's entity binding on every
        *shared* entity (an entity also bound by a positive pattern)?
        If yes, the assignment is vetoed.  Entities private to the
        absence pattern are existential — any value witnesses absence
        violation — and an absence pattern sharing no entity at all
        vetoes every assignment as soon as it matches anything.  The
        naive reference: one linear scan of the match list per
        assignment.
        """
        positive_entities = {
            entity_id for pattern in resolved.patterns if not pattern.negated
            for entity_id in (pattern.subject.entity_id,
                              pattern.obj.entity_id)}
        specs = []
        for pattern in resolved.patterns:
            if not pattern.negated:
                continue
            matches = negated_matches.get(pattern.pattern_id, [])
            shared: list[tuple[bool, str]] = []
            # Both sides are kept even when they name the same entity id:
            # a self-loop binding then requires subject and object keys to
            # agree with each other, not just one of them.
            if pattern.subject.entity_id in positive_entities:
                shared.append((True, pattern.subject.entity_id))
            if pattern.obj.entity_id in positive_entities:
                shared.append((False, pattern.obj.entity_id))
            specs.append((shared, matches, bool(matches)))

        if not specs:
            return None

        def allows(entity_binding: dict[str, str]) -> bool:
            for shared, data, has_matches in specs:
                if not shared:
                    if has_matches:
                        return False
                    continue
                wanted = tuple(entity_binding[entity_id]
                               for _, entity_id in shared)
                for match in data:
                    got = tuple(match.subject_key if is_subject
                                else match.object_key
                                for is_subject, _ in shared)
                    if got == wanted:
                        return False
            return True

        return allows


class ScanAggregationExecutor(TBQLExecutor):
    """An executor aggregating joined rows with :func:`count_scan`.

    Runs the query without its aggregation — for an aggregated query the
    resolver makes ``return_items`` the ``group by`` pairs and forbids
    ``distinct``, so the joined rows are exactly what the aggregation
    consumes — and then aggregates them with the naive accumulator.
    """

    def execute(self, query: str | ResolvedQuery,
                now: Optional[float] = None) -> QueryResult:
        resolved = self._resolve(query, now)
        aggregation = resolved.aggregation
        if aggregation is None:
            return super().execute(resolved)
        result = super().execute(
            dataclasses.replace(resolved, aggregation=None))
        result.rows = apply_aggregation_scan(result.rows, aggregation)
        return result


__all__ = ["BacktrackingJoinExecutor", "RowPathExecutor",
           "ScanAggregationExecutor", "ScanNegationExecutor",
           "apply_aggregation_scan", "count_scan"]
