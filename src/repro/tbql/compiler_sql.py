"""TBQL -> SQL compilation.

Two code paths, matching the evaluation setup of RQ4:

* :func:`compile_pattern_sql` — one small *data query* per event pattern,
  executed by the scheduler (this is how ThreatRaptor runs TBQL);
* :func:`compile_giant_sql` — a single SQL statement that weaves every
  pattern's joins and constraints together (the hand-written SQL baseline,
  and the oracle every TBQL text is checked against: a path pattern is a
  recursive CTE over the ``events`` rows).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from ..audit.entities import EntityType
from ..errors import TBQLSemanticError
from ..storage.relational.schema import (ENTITY_ATTRIBUTE_COLUMNS,
                                         EVENT_ATTRIBUTE_COLUMNS)
from ..storage.relational.sqlgen import SQLQuery, comparison, in_list
from .ast import (AttributeComparison, AttributeFilter, BareValueFilter,
                  BooleanFilter, MembershipFilter, NegatedFilter,
                  TemporalRelation)
from .semantics import (DEFAULT_MAX_PATH_LENGTH, ResolvedPattern,
                        ResolvedQuery, effective_window)

_ENTITY_TYPE_VALUE = {EntityType.FILE: "file", EntityType.PROCESS: "proc",
                      EntityType.NETWORK: "ip"}


def _column_for(alias: str, attribute: str) -> str:
    name = attribute.split(".")[-1]
    if name in ENTITY_ATTRIBUTE_COLUMNS:
        return f"{alias}.{ENTITY_ATTRIBUTE_COLUMNS[name]}"
    raise TBQLSemanticError(f"attribute {attribute!r} has no relational "
                            "column")


def _event_column_for(alias: str, attribute: str) -> str:
    name = attribute.split(".")[-1]
    if name in EVENT_ATTRIBUTE_COLUMNS:
        return f"{alias}.{EVENT_ATTRIBUTE_COLUMNS[name]}"
    raise TBQLSemanticError(f"event attribute {attribute!r} has no "
                            "relational column")


def render_filter(filt: Optional[AttributeFilter], entity_alias: str,
                  event_alias: str, params: list[Any]) -> Optional[str]:
    """Render an attribute filter into a SQL boolean expression."""
    if filt is None:
        return None
    if isinstance(filt, AttributeComparison):
        name = filt.attribute.split(".")[-1]
        if name in EVENT_ATTRIBUTE_COLUMNS:
            column = _event_column_for(event_alias, name)
        else:
            column = _column_for(entity_alias, name)
        return comparison(column, filt.operator, filt.value, params)
    if isinstance(filt, BareValueFilter):
        raise TBQLSemanticError("bare value filters must be expanded before "
                                "compilation")
    if isinstance(filt, MembershipFilter):
        name = filt.attribute.split(".")[-1]
        if name in EVENT_ATTRIBUTE_COLUMNS:
            column = _event_column_for(event_alias, name)
        else:
            column = _column_for(entity_alias, name)
        return in_list(column, list(filt.values), filt.negated, params)
    if isinstance(filt, NegatedFilter):
        inner = render_filter(filt.operand, entity_alias, event_alias, params)
        return f"NOT ({inner})"
    if isinstance(filt, BooleanFilter):
        keyword = " AND " if filt.operator == "&&" else " OR "
        rendered = [render_filter(operand, entity_alias, event_alias, params)
                    for operand in filt.operands]
        return "(" + keyword.join(part for part in rendered if part) + ")"
    raise TBQLSemanticError(f"unknown attribute filter: {filt!r}")


def _conjuncts(filt: Optional[AttributeFilter]
               ) -> Iterator[AttributeFilter]:
    """Top-level ``&&`` operands: WHERE keeps a conjunction exactly
    when it keeps every operand, so each can be judged on its own — a
    path's start subjects by the entity ones, a segment scan's masks
    one per row domain."""
    if isinstance(filt, BooleanFilter) and filt.operator == "&&":
        for operand in filt.operands:
            yield from _conjuncts(operand)
    elif filt is not None:
        yield filt


def _reads_event(filt: AttributeFilter) -> bool:
    """Whether :func:`render_filter` puts a leaf of ``filt`` on the
    event alias."""
    if isinstance(filt, NegatedFilter):
        return _reads_event(filt.operand)
    if isinstance(filt, BooleanFilter):
        return any(map(_reads_event, filt.operands))
    if isinstance(filt, (AttributeComparison, MembershipFilter)):
        return filt.attribute.split(".")[-1] in EVENT_ATTRIBUTE_COLUMNS
    return True


def _split_subject_filter(pattern: ResolvedPattern
                          ) -> tuple[list[AttributeFilter],
                                     list[AttributeFilter]]:
    """A path's subject filter as top-level conjuncts: those on entity
    attributes only (they pick start subjects) and those reading an
    event attribute (they judge a start subject with the final hop)."""
    on_entity: list[AttributeFilter] = []
    on_pair: list[AttributeFilter] = []
    for conjunct in _conjuncts(pattern.subject.attr_filter):
        (on_pair if _reads_event(conjunct) else on_entity).append(conjunct)
    return on_entity, on_pair


def _pattern_clauses(pattern: ResolvedPattern, query: ResolvedQuery,
                     event_alias: str, subject_alias: str, object_alias: str,
                     params: list[Any],
                     operation_drives: bool = True,
                     subject: bool = True) -> list[str]:
    """Shared WHERE clauses for one pattern (used by both code paths,
    and for a path pattern's final hop).

    ``operation_drives=False`` renders the operation test on
    ``+e.operation``: the same predicate, but one SQLite's planner may
    not answer from ``idx_events_operation``.  ``subject=False`` leaves
    out the subject's type and filter: a path's final hop does not
    start at its subject.
    """
    clauses = []
    if subject:
        clauses.append(f"{subject_alias}.type = ?")
        params.append(_ENTITY_TYPE_VALUE[pattern.subject.entity_type])
    clauses.append(f"{object_alias}.type = ?")
    params.append(_ENTITY_TYPE_VALUE[pattern.obj.entity_type])
    if pattern.operations is not None:
        hint = "" if operation_drives else "+"
        clauses.append(in_list(f"{hint}{event_alias}.operation",
                               sorted(pattern.operations), False, params))
    subject_clause = render_filter(pattern.subject.attr_filter, subject_alias,
                                   event_alias, params) if subject else None
    if subject_clause:
        clauses.append(subject_clause)
    object_clause = render_filter(pattern.obj.attr_filter, object_alias,
                                  event_alias, params)
    if object_clause:
        clauses.append(object_clause)
    pattern_clause = render_filter(pattern.pattern_filter, object_alias,
                                   event_alias, params)
    if pattern_clause:
        clauses.append(pattern_clause)
    window = effective_window(pattern, query)
    if window is not None:
        earliest, latest = window
        if earliest is not None:
            clauses.append(f"{event_alias}.start_time >= ?")
            params.append(earliest)
        if latest is not None:
            clauses.append(f"{event_alias}.end_time <= ?")
            params.append(latest)
    return clauses


def compile_pattern_sql(pattern: ResolvedPattern, query: ResolvedQuery,
                        subject_candidates: Sequence[int] | None = None,
                        object_candidates: Sequence[int] | None = None,
                        min_event_id: int | None = None) -> SQLQuery:
    """Compile one event pattern into a small SQL data query.

    ``subject_candidates`` / ``object_candidates`` are entity-row-id
    restrictions injected by the scheduler from previously executed
    patterns.  ``min_event_id`` restricts the scan to events at or above
    that id — how the scatter-gather executor scans only the unsealed
    tail of a store, whose earlier events the per-segment scans already
    covered, and how the standing-rule delta gate scans only what a
    flush stored.

    A pushed id list is at most a few hundred entities, so the statement
    should start from them (``idx_events_subject`` / ``idx_events_object``)
    and cost O(candidates); left alone, SQLite starts from
    ``idx_events_operation`` and walks every ``read`` of the history.
    The columns are a :data:`~repro.tbql.colscan.EventRow`'s, in order.
    """
    params: list[Any] = []
    pushed = subject_candidates is not None or object_candidates is not None
    clauses = _pattern_clauses(pattern, query, "e", "s", "o", params,
                               operation_drives=not pushed)
    if subject_candidates is not None:
        clauses.append(in_list("s.id", list(subject_candidates), False,
                               params))
    if object_candidates is not None:
        clauses.append(in_list("o.id", list(object_candidates), False,
                               params))
    if min_event_id is not None:
        clauses.append("e.id >= ?")
        params.append(min_event_id)
    sql = (
        "SELECT e.start_time, e.id AS event_id, e.operation, e.end_time, "
        "s.id AS subject_id, o.id AS object_id "
        "FROM events e "
        "JOIN entities s ON e.subject_id = s.id "
        "JOIN entities o ON e.object_id = o.id "
        "WHERE " + " AND ".join(clauses) +
        " ORDER BY e.start_time, e.id"
    )
    return SQLQuery(sql=sql, params=params)


def compile_giant_sql(query: ResolvedQuery) -> SQLQuery:
    """Compile the whole query into one SQL statement (the RQ4 baseline).

    ``and not`` absence patterns become correlated ``NOT EXISTS``
    subqueries; ``count()`` / ``group by`` / ``top`` become
    ``GROUP BY`` / ``COUNT(*)`` / ``ORDER BY .. LIMIT``.  A path pattern
    is a recursive CTE (:func:`_path_cte`) whose final hop is the
    pattern's event: its start is the pattern's subject, and every
    clause of an event pattern judges the final hop.
    """
    params: list[Any] = []
    ctes = [_path_cte(pattern, params) for pattern in query.patterns
            if pattern.is_path]
    from_parts: list[str] = []
    clauses: list[str] = []
    alias_of_entity: dict[str, str] = {}
    for pattern in query.patterns:
        if pattern.negated:
            continue
        index = pattern.index + 1
        event_alias, subject_alias, object_alias = (f"e{index}", f"s{index}",
                                                    f"o{index}")
        for table, join in _pattern_tables(pattern, event_alias,
                                           subject_alias, object_alias):
            from_parts.append(table)
            if join is not None:
                clauses.append(join)
        clauses += _pattern_clauses(pattern, query, event_alias,
                                    subject_alias, object_alias, params)
        for entity, alias in ((pattern.subject, subject_alias),
                              (pattern.obj, object_alias)):
            existing = alias_of_entity.get(entity.entity_id)
            if existing is None:
                alias_of_entity[entity.entity_id] = alias
            else:
                clauses.append(f"{existing}.id = {alias}.id")
    for pattern in query.patterns:
        if pattern.negated:
            clauses.append(_negation_clause(pattern, query, alias_of_entity,
                                            params))
    clauses.extend(_temporal_clauses(query))
    clauses.extend(_attribute_relation_clauses(query, alias_of_entity))
    select_items = []
    for entity_id, attribute in query.return_items:
        alias = alias_of_entity[entity_id]
        select_items.append(
            f"{_column_for(alias, attribute)} AS "
            f"{entity_id}_{attribute}")
    with_clause = f"WITH RECURSIVE {', '.join(ctes)} " if ctes else ""
    if query.aggregation is not None:
        group_cols = ", ".join(
            _column_for(alias_of_entity[entity_id], attribute)
            for entity_id, attribute in query.aggregation.group_by)
        select = select_items + ["COUNT(*) AS count"]
        sql = (with_clause + "SELECT " + ", ".join(select) +
               " FROM " + ", ".join(from_parts) +
               " WHERE " + " AND ".join(clauses))
        if group_cols:
            sql += (f" GROUP BY {group_cols}"
                    f" ORDER BY count DESC, {group_cols}")
        if query.aggregation.top_n is not None:
            sql += f" LIMIT {query.aggregation.top_n}"
        return SQLQuery(sql=sql, params=params)
    distinct = "DISTINCT " if query.distinct else ""
    sql = (f"{with_clause}SELECT {distinct}" + ", ".join(select_items) +
           " FROM " + ", ".join(from_parts) +
           " WHERE " + " AND ".join(clauses))
    return SQLQuery(sql=sql, params=params)


def _path_cte(pattern: ResolvedPattern, params: list[Any]) -> str:
    """``p{i}(start_id, node, hops, trail, last_id)``: every trail of
    at most ``max_length`` events (an unbounded ``~>`` stops at
    :data:`~repro.tbql.semantics.DEFAULT_MAX_PATH_LENGTH`) from each
    start subject — the subject type and the subject filter's entity
    conjuncts — ending at ``node`` after the event ``last_id``.  The
    trail lists the event ids as ``,id,id,`` so that ``instr`` keeps an
    event from repeating."""
    path = f"p{pattern.index + 1}"
    anchor = ["s.type = ?"]
    params.append(_ENTITY_TYPE_VALUE[pattern.subject.entity_type])
    on_entity, _on_pair = _split_subject_filter(pattern)
    anchor += [render_filter(conjunct, "s", "e", params) or "1"
               for conjunct in on_entity]
    max_hops = pattern.max_length or DEFAULT_MAX_PATH_LENGTH
    return (f"{path}(start_id, node, hops, trail, last_id) AS ("
            "SELECT s.id, s.id, 0, ',', NULL FROM entities s WHERE " +
            " AND ".join(anchor) +
            f" UNION ALL SELECT {path}.start_id, e.object_id, "
            f"{path}.hops + 1, {path}.trail || e.id || ',', e.id "
            f"FROM {path} JOIN events e ON e.subject_id = {path}.node "
            f"WHERE {path}.hops < {max_hops} "
            f"AND instr({path}.trail, ',' || e.id || ',') = 0)")


def _pattern_tables(pattern: ResolvedPattern, event_alias: str,
                    subject_alias: str, object_alias: str
                    ) -> list[tuple[str, Optional[str]]]:
    """The tables binding one pattern's aliases, each with the clause
    joining it to those before it (``None`` for the first).  A path's
    event is its final hop and its subject the start of the trail: a
    row of its CTE of at least ``min_length`` hops."""
    object_join = (f"entities {object_alias}",
                   f"{event_alias}.object_id = {object_alias}.id")
    if not pattern.is_path:
        return [(f"events {event_alias}", None),
                (f"entities {subject_alias}",
                 f"{event_alias}.subject_id = {subject_alias}.id"),
                object_join]
    path = f"p{pattern.index + 1}"
    return [(path, None),
            (f"events {event_alias}",
             f"{event_alias}.id = {path}.last_id "
             f"AND {path}.hops >= {pattern.min_length}"),
            (f"entities {subject_alias}",
             f"{subject_alias}.id = {path}.start_id"),
            object_join]


def _negation_clause(pattern: ResolvedPattern, query: ResolvedQuery,
                     alias_of_entity: dict[str, str],
                     params: list[Any]) -> str:
    """Render one ``and not`` pattern as a correlated NOT EXISTS."""
    index = pattern.index + 1
    event_alias, subject_alias, object_alias = (f"ne{index}", f"ns{index}",
                                                f"no{index}")
    (first, _none), *joined = _pattern_tables(pattern, event_alias,
                                              subject_alias, object_alias)
    inner = _pattern_clauses(pattern, query, event_alias, subject_alias,
                             object_alias, params)
    for entity, alias in ((pattern.subject, subject_alias),
                          (pattern.obj, object_alias)):
        outer = alias_of_entity.get(entity.entity_id)
        if outer is not None:
            inner.append(f"{alias}.id = {outer}.id")
    return (f"NOT EXISTS (SELECT 1 FROM {first} " +
            "".join(f"JOIN {table} ON {join} " for table, join in joined) +
            "WHERE " + " AND ".join(inner) + ")")


def _temporal_clauses(query: ResolvedQuery) -> list[str]:
    clauses = []
    for relation in query.temporal_relations:
        left_alias = f"e{query.pattern_by_id(relation.left).index + 1}"
        right_alias = f"e{query.pattern_by_id(relation.right).index + 1}"
        clauses.append(_temporal_sql(relation, left_alias, right_alias))
    return clauses


def _temporal_sql(relation: TemporalRelation, left_alias: str,
                  right_alias: str) -> str:
    from .parser import TIME_UNIT_SECONDS
    scale = TIME_UNIT_SECONDS[relation.unit] if relation.unit else 1.0
    # "then" (resolved sequence operator) evaluates as a gap-bounded
    # "before": strict ordering plus an optional [min-max] gap bound.
    if relation.kind in ("before", "then"):
        clause = f"{left_alias}.end_time <= {right_alias}.start_time"
        gap = f"{right_alias}.start_time - {left_alias}.end_time"
        if relation.min_gap:
            clause += f" AND {gap} >= {relation.min_gap * scale}"
        if relation.max_gap is not None:
            clause += f" AND {gap} <= {relation.max_gap * scale}"
        return clause
    if relation.kind == "after":
        return _temporal_sql(TemporalRelation(left=relation.right,
                                              kind="before",
                                              right=relation.left,
                                              min_gap=relation.min_gap,
                                              max_gap=relation.max_gap,
                                              unit=relation.unit),
                             right_alias, left_alias)
    # within: the two starts lie a bounded [min-max] gap apart
    gap = f"ABS({left_alias}.start_time - {right_alias}.start_time)"
    clause = f"{gap} <= {(relation.max_gap or 0.0) * scale}"
    if relation.min_gap:
        clause += f" AND {gap} >= {relation.min_gap * scale}"
    return clause


def _attribute_relation_clauses(query: ResolvedQuery,
                                alias_of_entity: dict[str, str]) -> list[str]:
    clauses = []
    for relation in query.attribute_relations:
        left_entity, left_attr = relation.left.split(".", 1)
        right_entity, right_attr = relation.right.split(".", 1)
        left = _column_for(alias_of_entity[left_entity], left_attr)
        right = _column_for(alias_of_entity[right_entity], right_attr)
        operator = "<>" if relation.operator == "!=" else relation.operator
        clauses.append(f"{left} {operator} {right}")
    return clauses


__all__ = ["compile_pattern_sql", "compile_giant_sql", "render_filter"]
