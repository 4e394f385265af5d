"""TBQL -> SQL compilation.

Two code paths, matching the evaluation setup of RQ4:

* :func:`compile_pattern_sql` — one small *data query* per event pattern,
  executed by the scheduler (this is how ThreatRaptor runs TBQL);
* :func:`compile_giant_sql` — a single SQL statement that weaves every
  pattern's joins and constraints together (the hand-written SQL baseline).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..audit.entities import EntityType
from ..errors import TBQLSemanticError
from ..storage.relational.schema import (ENTITY_ATTRIBUTE_COLUMNS,
                                         EVENT_ATTRIBUTE_COLUMNS)
from ..storage.relational.sqlgen import SQLQuery, comparison, in_list
from .ast import (AttributeComparison, AttributeFilter, BareValueFilter,
                  BooleanFilter, MembershipFilter, NegatedFilter,
                  TemporalRelation)
from .semantics import ResolvedPattern, ResolvedQuery, effective_window

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


def _pattern_clauses(pattern: ResolvedPattern, query: ResolvedQuery,
                     event_alias: str, subject_alias: str, object_alias: str,
                     params: list[Any],
                     operation_drives: bool = True) -> list[str]:
    """Shared WHERE clauses for one pattern (used by both code paths).

    ``operation_drives=False`` renders the operation test on
    ``+e.operation``: the same predicate, but one SQLite's planner may
    not answer from ``idx_events_operation``.
    """
    clauses = [
        f"{subject_alias}.type = ?",
        f"{object_alias}.type = ?",
    ]
    params.extend([_ENTITY_TYPE_VALUE[pattern.subject.entity_type],
                   _ENTITY_TYPE_VALUE[pattern.obj.entity_type]])
    if pattern.operations is not None:
        hint = "" if operation_drives else "+"
        clauses.append(in_list(f"{hint}{event_alias}.operation",
                               sorted(pattern.operations), False, params))
    subject_clause = render_filter(pattern.subject.attr_filter, subject_alias,
                                   event_alias, params)
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
    that id — how the scatter-gather executor scans only the *active*
    (not yet sealed) tail of a segmented store, whose earlier events the
    per-segment scans already covered, and how the standing-rule delta
    gate scans only what a flush stored.

    A pushed id list is at most a few hundred entities, so the statement
    should start from them (``idx_events_subject`` / ``idx_events_object``)
    and cost O(candidates); left alone, SQLite starts from
    ``idx_events_operation`` and walks every ``read`` of the history.
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
        "SELECT e.id AS event_id, e.operation, e.start_time, e.end_time, "
        "e.data_amount, s.id AS subject_id, o.id AS object_id "
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
    ``GROUP BY`` / ``COUNT(*)`` / ``ORDER BY .. LIMIT``.
    """
    params: list[Any] = []
    from_parts: list[str] = []
    clauses: list[str] = []
    alias_of_entity: dict[str, str] = {}
    for pattern in query.patterns:
        if pattern.negated:
            continue
        index = pattern.index + 1
        event_alias, subject_alias, object_alias = (f"e{index}", f"s{index}",
                                                    f"o{index}")
        from_parts += [f"events {event_alias}", f"entities {subject_alias}",
                       f"entities {object_alias}"]
        clauses += [f"{event_alias}.subject_id = {subject_alias}.id",
                    f"{event_alias}.object_id = {object_alias}.id"]
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
    if query.aggregation is not None:
        group_cols = ", ".join(
            _column_for(alias_of_entity[entity_id], attribute)
            for entity_id, attribute in query.aggregation.group_by)
        select = select_items + ["COUNT(*) AS count"]
        sql = ("SELECT " + ", ".join(select) +
               " FROM " + ", ".join(from_parts) +
               " WHERE " + " AND ".join(clauses))
        if group_cols:
            sql += (f" GROUP BY {group_cols}"
                    f" ORDER BY count DESC, {group_cols}")
        if query.aggregation.top_n is not None:
            sql += f" LIMIT {query.aggregation.top_n}"
        return SQLQuery(sql=sql, params=params)
    distinct = "DISTINCT " if query.distinct else ""
    sql = (f"SELECT {distinct}" + ", ".join(select_items) +
           " FROM " + ", ".join(from_parts) +
           " WHERE " + " AND ".join(clauses))
    return SQLQuery(sql=sql, params=params)


def _negation_clause(pattern: ResolvedPattern, query: ResolvedQuery,
                     alias_of_entity: dict[str, str],
                     params: list[Any]) -> str:
    """Render one ``and not`` pattern as a correlated NOT EXISTS."""
    index = pattern.index + 1
    event_alias, subject_alias, object_alias = (f"ne{index}", f"ns{index}",
                                                f"no{index}")
    inner = _pattern_clauses(pattern, query, event_alias, subject_alias,
                             object_alias, params)
    for entity, alias in ((pattern.subject, subject_alias),
                          (pattern.obj, object_alias)):
        outer = alias_of_entity.get(entity.entity_id)
        if outer is not None:
            inner.append(f"{alias}.id = {outer}.id")
    return ("NOT EXISTS (SELECT 1 "
            f"FROM events {event_alias} "
            f"JOIN entities {subject_alias} "
            f"ON {event_alias}.subject_id = {subject_alias}.id "
            f"JOIN entities {object_alias} "
            f"ON {event_alias}.object_id = {object_alias}.id "
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
    # "then" (resolved sequence operator) evaluates as a gap-bounded
    # "before": strict ordering plus an optional bound on the gap.
    if relation.kind in ("before", "then"):
        clause = f"{left_alias}.end_time <= {right_alias}.start_time"
        if relation.max_gap is not None:
            scale = TIME_UNIT_SECONDS[relation.unit]
            clause += (f" AND {right_alias}.start_time - "
                       f"{left_alias}.end_time <= {relation.max_gap * scale}")
        return clause
    if relation.kind == "after":
        return _temporal_sql(TemporalRelation(left=relation.right,
                                              kind="before",
                                              right=relation.left,
                                              min_gap=relation.min_gap,
                                              max_gap=relation.max_gap,
                                              unit=relation.unit),
                             right_alias, left_alias)
    # within: events overlap within a bounded gap of each other
    scale = TIME_UNIT_SECONDS[relation.unit] if relation.unit else 1.0
    gap = (relation.max_gap or 0.0) * scale
    return (f"ABS({left_alias}.start_time - {right_alias}.start_time) "
            f"<= {gap}")


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
