"""Semantic analysis of parsed TBQL queries.

This stage expands TBQL's syntactic sugar and validates the query:

* bare value filters pick up the entity's default attribute ("name" for
  files, "exename" for processes, "dstip" for network connections);
* entity IDs reused across patterns must keep a consistent entity type and
  imply that the same concrete entity matches in every pattern;
* return items without an attribute return the entity's default attribute;
* every pattern gets a pattern ID (``evt1``, ``evt2``, ... when omitted);
* operation expressions are evaluated into concrete operation sets;
* time windows are normalized to epoch-second ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from ..audit.entities import EntityType, default_attribute_for
from ..errors import TBQLSemanticError
from .ast import (AttributeComparison, AttributeFilter, AttributeRelation,
                  BareValueFilter, BooleanFilter, MembershipFilter,
                  NegatedFilter, OperationAtom, OperationBoolean,
                  OperationExpr, OperationNegation, TBQLQuery,
                  TemporalRelation, TimeWindow)
from .parser import OPERATION_NAMES, TIME_UNIT_SECONDS

#: Attributes accepted per entity type (superset of Table II).
_ENTITY_ATTRIBUTES = {
    EntityType.FILE: {"name", "path", "user", "group", "type"},
    EntityType.PROCESS: {"exename", "pid", "user", "group", "cmdline",
                         "name", "type"},
    EntityType.NETWORK: {"srcip", "srcport", "dstip", "dstport", "protocol",
                         "name", "type"},
}

#: Longest path an unbounded ``~>`` pattern follows.
DEFAULT_MAX_PATH_LENGTH = 6

#: Event-level attributes accepted in pattern filters and with-clauses.
EVENT_ATTRIBUTES = {"operation", "start_time", "end_time", "duration",
                    "data_amount", "failure_code", "host", "category"}


@dataclass
class ResolvedEntity:
    """An entity reference with sugar expanded."""

    entity_id: str
    entity_type: EntityType
    attr_filter: Optional[AttributeFilter]

    @property
    def default_attribute(self) -> str:
        return default_attribute_for(self.entity_type)


@dataclass
class ResolvedPattern:
    """A pattern with defaults filled in, ready for compilation.

    ``negated`` marks an ``and not`` absence pattern: its matches are an
    anti-join veto set — they never bind candidates, never join, and never
    appear in matched/joined events.
    """

    index: int
    pattern_id: str
    subject: ResolvedEntity
    obj: ResolvedEntity
    operations: Optional[frozenset[str]]   # None means "any operation"
    is_path: bool = False
    path_fuzzy: bool = False
    min_length: int = 1
    max_length: Optional[int] = 1
    pattern_filter: Optional[AttributeFilter] = None
    window: Optional[tuple[Optional[float], Optional[float]]] = None
    negated: bool = False

    @property
    def constraint_count(self) -> int:
        """Number of declared constraints; the scheduler's pruning signal."""
        count = 0
        for filt in (self.subject.attr_filter, self.obj.attr_filter,
                     self.pattern_filter):
            count += _count_atoms(filt)
        if self.operations is not None:
            count += 1
        if self.window is not None:
            count += 1
        return count


@dataclass
class ResolvedAggregation:
    """Aggregating return clause, resolved.

    ``group_by`` lists the grouping keys as ``(entity id, attribute)``
    pairs in group order; ``output`` gives the output column order, one
    entry per declared return item, where ``None`` stands for the
    ``count`` column; ``top_n`` keeps only the N most frequent groups.
    """

    group_by: list[tuple[str, str]]
    output: list[Optional[tuple[str, str]]]
    top_n: Optional[int] = None


@dataclass
class ResolvedQuery:
    """The fully resolved form of a TBQL query.

    ``temporal_relations`` includes the ``then`` relations rewritten from
    the query's sequence links; ``aggregation`` is set when the return
    clause aggregates (``count()`` / ``group by`` / ``top``), in which
    case ``return_items`` holds the grouping keys.
    """

    patterns: list[ResolvedPattern]
    temporal_relations: list[TemporalRelation]
    attribute_relations: list[AttributeRelation]
    return_items: list[tuple[str, str]]        # (entity id, attribute)
    distinct: bool
    global_window: Optional[tuple[Optional[float], Optional[float]]] = None
    global_filters: list[AttributeFilter] = field(default_factory=list)
    entity_types: dict[str, EntityType] = field(default_factory=dict)
    aggregation: Optional[ResolvedAggregation] = None

    def pattern_by_id(self, pattern_id: str) -> ResolvedPattern:
        for pattern in self.patterns:
            if pattern.pattern_id == pattern_id:
                return pattern
        raise TBQLSemanticError(f"unknown pattern id: {pattern_id!r}")

    def shared_entities(self) -> dict[str, list[str]]:
        """Map entity id -> pattern ids referencing it (dependency info)."""
        sharing: dict[str, list[str]] = {}
        for pattern in self.patterns:
            for entity in (pattern.subject, pattern.obj):
                sharing.setdefault(entity.entity_id, []).append(
                    pattern.pattern_id)
        return sharing


def _count_atoms(filt: Optional[AttributeFilter]) -> int:
    if filt is None:
        return 0
    if isinstance(filt, (AttributeComparison, BareValueFilter,
                         MembershipFilter)):
        return 1
    if isinstance(filt, NegatedFilter):
        return _count_atoms(filt.operand)
    if isinstance(filt, BooleanFilter):
        return sum(_count_atoms(operand) for operand in filt.operands)
    return 0


# ---------------------------------------------------------------------------
# operation expressions
# ---------------------------------------------------------------------------


def evaluate_operation_expr(expr: Optional[OperationExpr]
                            ) -> Optional[frozenset[str]]:
    """Evaluate an operation expression into the set of allowed operations.

    ``None`` (no expression) means any operation is allowed.
    """
    if expr is None:
        return None
    return frozenset(op for op in OPERATION_NAMES
                     if _operation_matches(expr, op))


def _operation_matches(expr: OperationExpr, operation: str) -> bool:
    if isinstance(expr, OperationAtom):
        return expr.name == operation
    if isinstance(expr, OperationNegation):
        return not _operation_matches(expr.operand, operation)
    if isinstance(expr, OperationBoolean):
        if expr.operator == "&&":
            return all(_operation_matches(op, operation)
                       for op in expr.operands)
        return any(_operation_matches(op, operation) for op in expr.operands)
    raise TBQLSemanticError(f"unknown operation expression: {expr!r}")


# ---------------------------------------------------------------------------
# attribute filters
# ---------------------------------------------------------------------------


def expand_default_attributes(filt: Optional[AttributeFilter],
                              default_attribute: str,
                              allowed: set[str]) -> Optional[AttributeFilter]:
    """Rewrite bare-value filters into comparisons on the default attribute."""
    if filt is None:
        return None
    if isinstance(filt, BareValueFilter):
        operator = "!=" if filt.negated else "="
        return AttributeComparison(attribute=default_attribute,
                                   operator=operator, value=filt.value)
    if isinstance(filt, AttributeComparison):
        _check_attribute(filt.attribute, allowed)
        return filt
    if isinstance(filt, MembershipFilter):
        _check_attribute(filt.attribute, allowed)
        return filt
    if isinstance(filt, NegatedFilter):
        return NegatedFilter(expand_default_attributes(
            filt.operand, default_attribute, allowed))
    if isinstance(filt, BooleanFilter):
        return BooleanFilter(filt.operator, tuple(
            expand_default_attributes(operand, default_attribute, allowed)
            for operand in filt.operands))
    raise TBQLSemanticError(f"unknown attribute filter: {filt!r}")


def _check_attribute(attribute: str, allowed: set[str]) -> None:
    name = attribute.split(".")[-1]
    if name not in allowed and name not in EVENT_ATTRIBUTES:
        raise TBQLSemanticError(
            f"attribute {attribute!r} is not valid here; expected one of "
            f"{sorted(allowed | EVENT_ATTRIBUTES)}")


# ---------------------------------------------------------------------------
# time windows
# ---------------------------------------------------------------------------


def parse_datetime(value: str) -> float:
    """Parse a TBQL datetime literal into epoch seconds (UTC)."""
    try:
        return float(value)
    except ValueError:
        pass
    formats = ["%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d",
               "%Y/%m/%d %H:%M:%S", "%Y/%m/%d"]
    for fmt in formats:
        try:
            parsed = datetime.strptime(value, fmt)
            return parsed.replace(tzinfo=timezone.utc).timestamp()
        except ValueError:
            continue
    raise TBQLSemanticError(f"unparseable datetime literal: {value!r}")


def resolve_window(window: Optional[TimeWindow],
                   now: Optional[float] = None
                   ) -> Optional[tuple[Optional[float], Optional[float]]]:
    """Convert a parsed time window into an (earliest, latest) epoch range."""
    if window is None:
        return None
    if window.kind == "range":
        return (parse_datetime(window.start), parse_datetime(window.end))
    if window.kind == "at":
        moment = parse_datetime(window.start)
        return (moment, moment + 86400.0)
    if window.kind == "before":
        return (None, parse_datetime(window.start))
    if window.kind == "after":
        return (parse_datetime(window.start), None)
    if window.kind == "last":
        seconds = window.amount * TIME_UNIT_SECONDS[window.unit]
        reference = now if now is not None else \
            datetime.now(timezone.utc).timestamp()
        return (reference - seconds, reference)
    raise TBQLSemanticError(f"unknown window kind: {window.kind!r}")


# ---------------------------------------------------------------------------
# query resolution
# ---------------------------------------------------------------------------


def effective_window(pattern: "ResolvedPattern", query: "ResolvedQuery"
                     ) -> Optional[tuple[Optional[float], Optional[float]]]:
    """The time window that actually constrains ``pattern``.

    A pattern-level window overrides the query's global window — the
    precedence the SQL compiler renders into the ``WHERE`` clause.  The
    executor's segment pruning consults the same helper, so "which
    segments can this pattern touch" and "which rows does the compiled
    predicate keep" can never disagree.
    """
    return pattern.window or query.global_window


def query_is_time_dependent(query: TBQLQuery) -> bool:
    """True when resolving the query reads the wall clock.

    A ``last N unit`` window resolves relative to *now*, so both its
    resolved plan and its results go stale; the query service re-resolves
    such queries per request (and never result-caches them), and the
    standing-query engine re-resolves them per flush against the event-time
    watermark.

    The v2 operators never read the clock themselves: ``then`` gaps,
    ``and not`` absence patterns, and ``count``/``group by`` aggregation
    are all evaluated over stored event times, so only windows matter —
    including a ``last N`` window on an ``and not`` pattern, which is why
    the scan below covers every pattern, negated or not.
    """
    for pattern in query.patterns:
        window = getattr(pattern, "window", None)
        if window is not None and window.kind == "last":
            return True
    for global_filter in query.global_filters:
        window = global_filter.window
        if window is not None and window.kind == "last":
            return True
    return False


def resolve_query(query: TBQLQuery, now: Optional[float] = None
                  ) -> ResolvedQuery:
    """Expand sugar and validate a parsed query."""
    if not query.patterns:
        raise TBQLSemanticError("a TBQL query needs at least one pattern")
    entity_types: dict[str, EntityType] = {}
    resolved_patterns: list[ResolvedPattern] = []
    used_ids: set[str] = set(pid for pid in query.pattern_ids())
    auto_counter = 1
    for index, pattern in enumerate(query.patterns):
        pattern_id = pattern.pattern_id
        if pattern_id is None:
            while f"evt{auto_counter}" in used_ids:
                auto_counter += 1
            pattern_id = f"evt{auto_counter}"
            used_ids.add(pattern_id)
        subject = _resolve_entity(pattern.subject, entity_types)
        obj = _resolve_entity(pattern.obj, entity_types)
        if subject.entity_type is not EntityType.PROCESS:
            raise TBQLSemanticError(
                f"pattern {pattern_id!r}: the subject of a system event must "
                "be a process entity")
        is_path = pattern.is_path_pattern
        if is_path:
            path = pattern.path
            operations = evaluate_operation_expr(path.operation)
            min_length, max_length = path.min_length, path.max_length
            path_fuzzy = path.fuzzy_arrow
            if max_length is None and \
                    min_length > DEFAULT_MAX_PATH_LENGTH:
                raise TBQLSemanticError(
                    f"pattern {pattern_id!r}: an unbounded path stops at "
                    f"{DEFAULT_MAX_PATH_LENGTH} hops, below its minimum "
                    f"of {min_length}")
        else:
            operations = evaluate_operation_expr(pattern.operation)
            min_length, max_length = 1, 1
            path_fuzzy = False
        resolved_patterns.append(ResolvedPattern(
            index=index, pattern_id=pattern_id, subject=subject, obj=obj,
            operations=operations, is_path=is_path, path_fuzzy=path_fuzzy,
            min_length=min_length, max_length=max_length,
            pattern_filter=pattern.pattern_filter,
            window=resolve_window(pattern.window, now),
            negated=pattern.negated))
    if all(pattern.negated for pattern in resolved_patterns):
        raise TBQLSemanticError(
            "a query cannot consist solely of 'and not' absence patterns")
    temporal, attribute = _split_relations(query, used_ids, entity_types)
    temporal = temporal + _resolve_sequence_links(query, resolved_patterns)
    positive_entities = {entity_id
                         for pattern in resolved_patterns
                         if not pattern.negated
                         for entity_id in (pattern.subject.entity_id,
                                           pattern.obj.entity_id)}
    _check_negation_references(resolved_patterns, temporal, attribute,
                               positive_entities)
    return_items, aggregation = _resolve_return(query, entity_types,
                                                positive_entities)
    global_window, global_filters = _resolve_globals(query, now)
    return ResolvedQuery(patterns=resolved_patterns,
                         temporal_relations=temporal,
                         attribute_relations=attribute,
                         return_items=return_items,
                         distinct=bool(query.return_clause and
                                       query.return_clause.distinct),
                         global_window=global_window,
                         global_filters=global_filters,
                         entity_types=entity_types,
                         aggregation=aggregation)


def _resolve_entity(entity, entity_types: dict[str, EntityType]
                    ) -> ResolvedEntity:
    known = entity_types.get(entity.entity_id)
    if known is not None and known is not entity.entity_type:
        raise TBQLSemanticError(
            f"entity id {entity.entity_id!r} is used with conflicting types "
            f"({known.value} vs {entity.entity_type.value})")
    entity_types[entity.entity_id] = entity.entity_type
    default_attr = default_attribute_for(entity.entity_type)
    allowed = _ENTITY_ATTRIBUTES[entity.entity_type]
    attr_filter = expand_default_attributes(entity.attr_filter, default_attr,
                                            allowed)
    return ResolvedEntity(entity_id=entity.entity_id,
                          entity_type=entity.entity_type,
                          attr_filter=attr_filter)


def _split_relations(query: TBQLQuery, pattern_ids: set[str],
                     entity_types: dict[str, EntityType]
                     ) -> tuple[list[TemporalRelation],
                                list[AttributeRelation]]:
    temporal: list[TemporalRelation] = []
    attribute: list[AttributeRelation] = []
    for relation in query.relations:
        if isinstance(relation, TemporalRelation):
            for side in (relation.left, relation.right):
                if side not in pattern_ids:
                    raise TBQLSemanticError(
                        f"with-clause references unknown pattern id {side!r}")
            if relation.min_gap is not None and \
                    relation.max_gap is not None and \
                    relation.min_gap > relation.max_gap:
                raise TBQLSemanticError(
                    f"with-clause gap [{relation.min_gap:g}-"
                    f"{relation.max_gap:g} {relation.unit}] has its minimum "
                    f"above its maximum")
            temporal.append(relation)
        else:
            for side in (relation.left, relation.right):
                entity_id = side.split(".")[0]
                if entity_id not in entity_types and \
                        entity_id not in pattern_ids:
                    raise TBQLSemanticError(
                        f"with-clause references unknown id {entity_id!r}")
            attribute.append(relation)
    return temporal, attribute


def _resolve_sequence_links(query: TBQLQuery,
                            patterns: list[ResolvedPattern]
                            ) -> list[TemporalRelation]:
    """Rewrite parse-time sequence links into ``then`` temporal relations."""
    relations: list[TemporalRelation] = []
    for link in query.sequence_links:
        left = patterns[link.left_index]
        right = patterns[link.right_index]
        if left.negated or right.negated:
            raise TBQLSemanticError(
                "'then' cannot sequence an 'and not' absence pattern")
        relations.append(TemporalRelation(
            left=left.pattern_id, kind="then", right=right.pattern_id,
            max_gap=link.max_gap, unit=link.unit))
    return relations


def _check_negation_references(patterns: list[ResolvedPattern],
                               temporal: list[TemporalRelation],
                               attribute: list[AttributeRelation],
                               positive_entities: set[str]) -> None:
    """Reject with-clause references into absence patterns.

    An ``and not`` pattern never joins, so a relation that reads its
    bindings could only ever evaluate vacuously; failing loudly beats a
    constraint that silently never constrains.
    """
    negated_ids = {pattern.pattern_id for pattern in patterns
                   if pattern.negated}
    negation_only_entities = {
        entity_id for pattern in patterns if pattern.negated
        for entity_id in (pattern.subject.entity_id,
                          pattern.obj.entity_id)} - positive_entities
    for relation in temporal:
        if relation.kind == "then":
            continue        # sequence links are validated at rewrite time
        for side in (relation.left, relation.right):
            if side in negated_ids:
                raise TBQLSemanticError(
                    f"temporal relation references pattern {side!r}, which "
                    "is an 'and not' absence pattern")
    for relation in attribute:
        for side in (relation.left, relation.right):
            referenced = side.split(".")[0]
            if referenced in negated_ids:
                raise TBQLSemanticError(
                    f"attribute relation references {side!r}, which "
                    "belongs to an 'and not' absence pattern")
            if referenced in negation_only_entities:
                raise TBQLSemanticError(
                    f"attribute relation references {side!r}, an entity "
                    "bound only by an 'and not' absence pattern")


def _resolve_return(query: TBQLQuery,
                    entity_types: dict[str, EntityType],
                    positive_entities: set[str]
                    ) -> tuple[list[tuple[str, str]],
                               Optional[ResolvedAggregation]]:
    if query.return_clause is None:
        # Default: every positively-bound entity's default attribute
        # (absence patterns cannot produce values — they never join).
        return [(entity_id, default_attribute_for(entity_type))
                for entity_id, entity_type in entity_types.items()
                if entity_id in positive_entities], None

    def resolve_item(item) -> tuple[str, str]:
        if item.entity_id not in entity_types:
            raise TBQLSemanticError(
                f"return clause references unknown entity id "
                f"{item.entity_id!r}")
        if item.entity_id not in positive_entities:
            raise TBQLSemanticError(
                f"return clause references {item.entity_id!r}, an entity "
                "bound only by an 'and not' absence pattern")
        attribute = item.attribute or default_attribute_for(
            entity_types[item.entity_id])
        return (item.entity_id, attribute)

    clause = query.return_clause
    count_items = [item for item in clause.items
                   if item.aggregate is not None]
    if not count_items:
        if clause.group_by:
            raise TBQLSemanticError(
                "'group by' requires a count() return item")
        if clause.top_n is not None:
            raise TBQLSemanticError("'top' requires a count() return item")
        return [resolve_item(item) for item in clause.items], None
    if len(count_items) > 1:
        raise TBQLSemanticError(
            "a return clause may hold at most one count() item")
    if clause.distinct:
        raise TBQLSemanticError(
            "'distinct' cannot be combined with count() — counting "
            "deduplicated rows is ambiguous; group by the row instead")
    plain = [resolve_item(item) for item in clause.items
             if item.aggregate is None]
    if clause.group_by:
        group_by = list(dict.fromkeys(
            resolve_item(item) for item in clause.group_by))
        for pair in plain:
            if pair not in group_by:
                raise TBQLSemanticError(
                    f"return item {pair[0]}.{pair[1]} must appear in the "
                    "'group by' clause")
    else:
        # Implicit grouping: every plain return item is a grouping key.
        group_by = list(dict.fromkeys(plain))
    output: list[Optional[tuple[str, str]]] = [
        None if item.aggregate is not None else resolve_item(item)
        for item in clause.items]
    aggregation = ResolvedAggregation(group_by=group_by, output=output,
                                      top_n=clause.top_n)
    return list(group_by), aggregation


def _resolve_globals(query: TBQLQuery, now: Optional[float]
                     ) -> tuple[Optional[tuple], list[AttributeFilter]]:
    window = None
    filters: list[AttributeFilter] = []
    for global_filter in query.global_filters:
        if global_filter.window is not None:
            window = resolve_window(global_filter.window, now)
        if global_filter.attr_filter is not None:
            filters.append(global_filter.attr_filter)
    return window, filters


__all__ = [
    "ResolvedAggregation",
    "ResolvedEntity",
    "ResolvedPattern",
    "ResolvedQuery",
    "DEFAULT_MAX_PATH_LENGTH",
    "EVENT_ATTRIBUTES",
    "effective_window",
    "evaluate_operation_expr",
    "expand_default_attributes",
    "parse_datetime",
    "query_is_time_dependent",
    "resolve_window",
    "resolve_query",
]
