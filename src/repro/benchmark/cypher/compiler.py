"""TBQL -> giant Cypher: one Cypher statement for a whole query.

The hand-written Cypher baseline of RQ4: every pattern of the query in
one ``MATCH``.  Table VIII lists the text and Table X measures its
length; nothing here runs it.  The engine itself runs path patterns on
the stored rows (:mod:`repro.tbql.paths`).
"""

from __future__ import annotations

import re
from typing import Optional

from ...audit.entities import EntityType
from ...errors import TBQLSemanticError
from ...tbql.ast import (AttributeComparison, AttributeFilter,
                         BareValueFilter, BooleanFilter, MembershipFilter,
                         NegatedFilter, TemporalRelation)
from ...tbql.semantics import (DEFAULT_MAX_PATH_LENGTH, EVENT_ATTRIBUTES,
                               ResolvedPattern, ResolvedQuery)

_LABELS = {EntityType.FILE: "file", EntityType.PROCESS: "proc",
           EntityType.NETWORK: "ip"}

def _quote(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return str(value)


def _string_predicate(ref: str, operator: str, value: str) -> str:
    """Translate a TBQL ``%`` wildcard comparison into a Cypher predicate."""
    has_wildcard = "%" in value
    if not has_wildcard:
        cypher_op = "<>" if operator == "!=" else operator
        return f"{ref} {cypher_op} {_quote(value)}"
    core = value.strip("%")
    if operator == "!=":
        return f"NOT ({_string_predicate(ref, '=', value)})"
    if value.startswith("%") and value.endswith("%"):
        return f"{ref} CONTAINS {_quote(core)}"
    if value.endswith("%"):
        return f"{ref} STARTS WITH {_quote(core)}"
    if value.startswith("%"):
        return f"{ref} ENDS WITH {_quote(core)}"
    # Interior wildcard: fall back to a regular expression.
    pattern = "^" + ".*".join(re.escape(part)
                              for part in value.split("%")) + "$"
    return f"{ref} =~ {_quote(pattern)}"


def render_filter_cypher(filt: Optional[AttributeFilter], entity_var: str,
                         event_var: str) -> Optional[str]:
    """Render an attribute filter as a Cypher WHERE fragment."""
    if filt is None:
        return None
    if isinstance(filt, AttributeComparison):
        name = filt.attribute.split(".")[-1]
        ref = (f"{event_var}.{name}" if name in EVENT_ATTRIBUTES
               else f"{entity_var}.{name}")
        if isinstance(filt.value, str):
            return _string_predicate(ref, filt.operator, filt.value)
        cypher_op = "<>" if filt.operator == "!=" else filt.operator
        return f"{ref} {cypher_op} {_quote(filt.value)}"
    if isinstance(filt, BareValueFilter):
        raise TBQLSemanticError("bare value filters must be expanded before "
                                "compilation")
    if isinstance(filt, MembershipFilter):
        name = filt.attribute.split(".")[-1]
        ref = (f"{event_var}.{name}" if name in EVENT_ATTRIBUTES
               else f"{entity_var}.{name}")
        parts = [_string_predicate(ref, "=", value) if isinstance(value, str)
                 else f"{ref} = {_quote(value)}" for value in filt.values]
        joined = " OR ".join(parts)
        return f"NOT ({joined})" if filt.negated else f"({joined})"
    if isinstance(filt, NegatedFilter):
        inner = render_filter_cypher(filt.operand, entity_var, event_var)
        return f"NOT ({inner})"
    if isinstance(filt, BooleanFilter):
        keyword = " AND " if filt.operator == "&&" else " OR "
        rendered = [render_filter_cypher(operand, entity_var, event_var)
                    for operand in filt.operands]
        return "(" + keyword.join(part for part in rendered if part) + ")"
    raise TBQLSemanticError(f"unknown attribute filter: {filt!r}")


def _relationship_text(pattern: ResolvedPattern, event_var: str) -> str:
    min_length = pattern.min_length
    max_length = pattern.max_length or DEFAULT_MAX_PATH_LENGTH
    properties = ""
    if pattern.operations is not None and len(pattern.operations) == 1:
        only = next(iter(pattern.operations))
        properties = f" {{operation: {_quote(only)}}}"
    if min_length == 1 and max_length == 1:
        return f"-[{event_var}:EVENT{properties}]->"
    return f"-[{event_var}:EVENT*{min_length}..{max_length}{properties}]->"


def _operation_where(pattern: ResolvedPattern, event_var: str
                     ) -> Optional[str]:
    """Multi-operation filters go to WHERE (single ones inline as props)."""
    if pattern.operations is None or len(pattern.operations) <= 1:
        return None
    parts = [f"{event_var}.operation = {_quote(op)}"
             for op in sorted(pattern.operations)]
    return "(" + " OR ".join(parts) + ")"


def _pattern_match_and_where(pattern: ResolvedPattern, query: ResolvedQuery,
                             subject_var: str, object_var: str,
                             event_var: str,
                             declare_subject: bool = True,
                             declare_object: bool = True
                             ) -> tuple[str, list[str]]:
    subject_label = f":{_LABELS[pattern.subject.entity_type]}" \
        if declare_subject else ""
    object_label = f":{_LABELS[pattern.obj.entity_type]}" \
        if declare_object else ""
    match = (f"({subject_var}{subject_label})"
             f"{_relationship_text(pattern, event_var)}"
             f"({object_var}{object_label})")
    where: list[str] = []
    for clause in (
            render_filter_cypher(pattern.subject.attr_filter, subject_var,
                                 event_var) if declare_subject else None,
            render_filter_cypher(pattern.obj.attr_filter, object_var,
                                 event_var) if declare_object else None,
            render_filter_cypher(pattern.pattern_filter, object_var,
                                 event_var),
            _operation_where(pattern, event_var)):
        if clause:
            where.append(clause)
    window = pattern.window or query.global_window
    if window is not None:
        earliest, latest = window
        if earliest is not None:
            where.append(f"{event_var}.start_time >= {earliest}")
        if latest is not None:
            where.append(f"{event_var}.end_time <= {latest}")
    return match, where


def compile_giant_cypher(query: ResolvedQuery) -> str:
    """Compile the whole query into one Cypher statement (RQ4 baseline).

    The mini-Cypher dialect has no ``NOT EXISTS`` subqueries and no
    aggregation, so ``and not`` absence patterns and ``count()`` queries
    cannot be expressed as a single statement; both raise.
    """
    if any(pattern.negated for pattern in query.patterns):
        raise TBQLSemanticError(
            "the single-statement Cypher baseline cannot express 'and "
            "not' absence patterns (mini-Cypher has no NOT EXISTS)")
    if query.aggregation is not None:
        raise TBQLSemanticError(
            "the single-statement Cypher baseline cannot express "
            "count() aggregation (mini-Cypher has no aggregation)")
    matches: list[str] = []
    where: list[str] = []
    declared: set[str] = set()
    for pattern in query.patterns:
        event_var = pattern.pattern_id
        subject_var = pattern.subject.entity_id
        object_var = pattern.obj.entity_id
        match, pattern_where = _pattern_match_and_where(
            pattern, query, subject_var, object_var, event_var,
            declare_subject=subject_var not in declared,
            declare_object=object_var not in declared)
        declared.add(subject_var)
        declared.add(object_var)
        matches.append(match)
        where.extend(pattern_where)
    for relation in query.temporal_relations:
        where.append(_temporal_cypher(relation))
    for relation in query.attribute_relations:
        operator = "<>" if relation.operator == "!=" else relation.operator
        where.append(f"{relation.left} {operator} {relation.right}")
    return_items = [f"{entity_id}.{attribute} AS {entity_id}_{attribute}"
                    for entity_id, attribute in query.return_items]
    distinct = "DISTINCT " if query.distinct else ""
    where_text = f" WHERE {' AND '.join(where)}" if where else ""
    return (f"MATCH {', '.join(matches)}{where_text} "
            f"RETURN {distinct}{', '.join(return_items)}")


def _temporal_cypher(relation: TemporalRelation) -> str:
    """One temporal relation as a WHERE conjunct.

    The mini-Cypher dialect has no arithmetic, so a ``[min-max]`` gap
    bound (and the bound of ``then[N unit]``, which orders like
    ``before``) degrades to the plain ordering or overlap constraint: a
    superset of the bounded matches, which the executor's join narrows
    down.
    """
    if relation.kind in ("before", "then"):
        return f"{relation.left}.end_time <= {relation.right}.start_time"
    if relation.kind == "after":
        return f"{relation.right}.end_time <= {relation.left}.start_time"
    return f"{relation.left}.start_time <= {relation.right}.end_time"


__all__ = ["compile_giant_cypher", "render_filter_cypher"]
