"""Abstract syntax tree for TBQL (Grammar 1 of the paper).

A TBQL query consists of optional global filters, one or more TBQL patterns
(event patterns or variable-length event path patterns), an optional ``with``
clause describing relationships between patterns, and a ``return`` clause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..audit.entities import EntityType

# --------------------------------------------------------------------------
# attribute filter expressions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AttributeComparison:
    """``attr bop value`` — e.g. ``pid = 1`` or ``exename = "%chrome%"``."""

    attribute: str
    operator: str
    value: object


@dataclass(frozen=True)
class BareValueFilter:
    """``"%/bin/tar%"`` — a value whose attribute is the entity default."""

    value: object
    negated: bool = False


@dataclass(frozen=True)
class MembershipFilter:
    """``attr [not] in { v1, v2, ... }``."""

    attribute: str
    values: tuple
    negated: bool = False


@dataclass(frozen=True)
class BooleanFilter:
    """``&&`` / ``||`` over sub-filters."""

    operator: str                      # "&&" or "||"
    operands: tuple["AttributeFilter", ...]


@dataclass(frozen=True)
class NegatedFilter:
    operand: "AttributeFilter"


AttributeFilter = Union[AttributeComparison, BareValueFilter,
                        MembershipFilter, BooleanFilter, NegatedFilter]


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OperationAtom:
    """A single operation name such as ``read``."""

    name: str


@dataclass(frozen=True)
class OperationBoolean:
    """``read || write``, ``read && !write``."""

    operator: str                      # "&&" or "||"
    operands: tuple["OperationExpr", ...]


@dataclass(frozen=True)
class OperationNegation:
    operand: "OperationExpr"


OperationExpr = Union[OperationAtom, OperationBoolean, OperationNegation]


@dataclass(frozen=True)
class OperationPath:
    """A variable-length event path ``~>(min~max)[op_expr]`` or ``->[op]``.

    ``fuzzy_arrow`` distinguishes ``~>`` (arbitrary-length path) from ``->``
    (length-1 path, executed by the path operator).
    """

    fuzzy_arrow: bool = True
    min_length: int = 1
    max_length: Optional[int] = None
    operation: Optional[OperationExpr] = None


# --------------------------------------------------------------------------
# entities, windows, patterns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EntityDecl:
    """``proc p1["%/bin/tar%"]`` — type, ID, optional attribute filter."""

    entity_type: EntityType
    entity_id: str
    attr_filter: Optional[AttributeFilter] = None


@dataclass(frozen=True)
class TimeWindow:
    """A ``from..to``, ``at|before|after ..``, or ``last N unit`` window."""

    kind: str                      # "range", "at", "before", "after", "last"
    start: Optional[str] = None
    end: Optional[str] = None
    amount: Optional[float] = None
    unit: Optional[str] = None


@dataclass(frozen=True)
class EventPattern:
    """One TBQL pattern: subject entity, operation (or path), object entity.

    ``negated`` marks an absence pattern (``and not <pattern>``): the query
    matches only when no event satisfies the pattern alongside the positive
    bindings (an anti-join against the candidate set).
    """

    subject: EntityDecl
    obj: EntityDecl
    operation: Optional[OperationExpr] = None
    path: Optional[OperationPath] = None
    pattern_id: Optional[str] = None
    pattern_filter: Optional[AttributeFilter] = None
    window: Optional[TimeWindow] = None
    negated: bool = False

    @property
    def is_path_pattern(self) -> bool:
        return self.path is not None


@dataclass(frozen=True)
class SequenceLink:
    """``<pattern> then[30 sec] <pattern>`` — a temporal sequence edge.

    Recorded by pattern *index* at parse time (pattern ids may still be
    auto-assigned); semantic resolution rewrites it into a ``then``
    :class:`TemporalRelation` between the resolved pattern ids.  ``max_gap``
    (in ``unit``) bounds the gap between the left pattern's end and the
    right pattern's start; ``None`` means ordered with no gap bound.
    """

    left_index: int
    right_index: int
    max_gap: Optional[float] = None
    unit: Optional[str] = None


# --------------------------------------------------------------------------
# pattern relationships and return clause
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TemporalRelation:
    """``with evt1 before[0-5 min] evt2`` style temporal constraint.

    ``kind == "then"`` is the resolved form of a :class:`SequenceLink`:
    strict ordering (left ends no later than right starts) with an
    optional ``max_gap`` bound — strictly stronger than a shared window.
    """

    left: str
    kind: str                          # "before", "after", "within", "then"
    right: str
    min_gap: Optional[float] = None
    max_gap: Optional[float] = None
    unit: Optional[str] = None


@dataclass(frozen=True)
class AttributeRelation:
    """``with p1.pid = p2.pid`` style attribute constraint."""

    left: str                          # dotted reference "p1.pid"
    operator: str
    right: str


PatternRelation = Union[TemporalRelation, AttributeRelation]


@dataclass(frozen=True)
class ReturnItem:
    """A return item: ``p1``, ``p1.exename``, or the aggregate ``count()``.

    ``aggregate == "count"`` marks a ``count()`` item; its ``entity_id``
    is ``None``.
    """

    entity_id: Optional[str]
    attribute: Optional[str] = None
    aggregate: Optional[str] = None

    def dotted(self) -> str:
        if self.aggregate is not None:
            return f"{self.aggregate}()"
        return f"{self.entity_id}.{self.attribute}" if self.attribute \
            else self.entity_id


@dataclass(frozen=True)
class ReturnClause:
    """``return [distinct] items [group by items] [top N]``.

    ``group_by`` names the grouping keys of an aggregating return clause
    (empty when the clause has no explicit ``group by``); ``top_n`` keeps
    only the N most frequent groups.
    """

    items: tuple[ReturnItem, ...]
    distinct: bool = False
    group_by: tuple[ReturnItem, ...] = ()
    top_n: Optional[int] = None


@dataclass(frozen=True)
class GlobalFilter:
    """A global attribute filter or time window applying to every pattern."""

    attr_filter: Optional[AttributeFilter] = None
    window: Optional[TimeWindow] = None


@dataclass
class TBQLQuery:
    """A parsed TBQL query."""

    patterns: list[EventPattern] = field(default_factory=list)
    relations: list[PatternRelation] = field(default_factory=list)
    return_clause: Optional[ReturnClause] = None
    global_filters: list[GlobalFilter] = field(default_factory=list)
    #: ``then`` edges between adjacent patterns, by pattern index.
    sequence_links: list[SequenceLink] = field(default_factory=list)

    def pattern_ids(self) -> list[str]:
        return [pattern.pattern_id for pattern in self.patterns
                if pattern.pattern_id]

    def entity_ids(self) -> list[str]:
        """Every distinct entity ID, in first-appearance order."""
        seen: list[str] = []
        for pattern in self.patterns:
            for entity in (pattern.subject, pattern.obj):
                if entity.entity_id not in seen:
                    seen.append(entity.entity_id)
        return seen


__all__ = [
    "AttributeComparison",
    "BareValueFilter",
    "MembershipFilter",
    "BooleanFilter",
    "NegatedFilter",
    "AttributeFilter",
    "OperationAtom",
    "OperationBoolean",
    "OperationNegation",
    "OperationExpr",
    "OperationPath",
    "EntityDecl",
    "TimeWindow",
    "EventPattern",
    "SequenceLink",
    "TemporalRelation",
    "AttributeRelation",
    "PatternRelation",
    "ReturnItem",
    "ReturnClause",
    "GlobalFilter",
    "TBQLQuery",
]
