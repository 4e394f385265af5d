"""Statistics-driven segment pruning for TBQL pattern scans.

Seal-time segment statistics (:class:`repro.storage.segments.SegmentStats`
— per-column min/max zone maps, distinct value sets for the
low-cardinality interned-string event columns, and the entity types seen
on each side of the stored events) let the executor skip whole segments
*before* any scan task is built: if no stored row could possibly satisfy
a pattern's constraints, the segment contributes nothing to the result.

Everything here is **conservative** by construction:

* a segment without stats (pre-stats manifests, failed stats parses) is
  always scanned;
* only constraints that provably exclude every row prune — a distinct
  set is consulted by running the *same* tri-valued comparison the
  columnar evaluator applies per row (:func:`~repro.tbql.colscan`'s
  ``_eval_comparison`` / ``_eval_membership``), so equality, ``IN``,
  general ``LIKE`` and prefix-``LIKE`` all prune through one rule: *no
  distinct value evaluates to TRUE*.  WHERE keeps only TRUE rows, so a
  column whose every occurring value fails the predicate cannot yield a
  match (NULL cells evaluate to unknown and are filtered anyway);
* numeric zone maps prune range predicates via interval arithmetic and
  never fire for non-numeric literals (affinity corner cases scan);
* anything the walker does not understand — entity-column leaves,
  negations, bare values, future filter nodes — conservatively keeps
  the segment.

The hypothesis conservativeness test pins the contract: a stats-pruned
segment never contains a row the unpruned reference scan returns.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from ..storage.relational.schema import EVENT_ATTRIBUTE_COLUMNS
from ..storage.segments import SegmentInfo, SegmentStats
from .ast import (AttributeComparison, AttributeFilter, BooleanFilter,
                  MembershipFilter)
from .colscan import PatternSpec, _eval_comparison, _eval_membership


def stats_pruning_enabled() -> bool:
    """Stats pruning is on unless ``REPRO_TBQL_STATS_PRUNING=0``."""
    return os.environ.get("REPRO_TBQL_STATS_PRUNING", "").strip() != "0"


def _numeric_may_match(bounds: tuple[float, float], operator: str,
                       value: Any) -> bool:
    """Could any cell inside ``[low, high]`` satisfy the predicate?"""
    if isinstance(value, bool):
        value = int(value)
    if not isinstance(value, (int, float)):
        # Text literals against numeric columns go through SQLite's
        # affinity conversions — let the row scan decide.
        return True
    low, high = bounds
    if operator == "=":
        return low <= value <= high
    if operator == "!=":
        return not (low == high == value)
    if operator == "<":
        return low < value
    if operator == "<=":
        return low <= value
    if operator == ">":
        return high > value
    if operator == ">=":
        return high >= value
    return True


def _filter_may_match(filt: Optional[AttributeFilter],
                      stats: SegmentStats) -> bool:
    """Conservative filter walk: ``False`` only on a provable miss."""
    if filt is None:
        return True
    if isinstance(filt, BooleanFilter):
        if filt.operator == "&&":
            return all(_filter_may_match(operand, stats)
                       for operand in filt.operands)
        return any(_filter_may_match(operand, stats)
                   for operand in filt.operands)
    if isinstance(filt, AttributeComparison):
        column = EVENT_ATTRIBUTE_COLUMNS.get(filt.attribute.split(".")[-1])
        if column is None:
            return True  # entity attribute (or unknown): no event stats
        values = stats.distinct.get(column)
        if values is not None:
            return any(_eval_comparison(value, filt.operator, filt.value,
                                        False) is True
                       for value in values)
        bounds = stats.numeric.get(column)
        if bounds is not None:
            return _numeric_may_match(bounds, filt.operator, filt.value)
        return True
    if isinstance(filt, MembershipFilter):
        column = EVENT_ATTRIBUTE_COLUMNS.get(filt.attribute.split(".")[-1])
        if column is None:
            return True
        values = stats.distinct.get(column)
        if values is not None:
            return any(_eval_membership(value, filt.values, filt.negated,
                                        False) is True
                       for value in values)
        if filt.negated:
            return True  # a zone map cannot disprove "not in"
        bounds = stats.numeric.get(column)
        if bounds is not None:
            return any(_numeric_may_match(bounds, "=", value)
                       for value in filt.values)
        return True
    # NegatedFilter, BareValueFilter, anything newer: keep the segment.
    return True


def segment_may_match(stats: Optional[SegmentStats],
                      spec: PatternSpec) -> bool:
    """Whether a segment with ``stats`` could hold a matching row.

    ``True`` is always safe (the segment is scanned); ``False`` is
    asserted only when the statistics prove every stored row fails the
    pattern's constraints.
    """
    if stats is None:
        return True
    if stats.subject_types is not None and \
            spec.subject_type not in stats.subject_types:
        return False
    if stats.object_types is not None and \
            spec.object_type not in stats.object_types:
        return False
    if spec.operations is not None:
        present = stats.distinct.get("operation")
        if present is not None and \
                not set(spec.operations) & set(present):
            return False
    for filt in (spec.subject_filter, spec.object_filter,
                 spec.pattern_filter):
        if not _filter_may_match(filt, stats):
            return False
    return True


def prune_by_stats(segments: list[SegmentInfo], spec: PatternSpec
                   ) -> tuple[list[SegmentInfo], int]:
    """Partition time-surviving segments by the stats verdict.

    Returns ``(survivors, pruned_count)``.  With pruning disabled or
    stats-less segments, this degrades to "scan everything".
    """
    if not stats_pruning_enabled():
        return list(segments), 0
    survivors = [segment for segment in segments
                 if segment_may_match(segment.stats, spec)]
    return survivors, len(segments) - len(survivors)


__all__ = ["stats_pruning_enabled", "segment_may_match", "prune_by_stats"]
