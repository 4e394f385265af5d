"""The scan path without segment pruning or truth-table filters.

Three optimizations of the segmented scan have a general path they are
tested and timed against:

* statistics pruning — :func:`prune_nothing` is ``prune_by_stats`` with
  pruning off: every time-surviving segment is scanned;
* candidate pruning — :func:`prune_nothing` again, in place of
  ``prune_by_candidates``: a step with pushed candidate ids scans every
  segment that survived statistics, and the step's first scan searches
  the ids itself; :func:`candidate_rows` is that search on one block
  alone, the reference of the store-wide ``colscan._BlockIndex``;
* truth-table filters — :func:`filter_mask_per_row` is
  ``colscan._filter_mask`` without the tables: no memo, and a conjunct
  judged by its per-row closure (:func:`compile_filter`, Kleene logic,
  one comparison per call) once per entity row, or once per event row
  for an event-row conjunct, on every scan.

The bodies are the old general branches of the shipped scan.  They are
installed by patching the module attribute the shipped code calls, so
the rest of the scan is the shipped one; :func:`stats_pruning_disabled`,
:func:`candidate_pruning_disabled`, :func:`dictionary_disabled` and
:func:`optimizers_disabled` do that for the duration of a ``with``
block.  Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import TBQLSemanticError
from repro.storage.columnar import NULL_INT, ColumnarSegment
from repro.storage.segments import SegmentInfo
from repro.tbql import colscan, executor
from repro.tbql.ast import (AttributeComparison, AttributeFilter,
                            BareValueFilter, BooleanFilter, MembershipFilter,
                            NegatedFilter)
from repro.tbql.colscan import (CompiledScan, _eval_comparison,
                                _eval_membership, _resolve)

#: Tri-valued predicate over (entity row index, event row index).
Predicate = Callable[[int, int], Optional[bool]]


def prune_nothing(segments: list[SegmentInfo], scan: CompiledScan
                  ) -> tuple[list[SegmentInfo], int]:
    """``prune_by_stats`` (or ``prune_by_candidates``) with pruning
    disabled: scan everything."""
    return list(segments), 0


def _getter(segment: ColumnarSegment, section: str,
            numeric: bool) -> Callable[[int], Any]:
    """Reader of one column's cells by row index, as SQL values."""
    values = segment.column(section)
    if not numeric:
        strings = segment.strings
        return lambda index: strings[values[index]]
    if section.startswith("event."):
        return values.__getitem__       # NOT NULL in the schema

    def get_int(index: int) -> Any:
        value = values[index]
        return None if value == NULL_INT else value
    return get_int


def compile_filter(filt: AttributeFilter,
                   segment: ColumnarSegment) -> Predicate:
    """Compile a filter into a tri-valued per-row closure (Kleene
    logic, one comparison per call)."""
    if isinstance(filt, (AttributeComparison, MembershipFilter)):
        section, numeric, on_event = _resolve(filt.attribute)
        get = _getter(segment, section, numeric)
        if isinstance(filt, AttributeComparison):
            operator, value = filt.operator, filt.value

            def judge(cell: Any) -> Optional[bool]:
                return _eval_comparison(cell, operator, value, numeric)
        else:
            values, negated = filt.values, filt.negated

            def judge(cell: Any) -> Optional[bool]:
                return _eval_membership(cell, values, negated, numeric)
        if on_event:
            return lambda entity_index, event_index: judge(get(event_index))
        return lambda entity_index, event_index: judge(get(entity_index))
    if isinstance(filt, NegatedFilter):
        inner = compile_filter(filt.operand, segment)

        def negate(entity_index: int, event_index: int) -> Optional[bool]:
            value = inner(entity_index, event_index)
            return None if value is None else not value
        return negate
    if isinstance(filt, BooleanFilter):
        operands = [compile_filter(operand, segment)
                    for operand in filt.operands]
        decisive = filt.operator == "||"    # the verdict that settles it

        def combine(entity_index: int, event_index: int) -> Optional[bool]:
            unknown = False
            for operand in operands:
                value = operand(entity_index, event_index)
                if value is decisive:
                    return decisive
                if value is None:
                    unknown = True
            return None if unknown else not decisive
        return combine
    if isinstance(filt, BareValueFilter):
        raise TBQLSemanticError("bare value filters must be expanded before "
                                "compilation")
    raise TBQLSemanticError(f"unknown attribute filter: {filt!r}")


def filter_mask_per_row(segment: ColumnarSegment,
                        conjunct: colscan._Conjunct
                        ) -> tuple[bytes, Optional[bool]]:
    """``colscan._filter_mask`` without the truth tables.

    The reference keeps its shape: no memo (hit ``None``), one closure
    call per entity row for an entity-row conjunct, or per event row,
    with the entity row of the conjunct's side, for an event-row one.
    """
    predicate = compile_filter(conjunct.filt, segment)
    if conjunct.on_event:
        side = segment.entity_rows()[0 if conjunct.on_subject else 1]
        verdicts = (predicate(entity_row, event_row) for event_row,
                    entity_row in enumerate(side.tolist()))
    else:
        verdicts = (predicate(entity_row, 0)
                    for entity_row in range(segment.entity_count))
    return bytes(verdict is True for verdict in verdicts), None


def candidate_rows(segment: ColumnarSegment,
                   candidates: Sequence[int]) -> list[int]:
    """Entity-block rows of the ``candidates`` one block holds, in
    candidate order: a ``bisect`` per id on the block's sorted id
    column.  An id the block lacks is referenced by no event of the
    segment."""
    ids = segment.column("entity.id")
    found = [bisect_left(ids, entity_id) for entity_id in candidates]
    return [row for row, entity_id in zip(found, candidates)
            if row < len(ids) and ids[row] == entity_id]


@contextmanager
def _patched(module: Any, name: str, value: Any) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


def stats_pruning_disabled():
    """Scan every time-surviving segment, whatever its statistics say."""
    return _patched(executor, "prune_by_stats", prune_nothing)


def candidate_pruning_disabled():
    """Scan every segment that survived statistics, whatever ids its
    entity block holds."""
    return _patched(executor, "prune_by_candidates", prune_nothing)


def dictionary_disabled():
    """Judge every filter by its per-row closure, with no memoised
    mask."""
    return _patched(colscan, "_filter_mask", filter_mask_per_row)


@contextmanager
def optimizers_disabled() -> Iterator[None]:
    """All three of the above."""
    with stats_pruning_disabled(), candidate_pruning_disabled(), \
            dictionary_disabled():
        yield


__all__ = ["candidate_pruning_disabled", "candidate_rows",
           "compile_filter", "dictionary_disabled",
           "filter_mask_per_row", "optimizers_disabled", "prune_nothing",
           "stats_pruning_disabled"]
