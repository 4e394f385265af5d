"""The scan path without segment pruning or dictionary predicates.

Three optimizations of the segmented scan have a general path they are
tested and timed against:

* statistics pruning — :func:`prune_nothing` is ``prune_by_stats`` with
  pruning off: every time-surviving segment is scanned;
* candidate pruning — :func:`prune_nothing` again, in place of
  ``prune_by_candidates``: a step with pushed candidate ids scans every
  segment that survived statistics, and the step's first scan searches
  the ids itself; :func:`candidate_rows` is that search on one block
  alone, the reference of the store-wide ``colscan._BlockIndex``;
* dictionary predicates — :func:`filter_mask_per_row` is
  ``colscan._filter_mask`` without the dictionary: no memo, an
  entity-row conjunct judged by its per-row closure once per entity
  row on every scan, and an event-row conjunct left to the per-row
  closure as a residual.

The bodies are the old disabled branches verbatim.  They are installed
by patching the module attribute the shipped code calls, so the rest of
the scan is the shipped one; :func:`stats_pruning_disabled`,
:func:`candidate_pruning_disabled`, :func:`dictionary_disabled` and
:func:`optimizers_disabled` do that for the duration of a ``with``
block.  Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Sequence

from repro.storage.columnar import ColumnarSegment
from repro.storage.segments import SegmentInfo
from repro.tbql import colscan, executor
from repro.tbql.ast import AttributeFilter, BooleanFilter, NegatedFilter
from repro.tbql.colscan import CompiledScan


def prune_nothing(segments: list[SegmentInfo], scan: CompiledScan
                  ) -> tuple[list[SegmentInfo], int]:
    """``prune_by_stats`` (or ``prune_by_candidates``) with pruning
    disabled: scan everything."""
    return list(segments), 0


def _tri_vector_per_row(segment: ColumnarSegment,
                        filt: AttributeFilter) -> bytes:
    """``colscan._tri_vector`` with every leaf judged by its closure."""
    if isinstance(filt, NegatedFilter):
        return _tri_vector_per_row(segment, filt.operand).translate(
            colscan._KLEENE_NOT)
    if isinstance(filt, BooleanFilter):
        return colscan._bitwise(
            int.__and__ if filt.operator == "&&" else int.__or__,
            [_tri_vector_per_row(segment, operand)
             for operand in filt.operands])
    predicate = colscan._compile_filter(filt, segment)
    return bytes(colscan._TRI[predicate(index, 0)]
                 for index in range(segment.entity_count))


def filter_mask_per_row(segment: ColumnarSegment,
                        conjunct: colscan._Conjunct
                        ) -> Optional[tuple[bytes, bool, Optional[bool]]]:
    """``colscan._filter_mask`` without the dictionary.

    The reference keeps its shape: no memo (hit ``None``), one closure
    call per entity row, or per event row as a residual.
    """
    if conjunct.domain != "entity":
        return None
    return (_tri_vector_per_row(segment, conjunct.filt).translate(
        colscan._ONLY_TRUE), False, None)


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
    """Judge every string filter per row, with no memoised mask."""
    return _patched(colscan, "_filter_mask", filter_mask_per_row)


@contextmanager
def optimizers_disabled() -> Iterator[None]:
    """All three of the above."""
    with stats_pruning_disabled(), candidate_pruning_disabled(), \
            dictionary_disabled():
        yield


__all__ = ["candidate_pruning_disabled", "candidate_rows",
           "dictionary_disabled",
           "filter_mask_per_row", "optimizers_disabled", "prune_nothing",
           "stats_pruning_disabled"]
