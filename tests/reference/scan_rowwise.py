"""A sealed segment's pattern scan, one event row at a time.

:func:`scan_rowwise` is ``colscan.scan_columnar`` with the vectorized
selection and gather replaced by plain Python loops over the mapped
``memoryview`` columns: each event's entity rows are looked up in a
dict of the block's ids, each row is tested against the window, the
operations, both entity types and the pass masks in turn, and each
selected row's columns are read one cell at a time.  It shares only
the per-segment filter compilation (``colscan._pass_masks``) with the
shipped scan, so it checks the numpy selection,
``ColumnarSegment.entity_rows`` and ``gather_rows`` together.
Test-only — nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from repro.storage.columnar import ColumnarSegment
from repro.tbql import colscan
from repro.tbql.colscan import CompiledScan, EventRow, PatternSpec


def entity_rows_by_dict(segment: ColumnarSegment
                        ) -> tuple[list[int], list[int]]:
    """Entity-block row of each event's subject and object, by dict."""
    row_of = {entity_id: row for row, entity_id
              in enumerate(segment.column("entity.id"))}
    return ([row_of[entity_id] for entity_id
             in segment.column("event.subject_id")],
            [row_of[entity_id] for entity_id
             in segment.column("event.object_id")])


def select_rowwise(segment: ColumnarSegment,
                   scan: CompiledScan) -> list[int]:
    """The matching event rows, ascending, one row at a time."""
    spec = scan.spec
    codes = colscan._spec_codes(segment, spec)
    masks = None if codes is None else colscan._pass_masks(segment, scan)
    if masks is None:
        return []
    subject_code, object_code, operation_codes = codes
    type_codes = segment.column("entity.type")
    subject_ok, object_ok, event_ok = (
        colscan._bitwise(int.__and__, masks[side]) if masks[side] else None
        for side in (True, False, None))
    operations = segment.column("event.operation")
    starts = segment.column("event.start_time")
    ends = segment.column("event.end_time")
    earliest = latest = None
    if spec.window is not None:
        earliest, latest = spec.window
    subject_rows, object_rows = entity_rows_by_dict(segment)
    selected: list[int] = []
    for row in range(segment.event_count):
        if operation_codes is not None and \
                operations[row] not in operation_codes:
            continue
        if earliest is not None and starts[row] < earliest:
            continue
        if latest is not None and ends[row] > latest:
            continue
        subject_index = subject_rows[row]
        object_index = object_rows[row]
        if type_codes[subject_index] != subject_code or \
                type_codes[object_index] != object_code:
            continue
        if subject_ok is not None and not subject_ok[subject_index]:
            continue
        if object_ok is not None and not object_ok[object_index]:
            continue
        if event_ok is not None and not event_ok[row]:
            continue
        selected.append(row)
    return selected


def scan_rowwise(segment: ColumnarSegment,
                 spec: PatternSpec) -> list[EventRow]:
    """``colscan.scan_columnar`` of a bare spec, one row at a time."""
    scan = CompiledScan(spec, (segment.path,), {segment.path: segment})
    selected = select_rowwise(segment, scan)
    starts, ids, operations, ends, subjects, objects = (
        [column[row] for row in selected]
        for column in map(segment.column, colscan._GATHERED))
    return list(zip(starts, ids, map(segment.strings.__getitem__,
                                     operations), ends, subjects, objects))


__all__ = ["entity_rows_by_dict", "scan_rowwise", "select_rowwise"]
