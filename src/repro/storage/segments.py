"""Time-partitioned segment bookkeeping for the dual store.

A *segment* is a sealed, immutable slice of the stored event history —
two files (:data:`SEGMENT_FILES`):

* ``events.col`` — the struct-packed columnar payload
  (:mod:`repro.storage.columnar`): the segment's event rows plus exactly
  the entity rows those events reference, memory-mapped by the
  executor's segment scans;
* ``segment.json`` — the per-segment manifest: event-id range, newly
  interned entity-id range, and the ``[min, max]`` start/end time bounds
  the query planner prunes against.

Segments partition the event-id space contiguously (segment *k+1* starts
at segment *k*'s ``last_event_id + 1``); everything past the last sealed
segment is the *active* write segment, which lives only in the combined
store until :meth:`DualStore.flush_appends` or a snapshot save seals it.
Segment directories of snapshots saved by earlier builds also hold a
``graph.bin`` slice of the provenance graph; nothing reads it (path
patterns read the combined store's ``events`` rows, see
:mod:`repro.tbql.paths`).

Pruning contract: the SQL compiler renders a resolved TBQL time window
as ``start_time >= earliest AND end_time <= latest``, so a segment can
be skipped exactly when no stored event could satisfy that predicate —
see :meth:`SegmentInfo.overlaps_window`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from ..errors import StorageError
from .columnar import ColumnarSegment

#: File names inside a segment directory.
SEGMENT_MANIFEST = "segment.json"
SEGMENT_COLUMNAR = "events.col"
#: Every file a sealed segment owns, by kind; anything else found in a
#: segment directory is a leftover of an earlier build.
SEGMENT_FILES = {"columnar": SEGMENT_COLUMNAR, "manifest": SEGMENT_MANIFEST}

#: Manifest fields serialized for each segment (order is cosmetic).
#: ``stats`` is deliberately NOT part of this tuple: it is an optional,
#: versioned extra key so pre-stats manifests keep loading unchanged.
_MANIFEST_FIELDS = ("name", "first_event_id", "last_event_id",
                    "event_count", "first_new_entity_id",
                    "last_new_entity_id", "new_entity_count",
                    "min_start_time", "max_start_time", "min_end_time",
                    "max_end_time")

#: Version of the optional per-segment statistics block.
SEGMENT_STATS_VERSION = 1
#: Numeric event columns that get min/max zone maps.
STATS_NUMERIC_COLUMNS = ("start_time", "end_time", "duration",
                         "data_amount", "failure_code")
#: Interned-string event columns that get distinct value sets.
STATS_DISTINCT_COLUMNS = ("operation", "category", "host")
#: Distinct sets larger than this are dropped (the column is then
#: unprunable for that segment — high cardinality makes presence checks
#: both expensive to store and unlikely to prune anything).
STATS_DISTINCT_CAP = 64


@dataclass(frozen=True)
class SegmentStats:
    """Seal-time statistics a scan can prune against.

    All fields are *conservative summaries* of the segment's event rows:
    a value absent from a distinct set provably does not occur in that
    column, and a numeric column's values all lie inside its zone map.
    Columns may be missing from either mapping (empty segment, distinct
    cardinality over the cap, future schema drift) — consumers must
    treat a missing column as "anything may occur".
    """

    #: ``column -> (min, max)`` over the segment's event rows.
    numeric: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    #: ``column -> sorted tuple of every distinct value`` (NULL omitted).
    distinct: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    #: Entity types occurring as event subjects / objects (``None`` when
    #: unknown — e.g. a stats version that predates the field).
    subject_types: Optional[tuple[str, ...]] = None
    object_types: Optional[tuple[str, ...]] = None

    def as_entry(self) -> dict[str, Any]:
        """JSON view stored under the manifest's ``stats`` key."""
        return {
            "version": SEGMENT_STATS_VERSION,
            "numeric": {column: [low, high]
                        for column, (low, high) in self.numeric.items()},
            "distinct": {column: list(values)
                         for column, values in self.distinct.items()},
            "subject_types": (None if self.subject_types is None
                              else list(self.subject_types)),
            "object_types": (None if self.object_types is None
                             else list(self.object_types)),
        }

    @classmethod
    def from_entry(cls, entry: Any) -> Optional["SegmentStats"]:
        """Tolerant parse: anything malformed or from the future yields
        ``None`` (the segment simply never prunes), never an error."""
        if not isinstance(entry, dict):
            return None
        version = entry.get("version")
        if not isinstance(version, int) or version < 1 or \
                version > SEGMENT_STATS_VERSION:
            return None
        try:
            numeric = {
                str(column): (float(bounds[0]), float(bounds[1]))
                for column, bounds in dict(entry.get("numeric") or {}
                                           ).items()}
            distinct = {
                str(column): tuple(str(value) for value in values)
                for column, values in dict(entry.get("distinct") or {}
                                           ).items()}
            subject_types = entry.get("subject_types")
            if subject_types is not None:
                subject_types = tuple(str(value)
                                      for value in subject_types)
            object_types = entry.get("object_types")
            if object_types is not None:
                object_types = tuple(str(value) for value in object_types)
        except (TypeError, ValueError, IndexError, KeyError):
            return None
        return cls(numeric=numeric, distinct=distinct,
                   subject_types=subject_types, object_types=object_types)


def collect_segment_stats(columnar_path: str | Path
                          ) -> Optional[SegmentStats]:
    """Compute seal-time stats from a freshly written ``events.col``.

    Returns ``None`` when the payload is unreadable — sealing must
    never fail because of the optional stats block.
    """
    try:
        segment = ColumnarSegment(columnar_path)
    except StorageError:
        return None
    try:
        numeric: dict[str, tuple[float, float]] = {}
        distinct: dict[str, tuple[str, ...]] = {}
        if segment.event_count:
            for column in STATS_NUMERIC_COLUMNS:
                values = segment.column(f"event.{column}")
                numeric[column] = (min(values), max(values))
            strings = segment.strings
            for column in STATS_DISTINCT_COLUMNS:
                codes = set(segment.column(f"event.{column}"))
                codes.discard(0)
                if len(codes) <= STATS_DISTINCT_CAP:
                    distinct[column] = tuple(
                        sorted(strings[code] for code in codes))
        types = segment.np_column("entity.type")
        strings = segment.strings

        def _side_types(rows: Any) -> tuple[str, ...]:
            codes = set(np.unique(types[rows]).tolist())
            codes.discard(0)
            return tuple(sorted(strings[code] for code in codes))

        subject_rows, object_rows = segment.entity_rows()
        return SegmentStats(numeric=numeric, distinct=distinct,
                            subject_types=_side_types(subject_rows),
                            object_types=_side_types(object_rows))
    except (StorageError, ValueError, TypeError):
        return None
    finally:
        segment.close()


@dataclass(frozen=True)
class SegmentInfo:
    """Manifest of one sealed, immutable store segment."""

    name: str
    #: Absolute directory holding the segment files (not serialized into
    #: snapshot manifests — there the location is implied by the name).
    directory: str
    first_event_id: int
    last_event_id: int
    event_count: int
    #: Id range of entities first interned while this segment was the
    #: active one (0/-1 when the segment introduced no new entities).
    first_new_entity_id: int
    last_new_entity_id: int
    new_entity_count: int
    min_start_time: float
    max_start_time: float
    min_end_time: float
    max_end_time: float
    #: Optional seal-time statistics (``None`` for segments sealed by
    #: pre-stats builds or whose stats block failed to parse — such
    #: segments are always scanned, never pruned by stats).
    stats: Optional[SegmentStats] = None

    @cached_property
    def columnar_path(self) -> str:
        return str(Path(self.directory) / SEGMENT_COLUMNAR)

    @property
    def manifest_path(self) -> str:
        return str(Path(self.directory) / SEGMENT_MANIFEST)

    @property
    def files(self) -> dict[str, str]:
        """Path of every file this segment owns, by kind."""
        return {kind: str(Path(self.directory) / filename)
                for kind, filename in SEGMENT_FILES.items()}

    @cached_property
    def entity_row_count(self) -> Optional[int]:
        """Rows in the payload's entity block — the entities this
        segment's events reference; ``None`` without a readable
        ``events.col``.  Sealed segment files never change, so the
        answer is resolved once per manifest object."""
        try:
            segment = ColumnarSegment(self.columnar_path)
        except StorageError:
            return None
        try:
            return segment.entity_count
        finally:
            segment.close()

    def overlaps_window(self, window: Optional[tuple[Optional[float],
                                                     Optional[float]]]
                        ) -> bool:
        """Could any event here satisfy the compiled window predicate?

        Mirrors the SQL the compiler emits — ``start_time >= earliest``
        and ``end_time <= latest`` — so pruning is conservative: a
        segment is skipped only when *every* stored event provably fails
        the predicate.  ``None`` bounds are unbounded.
        """
        if window is None:
            return True
        earliest, latest = window
        if earliest is not None and self.max_start_time < earliest:
            return False
        if latest is not None and self.min_end_time > latest:
            return False
        return True

    def as_manifest_entry(self) -> dict[str, Any]:
        """The JSON view stored in segment/snapshot manifests."""
        entry: dict[str, Any] = {name: getattr(self, name)
                                 for name in _MANIFEST_FIELDS}
        if self.stats is not None:
            entry["stats"] = self.stats.as_entry()
        return entry

    @classmethod
    def from_manifest_entry(cls, entry: dict[str, Any],
                            directory: str | Path) -> "SegmentInfo":
        try:
            fields = {name: entry[name] for name in _MANIFEST_FIELDS}
        except KeyError as exc:
            raise StorageError(
                f"segment manifest entry missing field {exc}") from exc
        return cls(directory=str(directory),
                   stats=SegmentStats.from_entry(entry.get("stats")),
                   **fields)

    def write_manifest(self) -> None:
        Path(self.manifest_path).write_text(
            json.dumps(self.as_manifest_entry(), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SegmentView:
    """A point-in-time view of the store's partitioning for execution.

    ``sealed`` lists the immutable segments in event-id order; events
    with ids at or above ``active_first_event_id`` (there are
    ``active_events`` of them) live only in the combined store and are
    scanned there.
    """

    sealed: tuple[SegmentInfo, ...]
    active_first_event_id: int
    active_events: int

    @property
    def sealed_events(self) -> int:
        return sum(segment.event_count for segment in self.sealed)


def prune_segments(segments: tuple[SegmentInfo, ...] | list[SegmentInfo],
                   window: Optional[tuple[Optional[float],
                                          Optional[float]]]
                   ) -> list[SegmentInfo]:
    """The segments a windowed scan must visit (manifest-level pruning)."""
    return [segment for segment in segments
            if segment.overlaps_window(window)]


def merge_infos(members: list[SegmentInfo], name: str,
                directory: str | Path) -> SegmentInfo:
    """Manifest of a compaction merge of adjacent ``members``.

    Members must be contiguous in event-id order (the caller walks the
    sealed list in order, so this holds by construction); the merged
    bounds are pure min/max folds — no data scan needed.
    """
    if not members:
        raise StorageError("cannot merge zero segments")
    for left, right in zip(members, members[1:]):
        if right.first_event_id != left.last_event_id + 1:
            raise StorageError(
                f"segments {left.name} and {right.name} are not adjacent "
                f"(event ids {left.last_event_id} .. "
                f"{right.first_event_id})")
    with_entities = [m for m in members if m.new_entity_count > 0]
    return SegmentInfo(
        name=name, directory=str(directory),
        first_event_id=members[0].first_event_id,
        last_event_id=members[-1].last_event_id,
        event_count=sum(m.event_count for m in members),
        first_new_entity_id=(min(m.first_new_entity_id
                                 for m in with_entities)
                             if with_entities else 0),
        last_new_entity_id=(max(m.last_new_entity_id
                                for m in with_entities)
                            if with_entities else -1),
        new_entity_count=sum(m.new_entity_count for m in members),
        min_start_time=min(m.min_start_time for m in members),
        max_start_time=max(m.max_start_time for m in members),
        min_end_time=min(m.min_end_time for m in members),
        max_end_time=max(m.max_end_time for m in members))


def plan_compaction(segments: list[SegmentInfo],
                    min_events: int) -> list[list[SegmentInfo]]:
    """Group adjacent undersized segments into merge runs.

    Greedy left-to-right: segments smaller than ``min_events`` accumulate
    into a run until the run reaches ``min_events``; segments already at
    or above the threshold act as barriers.  Only runs of two or more
    segments are returned (merging a single segment is a no-op).
    """
    runs: list[list[SegmentInfo]] = []
    current: list[SegmentInfo] = []
    current_events = 0
    for segment in segments:
        if segment.event_count >= min_events:
            if len(current) > 1:
                runs.append(current)
            current = []
            current_events = 0
            continue
        current.append(segment)
        current_events += segment.event_count
        if current_events >= min_events:
            if len(current) > 1:
                runs.append(current)
            current = []
            current_events = 0
    if len(current) > 1:
        runs.append(current)
    return runs


__all__ = ["SegmentInfo", "SegmentStats", "SegmentView",
           "collect_segment_stats", "prune_segments", "merge_infos",
           "plan_compaction", "SEGMENT_MANIFEST", "SEGMENT_COLUMNAR",
           "SEGMENT_FILES", "SEGMENT_STATS_VERSION",
           "STATS_NUMERIC_COLUMNS", "STATS_DISTINCT_COLUMNS",
           "STATS_DISTINCT_CAP"]
