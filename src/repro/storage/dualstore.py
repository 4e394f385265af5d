"""Dual storage facade: replicated relational + graph backends.

Section III-B: data is replicated across PostgreSQL and Neo4j so that event
patterns can run as SQL and variable-length path patterns can run as Cypher.
The :class:`DualStore` mirrors that arrangement — one load call populates both
backends (optionally applying data reduction first) and exposes both query
interfaces.

Loading runs a *single pass* over the (streamed, reduced) events: entity
deduplication happens once, producing the relational row batches and the
graph node/edge batches together, which are then bulk-inserted into each
backend.  The pre-batching loader (batch reduction, row-at-a-time entity
inserts, item-wise graph construction) is retained as
``strategy="rowwise"`` — the reference the ingestion benchmark and the
equivalence tests compare against.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from collections import deque
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional

from ..audit.entities import SystemEvent
from ..audit.reduction import DEFAULT_MERGE_THRESHOLD, ReductionStats, \
    reduce_events
from ..errors import StorageError
from ..gcpause import gc_paused
from ..obs.metrics import get_registry, ingest_stage_histogram
from ..obs.trace import start_span
from .columnar import EventColumns, write_columnar
from .graph import GraphStore
from .relational import RelationalStore
from .relational.database import entity_row
from .segments import (SEGMENT_FILES, SegmentInfo, SegmentView,
                       collect_segment_stats, merge_infos, plan_compaction)

#: Valid ``strategy`` arguments for :meth:`DualStore.load_events`.
LOAD_STRATEGIES = ("batched", "rowwise")

#: Valid ``layout`` arguments for :class:`DualStore`: ``"monolithic"``
#: keeps the whole history in one relational database + one graph;
#: ``"segmented"`` additionally seals the history into immutable
#: time-bounded segments the TBQL executor can prune and scan in
#: parallel (see :mod:`repro.storage.segments`).
STORE_LAYOUTS = ("monolithic", "segmented")

#: Steps of a segment seal, as ``IngestStats.seconds`` keys and ``stage``
#: labels of ``repro_ingest_stage_seconds``.
SEAL_STAGES = ("seal_columnar", "seal_stats")

#: Default compaction threshold: sealed segments smaller than this are
#: merged with their neighbours by :meth:`DualStore.compact`.
DEFAULT_COMPACT_MIN_EVENTS = 5000

#: Version of the on-disk dual-store snapshot layout.  Bump when the
#: directory layout or manifest contract changes; :meth:`DualStore.open`
#: rejects snapshots written by newer versions.  Version history:
#: v1 — single relational.sqlite + graph.bin + manifest;
#: v2 — adds ``layout`` and the multi-segment manifest (``segments``
#: entries + a ``segments/<name>/`` directory per sealed segment);
#: v3 — each sealed segment additionally carries a struct-packed
#: columnar payload (``events.col``, :mod:`repro.storage.columnar`);
#: v4 — that payload and ``segment.json`` are all a segment directory
#: holds (no per-segment ``relational.sqlite``).
#: Older snapshots remain readable: v1 opens as a monolithic store, a
#: segment without a payload (v2) has one built from the combined store
#: when the snapshot opens, and files a segment no longer owns are
#: ignored.
SNAPSHOT_FORMAT_VERSION = 4
#: File names inside a snapshot directory.
SNAPSHOT_MANIFEST = "manifest.json"
SNAPSHOT_RELATIONAL = "relational.sqlite"
SNAPSHOT_GRAPH = "graph.bin"
#: Subdirectory of a snapshot holding one directory per segment.
SNAPSHOT_SEGMENTS_DIR = "segments"


def _file_size(path: str | Path) -> int:
    """On-disk size in bytes, 0 when the file is absent."""
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


class IngestStats(int):
    """Stored-event count enriched with ingestion statistics.

    Instances *are* the stored event count (an ``int`` subclass), so every
    caller that treated :meth:`DualStore.load_events`'s return value as a
    plain count keeps working; the extra attributes carry the load telemetry
    surfaced by ``repro ingest --stats``.
    """

    #: Events read before reduction.
    input_events: int
    #: Events stored after reduction (== ``int(self)``).
    events: int
    #: Unique entities registered.
    entities: int
    #: ``executemany`` batches issued by the relational backend.
    relational_batches: int
    #: Seconds per stage: ``reduce``, ``build``, ``relational``, ``graph``;
    #: :meth:`DualStore.flush_appends` adds ``seal_columnar`` and
    #: ``seal_stats`` when it seals a segment.
    seconds: dict[str, float]
    #: Load strategy used ("batched" or "rowwise").
    strategy: str

    def __new__(cls, events: int, *, input_events: int, entities: int,
                relational_batches: int, seconds: dict[str, float],
                strategy: str) -> "IngestStats":
        self = super().__new__(cls, events)
        self.events = events
        self.input_events = input_events
        self.entities = entities
        self.relational_batches = relational_batches
        self.seconds = seconds
        self.strategy = strategy
        return self

    @property
    def total_seconds(self) -> float:
        """Sum of the per-stage timings."""
        return sum(self.seconds.values())

    def observe(self) -> "IngestStats":
        """Record this ingest into the metrics registry; returns self."""
        registry = get_registry()
        registry.counter(
            "repro_ingest_events_total",
            "Events stored across full loads and streaming appends.",
        ).inc(self.events)
        stage_hist = ingest_stage_histogram()
        for stage, elapsed in self.seconds.items():
            stage_hist.labels(stage).observe(elapsed)
        return self

    def as_dict(self) -> dict:
        """Plain-dict view for programmatic consumers (logging, JSON)."""
        return {
            "strategy": self.strategy,
            "input_events": self.input_events,
            "events": self.events,
            "entities": self.entities,
            "relational_batches": self.relational_batches,
            "seconds": dict(self.seconds),
            "total_seconds": self.total_seconds,
        }

    def __str__(self) -> str:
        # int defines no __str__ of its own, so without this the custom
        # __repr__ would leak into f-strings printing the event count.
        return str(int(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IngestStats(events={self.events}, "
                f"input_events={self.input_events}, "
                f"entities={self.entities}, "
                f"total_seconds={self.total_seconds:.4f})")


class _BuildBatches:
    """The fused build pass of the batched loader.

    One scan over the (sorted) input events interleaves three jobs the
    rowwise reference performs as separate passes:

    * *streaming reduction* — merge-run state is accumulated per
      ``(subject, object, operation)`` key and evicted as soon as a run
      closes (the :class:`StreamingReducer` discipline, inlined);
    * *entity interning* — each entity resolves to its store id once, via an
      object-identity fast path backed by the unique-key map, emitting the
      relational row and graph node on first sight;
    * *row building* — each evicted run materializes its merged event and
      appends its fields *column-wise* into :class:`EventColumns` (plus the
      graph edge).  Emitting columns instead of row tuples is what makes
      sealing a segment cheap: the columnar payload (``events.col``) packs
      each accumulated column into one contiguous array — an O(columns)
      slice — while the SQLite insert path zips the same columns back into
      tuples via :meth:`EventColumns.row_tuples`.

    Entity and event ids are assigned in first-appearance order from 1,
    matching both the rowwise loader's assignment and the node ids
    ``add_nodes_bulk`` hands out on a fresh graph.

    The pass also powers *incremental* loading: the merge-run state and the
    id assignment survive across :meth:`consume_reducing` calls, so a log
    appended batch-by-batch builds exactly the rows one big call would have
    built (runs that span a batch boundary keep merging).  Constructor
    arguments seed the continuation — an existing ``unique_key -> id`` map
    and the next free entity/event ids — and :meth:`drain` hands the rows
    accumulated since the last drain to the caller while the interning and
    run state stay live.  :meth:`flush_runs` closes the still-open runs
    (end of stream or an explicit seal).
    """

    def __init__(self, merge_threshold: float,
                 entity_ids: dict[tuple, int] | None = None,
                 next_entity_id: int = 1, next_event_id: int = 1) -> None:
        self.merge_threshold = merge_threshold
        self.entity_ids: dict[tuple, int] = \
            entity_ids if entity_ids is not None else {}
        self._ids_by_object: dict[int, int] = {}
        self.entity_rows: list[tuple] = []
        self.event_columns = EventColumns()
        self.nodes: list[tuple[str, dict]] = []
        self.edges: list[tuple[int, int, str, dict]] = []
        self.reduced: list[SystemEvent] = []
        self.next_entity_id = next_entity_id
        self.next_event_id = next_event_id
        # Merge-run continuation state (persists across consume calls).
        self._open_runs: dict[tuple, list] = {}
        self._run_queue: deque[tuple[tuple, list]] = deque()
        self.input_events = 0
        self.output_events = 0
        self.merged_events = 0

    @property
    def open_runs(self) -> int:
        """Merge runs still buffered (not yet emitted as rows)."""
        return len(self._run_queue)

    @property
    def reduction_stats(self) -> ReductionStats:
        """Cumulative reduction statistics (open runs counted as output)."""
        return ReductionStats(input_events=self.input_events,
                              output_events=self.output_events +
                              len(self._run_queue),
                              merged_events=self.merged_events)

    def drain(self) -> tuple[list[tuple], EventColumns,
                             list[tuple[str, dict]],
                             list[tuple[int, int, str, dict]],
                             list[SystemEvent]]:
        """Hand over the rows built since the last drain, keeping state.

        Returns ``(entity_rows, event_columns, nodes, edges, reduced)``.
        The interning map, id counters, and open merge runs stay live so
        the next batch continues exactly where this one left off.  The
        object-identity fast path is reset: between batches an entity
        object may be garbage collected and its address reused, so only
        the unique-key map may carry over.
        """
        drained = (self.entity_rows, self.event_columns, self.nodes,
                   self.edges, self.reduced)
        self.entity_rows = []
        self.event_columns = EventColumns()
        self.nodes = []
        self.edges = []
        self.reduced = []
        self._ids_by_object = {}
        return drained

    def _intern(self, entity) -> int:
        # Object-identity fast path: collectors reuse entity instances
        # across events, so most lookups never hash the unique key.
        marker = id(entity)
        entity_id = self._ids_by_object.get(marker)
        if entity_id is None:
            key = entity.unique_key
            entity_id = self.entity_ids.get(key)
            if entity_id is None:
                entity_id = self.next_entity_id
                self.next_entity_id = entity_id + 1
                self.entity_ids[key] = entity_id
                self.entity_rows.append(entity_row(entity_id, entity))
                self.nodes.append((entity.entity_type.value,
                                   entity.attributes()))
            self._ids_by_object[marker] = entity_id
        return entity_id

    def _emit(self, event: SystemEvent, subject_id: int,
              object_id: int) -> None:
        # The edge adopts the event's cached attribute dict (no copy): the
        # graph never mutates edge properties and SystemEvent.attributes()
        # is documented read-only, so the two views may share one dict.
        attrs = event.attributes()
        event_id = self.next_event_id
        self.next_event_id = event_id + 1
        self.event_columns.append(
            event_id, subject_id, object_id,
            attrs["operation"], attrs["category"], event.start_time,
            event.end_time, attrs["duration"], event.data_amount,
            event.failure_code, event.host)
        self.edges.append((subject_id, object_id, "EVENT", attrs))
        self.reduced.append(event)
        self.output_events += 1

    def _emit_run(self, cell: list) -> None:
        first = cell[0]
        if cell[3]:
            merged = first.with_merged_span(cell[1], cell[2])
            # Derive the merged event's attribute cache from the first
            # event's instead of rebuilding it field by field — only the
            # span-dependent entries change.
            attrs = dict(first.attributes())
            attrs["end_time"] = cell[1]
            attrs["duration"] = cell[1] - first.start_time
            attrs["data_amount"] = cell[2]
            merged.__dict__["_attributes"] = attrs
            first = merged
        self._emit(first, cell[5], cell[6])

    def consume(self, event_list: list[SystemEvent]) -> None:
        """Build batches without reduction (events in given order)."""
        intern = self._intern
        self.input_events += len(event_list)
        for event in event_list:
            self._emit(event, intern(event.subject), intern(event.obj))

    def consume_reducing(self, event_list: list[SystemEvent]) -> None:
        """Build batches with streaming reduction (events must be sorted).

        Runs that are still open when the list ends stay buffered; the
        next call keeps merging into them, and :meth:`flush_runs` closes
        them at end of stream.  An event older than an open run's window
        simply opens a new run (out-of-order input degrades reduction,
        never correctness).
        """
        # Run cells: [first_event, end_time, data_amount, merge_count,
        # closed, subject_id, object_id]; evicted in first-appearance order,
        # exactly like StreamingReducer/reduce_events.  The merge key uses
        # id(operation): enum members are singletons, so identity equals
        # equality without the descriptor lookups.
        threshold = self.merge_threshold
        identity_ids = self._ids_by_object
        intern = self._intern
        open_runs = self._open_runs
        run_queue = self._run_queue
        self.input_events += len(event_list)
        for event in event_list:
            subject = event.subject
            subject_id = identity_ids.get(id(subject))
            if subject_id is None:
                subject_id = intern(subject)
            obj = event.obj
            object_id = identity_ids.get(id(obj))
            if object_id is None:
                object_id = intern(obj)
            start = event.start_time
            key = (subject_id, object_id, id(event.operation))
            cell = open_runs.get(key)
            if cell is not None and not cell[4] and \
                    0 <= start - cell[1] <= threshold:
                cell[1] = event.end_time
                cell[2] += event.data_amount
                cell[3] += 1
                self.merged_events += 1
            else:
                if cell is not None:
                    cell[4] = True
                cell = [event, event.end_time, event.data_amount, 0,
                        False, subject_id, object_id]
                open_runs[key] = cell
                run_queue.append((key, cell))
            while run_queue:
                head_key, head = run_queue[0]
                if not head[4] and head[1] + threshold >= start:
                    break
                run_queue.popleft()
                if open_runs.get(head_key) is head:
                    del open_runs[head_key]
                self._emit_run(head)

    def flush_runs(self) -> int:
        """Close and emit every still-open merge run; returns the count."""
        run_queue = self._run_queue
        self._run_queue = deque()
        self._open_runs = {}
        count = 0
        for _key, cell in run_queue:
            self._emit_run(cell)
            count += 1
        return count


class DualStore:
    """Replicated storage across the relational and graph backends."""

    def __init__(self, relational_path: str | Path | None = None,
                 reduce: bool = True,
                 merge_threshold: float = DEFAULT_MERGE_THRESHOLD,
                 retain_events: bool = True,
                 layout: str = "monolithic",
                 segment_dir: str | Path | None = None) -> None:
        """Create the dual store.

        Args:
            relational_path: optional on-disk path for the relational store.
            reduce: apply the Section III-B data reduction before storing.
            merge_threshold: merge-gap threshold in seconds.
            retain_events: keep the (reduced) :class:`SystemEvent` objects
                in memory for :meth:`events`.  Turn off for long-running
                streaming stores — both query backends hold the data, and
                retaining a third in-memory copy grows without bound under
                continuous :meth:`append_events`.
            layout: ``"monolithic"`` (default) or ``"segmented"``; the
                segmented layout seals immutable time-bounded segments on
                :meth:`flush_appends`/:meth:`save`, enabling segment
                pruning and parallel scatter-gather pattern scans.
            segment_dir: with ``layout="segmented"``: directory for the
                sealed segment files; a private temporary directory
                (removed on :meth:`close`) when omitted.
        """
        if layout not in STORE_LAYOUTS:
            raise ValueError(f"unknown store layout: {layout!r} "
                             f"(expected one of {STORE_LAYOUTS})")
        self.relational = RelationalStore(relational_path)
        self.graph = GraphStore()
        self.reduce = reduce
        self.merge_threshold = merge_threshold
        self.retain_events = retain_events
        self.last_reduction: ReductionStats | None = None
        self.last_ingest: IngestStats | None = None
        self._events: list[SystemEvent] = []
        #: Bumped on every (re)load and on every stored append batch;
        #: executors watch it to drop caches keyed by entity id when the
        #: stored data changes.
        self.data_version = 0
        #: Continuation state of the incremental append path (lazy).
        self._stream: _BuildBatches | None = None
        self.layout = layout
        self._init_segment_state(segmented=(layout == "segmented"),
                                 segment_dir=segment_dir)

    # ------------------------------------------------------------------
    # segment bookkeeping (layout="segmented")
    # ------------------------------------------------------------------
    def _init_segment_state(self, segmented: bool,
                            segment_dir: str | Path | None = None) -> None:
        self._segmented = segmented
        self._segments: list[SegmentInfo] = []
        #: Monotonic per-store counter so segment names (and therefore
        #: file paths) are never reused, even across reloads — scanners
        #: may still hold a mapping of an old path.
        self._segment_seq = 1
        self._owns_segment_home = False
        self._segment_home: Path | None = None
        if segmented:
            if segment_dir is None:
                self._own_segment_home()
            else:
                self._segment_home = Path(segment_dir)
                self._segment_home.mkdir(parents=True, exist_ok=True)
        self._reset_active_tracking(first_event_id=1, first_entity_id=1)

    def _own_segment_home(self) -> Path:
        """The private temporary segment home (removed on :meth:`close`),
        created on first use."""
        if not self._owns_segment_home:
            self._segment_home = Path(
                tempfile.mkdtemp(prefix="repro-segments-"))
            self._owns_segment_home = True
        assert self._segment_home is not None
        return self._segment_home

    def _reset_active_tracking(self, first_event_id: int,
                               first_entity_id: int) -> None:
        self._active_first_event_id = first_event_id
        self._active_first_entity_id = first_entity_id
        self._active_events = 0
        self._active_min_start: Optional[float] = None
        self._active_max_start: Optional[float] = None
        self._active_min_end: Optional[float] = None
        self._active_max_end: Optional[float] = None
        #: Column-major buffer of the active segment's stored event rows
        #: — the seal-time fast path packs these lists straight into the
        #: ``events.col`` payload.  ``None`` when the rows didn't flow
        #: through the columnar builder (rowwise loads); sealing then
        #: reads them back from the relational store.
        self._active_columns: EventColumns | None = (
            EventColumns() if self._segmented else None)

    def _track_active_bounds(self, times: Iterable[tuple[float, float]],
                             count: int) -> None:
        """Fold stored ``(start_time, end_time)`` pairs into the active
        segment's manifest-to-be."""
        if not self._segmented or count == 0:
            return
        min_start = self._active_min_start
        max_start = self._active_max_start
        min_end = self._active_min_end
        max_end = self._active_max_end
        for start, end in times:
            if min_start is None or start < min_start:
                min_start = start
            if max_start is None or start > max_start:
                max_start = start
            if min_end is None or end < min_end:
                min_end = end
            if max_end is None or end > max_end:
                max_end = end
        self._active_min_start = min_start
        self._active_max_start = max_start
        self._active_min_end = min_end
        self._active_max_end = max_end
        self._active_events += count

    def _track_active_rows(self, event_columns: EventColumns) -> None:
        self._track_active_bounds(event_columns.time_pairs(),
                                  len(event_columns))
        if self._segmented and self._active_columns is not None and \
                len(event_columns):
            self._active_columns.extend(event_columns)

    def _drop_segments(self) -> None:
        """Forget every sealed segment (a reload replaces the history)."""
        for info in self._segments:
            self._discard_segment_files(info)
        self._segments = []
        self._reset_active_tracking(first_event_id=1, first_entity_id=1)

    def _discard_segment_files(self, info: SegmentInfo) -> None:
        home = self._segment_home
        if home is None or not self._owns_segment_home:
            return
        directory = Path(info.directory)
        try:
            if directory.resolve().is_relative_to(home.resolve()):
                shutil.rmtree(directory, ignore_errors=True)
        except (OSError, ValueError):  # pragma: no cover - best effort
            pass

    def load_events(self, events: Iterable[SystemEvent],
                    strategy: str = "batched") -> IngestStats:
        """Load events into both backends; returns ingestion statistics.

        The return value is an :class:`IngestStats` — an ``int`` holding the
        stored event count, annotated with per-stage timings and batch
        counts.

        Loading *replaces* the stored data: the graph backend rebuilds from
        scratch on every load, so the relational backend is cleared first to
        keep both id spaces aligned (relational entity id == graph node id,
        the invariant candidate pushdown relies on).  Without the clear, a
        second load would leave the relational store counting entity ids
        past the rebuilt graph's, and pushed-down id allowlists would
        silently select the wrong nodes.

        Args:
            events: the system events to store.
            strategy: ``"batched"`` (default) streams the reduction and
                bulk-loads both backends from one build pass;
                ``"rowwise"`` is the retained pre-batching reference path.
        """
        if strategy not in LOAD_STRATEGIES:
            raise ValueError(f"unknown load strategy: {strategy!r} "
                             f"(expected one of {LOAD_STRATEGIES})")
        if self.read_only:
            raise StorageError(
                "store is read-only (opened from a snapshot); ingest into "
                "a writable DualStore and save() a new snapshot instead")
        loader = self._load_batched if strategy == "batched" else \
            self._load_rowwise
        self._stream = None     # a reload invalidates append continuation
        if self._segmented:
            self._drop_segments()
        stats = loader(events).observe()
        self.last_ingest = stats
        self.data_version += 1
        return stats

    # ------------------------------------------------------------------
    # incremental append path (live streaming ingestion)
    # ------------------------------------------------------------------
    @gc_paused()
    def append_events(self, events: Iterable[SystemEvent]) -> IngestStats:
        """Append a batch of events to both backends without a rebuild.

        The same fused reduction/interning/row-building pass as the batched
        loader runs on the delta only: new entities get the next free ids
        (relational row id == graph node id stays invariant), event rows are
        appended with multi-row inserts under incremental index maintenance,
        and the graph grows via the bulk node/edge appends.  Merge runs that
        are still open when the batch ends stay buffered so a run spanning
        two appends merges exactly as a one-shot load would; they are stored
        when a later event closes them or when :meth:`flush_appends` seals
        the stream.  ``data_version`` is bumped once per batch that stores
        anything, so executor/plan/result caches invalidate correctly.

        The batch is sorted internally; events that arrive older than
        already-appended data are stored correctly but cannot merge into
        runs that earlier batches closed (late data degrades reduction,
        never correctness).

        Returns per-batch :class:`IngestStats` whose count is the number of
        events *stored* by this call (buffered open runs are excluded).
        """
        if self.read_only:
            raise StorageError(
                "store is read-only (opened from a snapshot); reopen with "
                "DualStore.open(path, read_only=False) to append")
        stream = self._ensure_stream()
        reduce_start = time.perf_counter()
        event_list = list(events)
        input_count = len(event_list)
        if self.reduce:
            event_list.sort(key=attrgetter("start_time", "event_id"))
        reduce_seconds = time.perf_counter() - reduce_start

        build_start = time.perf_counter()
        if self.reduce:
            stream.consume_reducing(event_list)
        else:
            stream.consume(event_list)
        build_seconds = time.perf_counter() - build_start
        return self._store_stream_delta(
            stream, input_count,
            {"reduce": reduce_seconds, "build": build_seconds})

    def flush_appends(self, seal_segment: bool = True) -> IngestStats:
        """Seal the append stream: store every still-open merge run.

        Call at end of stream (or before a checkpoint snapshot) so events
        buffered in open merge runs become queryable.  A no-op when nothing
        is buffered.  On a segmented store this also seals the active
        write segment (when it holds any events), making the stored tail
        an immutable, independently scannable segment — pass
        ``seal_segment=False`` to flush the merge runs without cutting a
        segment (the streaming engine does this for per-request ingest
        seals, where cutting one tiny segment per HTTP request would
        drown the store in scatter tasks; its ``seal_every`` policy and
        checkpoint saves decide when segments actually close).
        """
        stats = self._flush_stream()
        if seal_segment and self._segmented and not self.read_only:
            self._seal_active(stats.seconds)
        return stats

    @gc_paused()
    def _flush_stream(self) -> IngestStats:
        stream = self._stream
        if stream is None:
            return IngestStats(0, input_events=0, entities=0,
                               relational_batches=0, seconds={},
                               strategy="append")
        build_start = time.perf_counter()
        stream.flush_runs()
        build_seconds = time.perf_counter() - build_start
        return self._store_stream_delta(
            stream, 0, {"reduce": 0.0, "build": build_seconds})

    # ------------------------------------------------------------------
    # segmented layout: sealing, compaction, execution view
    # ------------------------------------------------------------------
    def seal_active_segment(self) -> SegmentInfo | None:
        """Flush open merge runs and seal the active write segment.

        Returns the new segment's manifest, or ``None`` when the active
        segment held no stored events.  Only valid on a writable store
        with ``layout="segmented"``.
        """
        if not self._segmented:
            raise StorageError(
                "this store has no segments (layout='monolithic'); "
                "construct it with layout='segmented' to seal")
        if self.read_only:
            raise StorageError("store is read-only (opened from a "
                               "snapshot); segments cannot be sealed")
        self._flush_stream()
        return self._seal_active()

    def _seal_active(self, seconds: dict[str, float] | None = None
                     ) -> SegmentInfo | None:
        if self._active_events == 0:
            return None
        assert self._segment_home is not None
        name = f"seg-{self._segment_seq:06d}"
        self._segment_seq += 1
        directory = self._segment_home / name
        directory.mkdir(parents=True, exist_ok=True)
        first_event = self._active_first_event_id
        last_event = first_event + self._active_events - 1
        first_entity = self._active_first_entity_id
        last_entity = self.relational.id_state()[1] - 1
        new_entities = max(0, last_entity - first_entity + 1)
        info = SegmentInfo(
            name=name, directory=str(directory),
            first_event_id=first_event, last_event_id=last_event,
            event_count=self._active_events,
            first_new_entity_id=first_entity if new_entities else 0,
            last_new_entity_id=last_entity if new_entities else -1,
            new_entity_count=new_entities,
            min_start_time=float(self._active_min_start or 0.0),
            max_start_time=float(self._active_max_start or 0.0),
            min_end_time=float(self._active_min_end or 0.0),
            max_end_time=float(self._active_max_end or 0.0))
        columns = self._active_columns
        covered = (columns is not None and len(columns) == info.event_count
                   and columns.first_id == info.first_event_id)
        info = self._write_segment_files(
            info, event_columns=columns if covered else None,
            seconds=seconds)
        self._segments.append(info)
        self._reset_active_tracking(first_event_id=last_event + 1,
                                    first_entity_id=last_entity + 1)
        return info

    def _write_payload(self, info: SegmentInfo,
                       event_columns: EventColumns | None = None) -> None:
        """Write ``events.col``: the segment's event rows and the entity
        rows they reference.

        ``event_columns`` are the event rows when the active segment
        buffered them column-wise; compaction merges, rowwise loads and
        snapshots whose segments lack a payload read them back from the
        relational store.  The payload is the same, byte for byte.
        """
        event_rows, entity_rows = self.relational.segment_rows(
            info.first_event_id, info.last_event_id,
            with_events=event_columns is None)
        if event_columns is None:
            event_columns = EventColumns.from_rows(event_rows)
        write_columnar(info.columnar_path, event_columns, entity_rows)

    @gc_paused()
    def _write_segment_files(self, info: SegmentInfo,
                             event_columns: EventColumns | None = None,
                             seconds: dict[str, float] | None = None
                             ) -> SegmentInfo:
        """Write ``events.col`` and the manifest.

        Work is proportional to the segment.  ``seconds`` receives the
        time of each step, which the stage histogram records either way.
        """
        clock = time.perf_counter
        marks = [clock()]
        self._write_payload(info, event_columns)
        marks.append(clock())
        # Stats ride along in the manifest; a None result (unreadable
        # payload) just leaves the segment permanently unpruned.
        stats = collect_segment_stats(info.columnar_path)
        if stats is not None:
            info = dataclasses.replace(info, stats=stats)
        info.write_manifest()
        marks.append(clock())
        histogram = ingest_stage_histogram()
        for stage, begin, end in zip(SEAL_STAGES, marks, marks[1:]):
            histogram.labels(stage).observe(end - begin)
            if seconds is not None:
                seconds[stage] = seconds.get(stage, 0.0) + end - begin
        return info

    def compact(self, min_events: int = DEFAULT_COMPACT_MIN_EVENTS) -> dict:
        """Merge adjacent undersized segments into bigger ones.

        Streaming seals produce many small segments; each one costs a
        scatter task (and a file handle) per pattern scan.  Compaction
        rewrites every run of adjacent segments smaller than
        ``min_events`` as one merged segment — the event-id space stays
        contiguous, stored data is untouched, and the replaced segment
        files are deleted when this store owns them.  Returns a report:
        ``{"merged_runs", "segments_before", "segments_after", "created"}``.
        """
        if not self._segmented:
            raise StorageError(
                "this store has no segments (layout='monolithic')")
        if self.read_only:
            raise StorageError(
                "store is read-only (opened from a snapshot); reopen "
                "writable (or 'repro compact' into a new snapshot)")
        before = len(self._segments)
        runs = plan_compaction(self._segments, min_events)
        created: list[str] = []
        for run in runs:
            assert self._segment_home is not None
            name = f"seg-{self._segment_seq:06d}"
            self._segment_seq += 1
            directory = self._segment_home / name
            directory.mkdir(parents=True, exist_ok=True)
            merged = merge_infos(run, name, directory)
            merged = self._write_segment_files(merged)
            index = self._segments.index(run[0])
            self._segments[index:index + len(run)] = [merged]
            created.append(name)
            for old in run:
                self._discard_segment_files(old)
        return {"merged_runs": len(runs), "segments_before": before,
                "segments_after": len(self._segments), "created": created}

    def segment_view(self) -> SegmentView | None:
        """Execution-time view of the partitioning, or ``None``.

        ``None`` means "no sealed segments" — the executor then runs each
        pattern as one query against the combined store, exactly the
        monolithic code path.
        """
        if not self._segmented or not self._segments:
            return None
        return SegmentView(
            sealed=tuple(self._segments),
            active_first_event_id=self._active_first_event_id,
            active_events=self._active_events)

    def segment_stats(self) -> dict:
        """Layout + per-segment summary (``GET /stats``, ``repro
        segments``).

        Each segment entry carries ``entity_rows`` — the entities its
        events reference, as held in the payload's entity block
        (``None`` without a payload) — and a ``payload_bytes`` breakdown
        of its on-disk files by kind (:data:`SEGMENT_FILES`).
        """
        stats: dict = {"layout": self.layout,
                       "sealed_segments": len(self._segments),
                       "sealed_events": sum(info.event_count
                                            for info in self._segments),
                       "active_events": self._active_events
                       if self._segmented else None}
        entries = []
        for info in self._segments:
            entry = info.as_manifest_entry()
            entry["entity_rows"] = info.entity_row_count
            entry["payload_bytes"] = {
                kind: _file_size(path) for kind, path in info.files.items()}
            entries.append(entry)
        stats["segments"] = entries
        return stats

    @property
    def pending_appends(self) -> int:
        """Events buffered in open merge runs (not yet queryable)."""
        return self._stream.open_runs if self._stream is not None else 0

    @property
    def max_event_id(self) -> int:
        """Highest event id stored so far (0 on an empty store)."""
        return self.relational.id_state()[2] - 1

    def _ensure_stream(self) -> _BuildBatches:
        if self._stream is None:
            entity_ids, next_entity_id, next_event_id = \
                self.relational.id_state()
            graph_next = self.graph.graph.next_node_id
            if graph_next != next_entity_id:
                raise StorageError(
                    f"backend id spaces diverged: relational expects next "
                    f"entity id {next_entity_id}, graph expects "
                    f"{graph_next}; cannot append")
            self._stream = _BuildBatches(
                self.merge_threshold, entity_ids=entity_ids,
                next_entity_id=next_entity_id, next_event_id=next_event_id)
        return self._stream

    def _store_stream_delta(self, stream: _BuildBatches, input_count: int,
                            seconds: dict[str, float]) -> IngestStats:
        entity_rows, event_columns, nodes, edges, reduced = stream.drain()
        stored_events = len(event_columns)

        relational_start = time.perf_counter()
        statements = 0
        if entity_rows or stored_events:
            statements = self.relational.append_rows(
                entity_rows, event_columns.row_tuples())
        self.relational.adopt_entity_ids(
            stream.entity_ids, stream.next_event_id,
            next_entity_id=stream.next_entity_id)
        relational_seconds = time.perf_counter() - relational_start

        graph_start = time.perf_counter()
        if nodes or edges:
            self.graph.append_prepared(nodes, edges)
        graph_seconds = time.perf_counter() - graph_start

        self._track_active_rows(event_columns)
        if self.retain_events:
            self._events.extend(reduced)
        if entity_rows or stored_events:
            self.data_version += 1
        if self.reduce:
            self.last_reduction = stream.reduction_stats
        seconds = dict(seconds)
        seconds["relational"] = relational_seconds
        seconds["graph"] = graph_seconds
        stats = IngestStats(
            stored_events, input_events=input_count,
            entities=len(entity_rows), relational_batches=statements,
            seconds=seconds, strategy="append").observe()
        self.last_ingest = stats
        return stats

    # ------------------------------------------------------------------
    # batched fast path: fused streaming reduction + single build pass
    # ------------------------------------------------------------------
    @gc_paused()
    def _load_batched(self, events: Iterable[SystemEvent]) -> IngestStats:
        """Sort, run the fused build pass, then bulk-load both backends.

        The fused pass (see :class:`_BuildBatches`) produces the relational
        row batches and graph node/edge batches in one scan; the relational
        side then loads with multi-row inserts under a deferred index
        rebuild and the graph side with ``add_nodes_bulk`` /
        ``add_edges_bulk``.  Stage timings: ``reduce`` is the input ordering
        (sort), ``build`` the fused pass, then ``relational`` and ``graph``
        the bulk inserts.
        """
        reduce_start = time.perf_counter()
        event_list = list(events)
        input_count = len(event_list)
        do_reduce = self.reduce
        if do_reduce:
            event_list.sort(key=attrgetter("start_time", "event_id"))
        reduce_seconds = time.perf_counter() - reduce_start

        build_start = time.perf_counter()
        batches = _BuildBatches(self.merge_threshold)
        if do_reduce:
            batches.consume_reducing(event_list)
            batches.flush_runs()
            self.last_reduction = batches.reduction_stats
        else:
            batches.consume(event_list)
        build_seconds = time.perf_counter() - build_start

        relational_start = time.perf_counter()
        statements = self.relational.reload_rows(
            batches.entity_rows, batches.event_columns.row_tuples())
        self.relational.adopt_entity_ids(
            batches.entity_ids, batches.next_event_id,
            next_entity_id=batches.next_entity_id)
        relational_seconds = time.perf_counter() - relational_start

        graph_start = time.perf_counter()
        self.graph.load_prepared(batches.nodes, batches.edges)
        graph_seconds = time.perf_counter() - graph_start

        self._track_active_rows(batches.event_columns)
        self._events = batches.reduced if self.retain_events else []
        return IngestStats(
            len(batches.reduced), input_events=input_count,
            entities=len(batches.entity_rows),
            relational_batches=statements,
            seconds={"reduce": reduce_seconds, "build": build_seconds,
                     "relational": relational_seconds,
                     "graph": graph_seconds},
            strategy="batched")

    # ------------------------------------------------------------------
    # rowwise reference path (the pre-batching loader)
    # ------------------------------------------------------------------
    def _load_rowwise(self, events: Iterable[SystemEvent]) -> IngestStats:
        reduce_start = time.perf_counter()
        event_list = list(events)
        input_count = len(event_list)
        if self.reduce:
            event_list, stats = reduce_events(event_list,
                                              self.merge_threshold)
            self.last_reduction = stats
        reduce_seconds = time.perf_counter() - reduce_start

        relational_start = time.perf_counter()
        self.relational.clear()
        self.relational.load_events_rowwise(event_list)
        relational_seconds = time.perf_counter() - relational_start

        graph_start = time.perf_counter()
        self.graph.load_events(event_list, itemwise=True)
        graph_seconds = time.perf_counter() - graph_start

        self._track_active_bounds(
            ((event.start_time, event.end_time) for event in event_list),
            len(event_list))
        # Rowwise rows never flow through the columnar builder; sealing
        # this data reads them back from the relational store.
        self._active_columns = None
        self._events = event_list if self.retain_events else []
        entities = self.relational.count_entities()
        # One INSERT per entity plus one executemany for the events.
        statements = entities + (1 if event_list else 0)
        return IngestStats(
            len(event_list), input_events=input_count, entities=entities,
            relational_batches=statements,
            seconds={"reduce": reduce_seconds, "build": 0.0,
                     "relational": relational_seconds,
                     "graph": graph_seconds},
            strategy="rowwise")

    def events(self) -> list[SystemEvent]:
        """Return the (reduced) events currently stored.

        Empty when the store was built with ``retain_events=False`` or
        opened from a snapshot (the query backends still hold the data).
        """
        return list(self._events)

    def execute_sql(self, sql: str, params=()) -> list[dict]:
        """Run SQL against the relational backend."""
        return self.relational.execute(sql, params)

    def execute_cypher(self, cypher: str) -> list[dict]:
        """Run mini-Cypher against the graph backend."""
        return self.graph.execute(cypher)

    def entity_by_ids(self, entity_ids) -> dict[int, dict]:
        """Batch-fetch entity rows by id from the relational backend.

        Both backends are loaded from the same (reduced) event stream and
        register entities in identical order, so relational entity ids and
        graph node ids refer to the same entities; callers may use either id
        source.  Callers that also need the issued-statement count use
        :meth:`RelationalStore.entity_by_ids` directly.
        """
        rows_by_id, _statements = self.relational.entity_by_ids(entity_ids)
        return rows_by_id

    # ------------------------------------------------------------------
    # persistence: snapshot save / restore
    # ------------------------------------------------------------------
    @property
    def read_only(self) -> bool:
        """True when the store was opened from a snapshot (queries only)."""
        return self.relational.read_only

    def save(self, path: str | Path) -> dict:
        """Persist both backends into a snapshot directory; returns the
        manifest.

        The directory holds the relational database
        (:data:`SNAPSHOT_RELATIONAL`, SQLite in WAL mode via the backup
        API), the property graph (:data:`SNAPSHOT_GRAPH`, the versioned
        binary format of :meth:`PropertyGraph.save`), and a JSON manifest
        recording the format version and the entity/event counts
        :meth:`open` verifies on restore.

        On a writable store the append stream is sealed first
        (:meth:`flush_appends`), so events buffered in open merge runs are
        part of the snapshot; on a segmented store that seal also closes
        the active write segment, and every sealed segment is copied into
        ``segments/<name>/`` with its entry recorded in the manifest.
        Monolithic stores write the same manifest without a ``segments``
        list.
        """
        if not self.read_only:
            self.flush_appends()
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        self.relational.save_to(directory / SNAPSHOT_RELATIONAL)
        self.graph.graph.save(directory / SNAPSHOT_GRAPH)
        manifest = {
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "created_at": time.time(),
            "layout": self.layout,
            "reduce": self.reduce,
            "merge_threshold": self.merge_threshold,
            "data_version": self.data_version,
            "relational_entities": self.relational.count_entities(),
            "relational_events": self.relational.count_events(),
            "graph_nodes": self.graph.num_nodes(),
            "graph_edges": self.graph.num_edges(),
        }
        if self._segmented:
            manifest["segments"] = self._save_segments(directory)
        (directory / SNAPSHOT_MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        return manifest

    def _save_segments(self, directory: Path) -> list[dict]:
        """Copy every sealed segment into the snapshot; returns entries."""
        segments_dir = directory / SNAPSHOT_SEGMENTS_DIR
        segments_dir.mkdir(parents=True, exist_ok=True)
        keep = {info.name for info in self._segments}
        for stale in segments_dir.iterdir():
            # A resave over an existing snapshot must not leave segment
            # directories the new manifest no longer references.
            if stale.is_dir() and stale.name not in keep:
                shutil.rmtree(stale, ignore_errors=True)
        for info in self._segments:
            target = segments_dir / info.name
            target.mkdir(parents=True, exist_ok=True)
            self._place_segment(info, target)
            for stray in target.iterdir():
                # Nor files a segment no longer owns (an earlier build's
                # relational.sqlite / graph.bin, on an in-place resave).
                if stray.name not in SEGMENT_FILES.values():
                    stray.unlink()
        return [info.as_manifest_entry() for info in self._segments]

    @classmethod
    @gc_paused()
    @start_span("snapshot_open")
    def open(cls, path: str | Path, read_only: bool = True,
             relational_path: str | Path | None = None) -> "DualStore":
        """Open a snapshot directory as a dual store.

        With ``read_only=True`` (the default) the relational backend
        attaches to the snapshot's SQLite file with read-only connections
        (one per querying thread); the returned store serves queries only —
        :meth:`load_events` raises :class:`StorageError`.  With
        ``read_only=False`` the relational contents are restored into a
        fresh *writable* store (at ``relational_path``, or in memory) via
        the SQLite backup API and the entity/event id bookkeeping is rebuilt
        from the stored rows, so :meth:`append_events` continues exactly
        where the snapshot left off — the checkpoint-resume path of the
        streaming subsystem.  The snapshot directory itself is never
        mutated by a writable reopen.

        In both modes the relational counts are checked against the
        manifest and ``data_version`` resumes from the value recorded at
        save time (1 for snapshots written before the field existed).
        Of ``graph.bin`` only the container header is read here; the
        graph is parsed and counted against the manifest on its first
        use (:meth:`GraphStore.defer_load`).  Note :meth:`events` is
        empty because raw events are not part of the snapshot.

        Raises:
            StorageError: when the directory is not a snapshot, was written
                by a newer format version, or its contents or graph header
                do not match the manifest.
        """
        directory = Path(path)
        with start_span("manifest"):
            manifest_path = directory / SNAPSHOT_MANIFEST
            if not manifest_path.is_file():
                raise StorageError(f"not a dual-store snapshot (no "
                                   f"{SNAPSHOT_MANIFEST}): {directory}")
            try:
                manifest = json.loads(manifest_path.read_text("utf-8"))
            except json.JSONDecodeError as exc:
                raise StorageError(
                    f"corrupt snapshot manifest: {manifest_path}") from exc
            version = manifest.get("format_version")
            if not isinstance(version, int) or version < 1 or \
                    version > SNAPSHOT_FORMAT_VERSION:
                raise StorageError(
                    f"unsupported snapshot format version {version!r} "
                    f"(this build reads <= {SNAPSHOT_FORMAT_VERSION})")

        def check_counts(**actual: int) -> None:
            for recorded, count in actual.items():
                expected = manifest.get(recorded)
                if expected is not None and expected != count:
                    raise StorageError(
                        f"snapshot {directory} is corrupt: {recorded} is "
                        f"{count}, manifest says {expected}")

        store = cls.__new__(cls)
        with start_span("relational"):
            if read_only:
                store.relational = RelationalStore(
                    directory / SNAPSHOT_RELATIONAL, read_only=True)
            else:
                store.relational = RelationalStore.from_snapshot(
                    directory / SNAPSHOT_RELATIONAL, relational_path)
        try:
            check_counts(
                relational_entities=store.relational.count_entities(),
                relational_events=store.relational.count_events())
            store.graph = GraphStore()
            store.graph.defer_load(
                directory / SNAPSHOT_GRAPH,
                lambda graph: check_counts(graph_nodes=graph.num_nodes(),
                                           graph_edges=graph.num_edges()))
            store.reduce = bool(manifest.get("reduce", True))
            store.merge_threshold = float(
                manifest.get("merge_threshold", DEFAULT_MERGE_THRESHOLD))
            store.last_reduction = None
            store.last_ingest = None
            # Raw events are not part of a snapshot; appends to a writable
            # reopen must not start accumulating a partial copy either.
            store.retain_events = False
            store._events = []
            store._stream = None
            data_version = manifest.get("data_version")
            store.data_version = data_version \
                if isinstance(data_version, int) and data_version > 0 else 1
            with start_span("segments"):
                store._restore_segments(directory, manifest, read_only)
        except BaseException:
            # Don't leak the already-opened relational connection when the
            # rest of the snapshot fails to restore.
            store.relational.close()
            raise
        return store

    def _restore_segments(self, directory: Path, manifest: dict,
                          read_only: bool) -> None:
        """Attach a snapshot's segments to this freshly opened store.

        v1 manifests (no ``segments``, no ``layout``) leave the store
        monolithic — the backward-compatible path.  Read-only opens
        reference the snapshot's segment files in place; writable reopens
        copy them into a private temporary home first, so a later
        checkpoint swap (which replaces the snapshot directory) can never
        delete files a live store still scans.  A segment that arrives
        without a payload (format v2) gets one built in that private
        home in either mode; the snapshot directory is never written.
        """
        entries = manifest.get("segments") or []
        segmented = bool(entries) or \
            manifest.get("layout") == "segmented"
        self.layout = "segmented" if segmented else "monolithic"
        self._init_segment_state(segmented=False)
        if not segmented:
            return
        self._segmented = True
        if not read_only:
            self._own_segment_home()
        infos: list[SegmentInfo] = []
        for entry in entries:
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise StorageError(
                    f"snapshot {directory} has a segment entry without a "
                    f"name")
            info = SegmentInfo.from_manifest_entry(
                entry, directory / SNAPSHOT_SEGMENTS_DIR / name)
            if not read_only or not Path(info.columnar_path).is_file():
                target = self._own_segment_home() / name
                target.mkdir()
                info = self._place_segment(info, target)
            infos.append(info)
            try:
                sequence = int(name.rsplit("-", 1)[-1])
            except ValueError:
                sequence = len(infos)
            self._segment_seq = max(self._segment_seq, sequence + 1)
        self._segments = infos
        covered = sum(info.event_count for info in infos)
        stored = self.relational.count_events()
        if covered != stored:
            raise StorageError(
                f"snapshot {directory} is corrupt: segments cover "
                f"{covered} events, store holds {stored}")
        next_event_id = infos[-1].last_event_id + 1 if infos else 1
        next_entity_id = max(
            [info.last_new_entity_id + 1 for info in infos
             if info.new_entity_count] or [1])
        self._reset_active_tracking(first_event_id=next_event_id,
                                    first_entity_id=next_entity_id)

    def _place_segment(self, info: SegmentInfo,
                       directory: Path) -> SegmentInfo:
        """Put ``info``'s files into ``directory``: the payload copied,
        or built from the combined store when there is none to copy,
        and the manifest written."""
        placed = dataclasses.replace(info, directory=str(directory))
        source = Path(info.columnar_path)
        if not source.is_file():
            self._write_payload(placed)
        elif source.resolve() != Path(placed.columnar_path).resolve():
            shutil.copyfile(source, placed.columnar_path)
        placed.write_manifest()
        return placed

    def statistics(self) -> dict:
        """Return entity/event counts per backend plus reduction stats."""
        stats = {
            "relational_entities": self.relational.count_entities(),
            "relational_events": self.relational.count_events(),
            "graph_nodes": self.graph.num_nodes(),
            "graph_edges": self.graph.num_edges(),
        }
        if self._segmented:
            stats["sealed_segments"] = len(self._segments)
        if self.last_reduction is not None:
            stats["reduction_ratio"] = self.last_reduction.reduction_ratio
            stats["events_removed"] = self.last_reduction.events_removed
        return stats

    def close(self) -> None:
        self.relational.close()
        if self._owns_segment_home and self._segment_home is not None:
            shutil.rmtree(self._segment_home, ignore_errors=True)
            self._owns_segment_home = False

    def __enter__(self) -> "DualStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["DualStore", "IngestStats", "LOAD_STRATEGIES", "STORE_LAYOUTS",
           "DEFAULT_COMPACT_MIN_EVENTS", "SNAPSHOT_FORMAT_VERSION",
           "SNAPSHOT_MANIFEST", "SNAPSHOT_RELATIONAL", "SNAPSHOT_GRAPH",
           "SNAPSHOT_SEGMENTS_DIR"]
