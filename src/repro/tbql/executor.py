"""TBQL query execution engine (exact search mode).

The engine executes a TBQL query against a :class:`~repro.storage.DualStore`
in three stages:

1. compile every pattern into a data query — SQL (and columnar segment
   scans) for event patterns, the path operator of :mod:`.paths` over the
   stored event rows for (variable-length) path patterns;
2. execute the data queries in the order chosen by the scheduler, pushing
   entity-candidate restrictions from previously executed patterns down
   into both (``id IN (...)`` lists in SQL, which also pick a path's
   start subjects and final-hop objects) and hydrating all entity
   attributes of a pattern's result rows with one batched lookup per
   pattern;
3. join the per-pattern match lists on shared entity IDs with a pipelined
   hash join — each pattern's matches are indexed by the entity keys already
   bound by earlier join levels and probed instead of enumerated, replacing
   the seed's worst-case ``O(∏|matches_i|)`` cross-product backtracking with
   near-linear multi-way joins — apply temporal and attribute relationships
   from the ``with`` clause incrementally as soon as both sides are bound,
   and produce the return rows plus the set of matched system events.

Execution leaves behind a structured plan: :attr:`QueryResult.plan` is a list
of :class:`PlanStep` objects, one per scheduled pattern, carrying the pruning
score, backend, candidate counts, pushdown decisions, rows in/out, and
per-stage timings.  ``PlanStep`` subclasses :class:`str` (its value is the
pattern id) so existing consumers that treat the plan as a list of pattern
ids keep working unchanged.

Candidate pushdown passes entity row ids between steps; the key-based
post-filter is kept as a correctness backstop, so pushdown can only ever
narrow a pattern's match list, never widen it.

There is one join, one anti-join and one aggregation here.  The seed's
backtracking join and the naive anti-join and aggregation they are tested
against live outside the package, in ``tests/reference/``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, Callable, Iterable, NamedTuple, Optional

from ..errors import ExecutionError
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.trace import current_span, start_span
from ..storage.columnar import ColumnarSegment
from ..storage.dualstore import DualStore
from ..storage.relational.schema import ENTITY_ATTRIBUTE_COLUMNS
from ..storage.segments import SegmentInfo, prune_segments
from .aggregate import apply_aggregation, rows_from_counts
from .ast import TemporalRelation
from .colscan import (CompiledScan, EventRow, aggregate_columnar,
                      build_pattern_spec, gather_rows,
                      last_filter_table_counts, scan_columnar)
from .compiler_sql import compile_giant_sql, compile_pattern_sql
from .parser import TIME_UNIT_SECONDS, parse_tbql
from .paths import path_matches
from .pruning import prune_by_candidates, prune_by_stats
from .scheduler import (ScheduledStep, naive_schedule, pruning_score,
                        schedule)
from .semantics import ResolvedPattern, ResolvedQuery, resolve_query

#: Largest candidate set pushed down into a data query, per side.  Bigger
#: sets are cheaper to apply as the post-execution key filter than to
#: serialize into an ``IN`` list; the cap also keeps a pattern query with
#: both a subject and an object allowlist (2 x 450 ids plus the pattern's
#: own parameters) under the 999 bound-variable limit of older SQLite
#: builds.
MAX_CANDIDATE_PUSHDOWN = 450

#: The :class:`PlanStep` segment counts of a scan with no sealed segment.
_NO_SEGMENTS = {"segments_scanned": 0, "segments_pruned": 0,
                "segments_pruned_by_stats": 0,
                "segments_pruned_by_candidates": 0}

#: Serialises the first read of lazily built event lists
#: (:meth:`QueryResult.lazy`); re-entrant, as one builder may read
#: another's list.
_LAZY_LOCK = threading.RLock()


class PatternMatch(NamedTuple):
    """One concrete match of a TBQL pattern against the store."""

    subject_key: str
    object_key: str
    subject_attrs: dict
    object_attrs: dict
    operation: Optional[str]
    start_time: float
    end_time: float
    event_ids: tuple = ()
    #: Entity row ids; used for candidate pushdown into subsequent data
    #: queries.
    subject_id: Optional[int] = None
    object_id: Optional[int] = None


#: A hydrated entity: ``(attributes, canonical key, display name)``.
_Entity = tuple[dict, str, str]

#: Per pattern id, the hydrated entities of its matches, keyed by a
#: match's ``subject_id`` / ``object_id``.
_Entities = dict[str, dict[Any, _Entity]]

#: How :meth:`TBQLExecutor._emit` renders a return row, compiled once
#: per query: ``(name, pattern id, on subject, attribute)`` per return
#: item — the pattern ``None`` when no positive pattern binds the
#: entity — and whether rows are ``distinct``.
_Projection = tuple[list[tuple[str, Optional[str], bool, str]], bool]


class PlanStep(str):
    """Structured report for one scheduled execution step.

    Compares and renders as the pattern id (``str`` value) for backward
    compatibility, while exposing the per-step statistics the benchmarks and
    ``cli.py --explain`` consume.
    """

    pattern_id: str
    backend: str
    score: float
    subject_candidates: Optional[int]
    object_candidates: Optional[int]
    pushed_subject: bool
    pushed_object: bool
    rows_in: int
    rows_out: int
    hydration_queries: int
    #: Sealed segments the pattern scan visited / skipped via manifest
    #: pruning; ``None`` for a path step, which reads the adjacency.
    segments_scanned: Optional[int]
    segments_pruned: Optional[int]
    #: Sealed segments skipped via seal-time statistics (zone maps and
    #: distinct sets) after time pruning; ``None`` for a path step.
    segments_pruned_by_stats: Optional[int]
    #: Skipped after stats pruning: the entity block holds no pushed
    #: candidate id of some side; ``None`` for a path step.
    segments_pruned_by_candidates: Optional[int]
    #: True when the step ran as a partial-aggregate pushdown: segment
    #: scans returned per-segment group counts instead of packed rows.
    aggregate_pushdown: bool
    #: True for an ``and not`` absence pattern: scanned after every
    #: positive step and applied as an anti-join, never joined.
    negated: bool
    seconds: dict[str, float]

    def __new__(cls, pattern_id: str, **_stats) -> "PlanStep":
        return super().__new__(cls, pattern_id)

    def __init__(self, pattern_id: str, *, backend: str = "sql",
                 score: float = 0.0,
                 subject_candidates: Optional[int] = None,
                 object_candidates: Optional[int] = None,
                 pushed_subject: bool = False, pushed_object: bool = False,
                 rows_in: int = 0, rows_out: int = 0,
                 hydration_queries: int = 0,
                 segments_scanned: Optional[int] = None,
                 segments_pruned: Optional[int] = None,
                 segments_pruned_by_stats: Optional[int] = None,
                 segments_pruned_by_candidates: Optional[int] = None,
                 aggregate_pushdown: bool = False,
                 negated: bool = False,
                 seconds: Optional[dict[str, float]] = None) -> None:
        super().__init__()
        self.pattern_id = pattern_id
        self.negated = negated
        self.backend = backend
        self.score = score
        self.subject_candidates = subject_candidates
        self.object_candidates = object_candidates
        self.pushed_subject = pushed_subject
        self.pushed_object = pushed_object
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.hydration_queries = hydration_queries
        self.segments_scanned = segments_scanned
        self.segments_pruned = segments_pruned
        self.segments_pruned_by_stats = segments_pruned_by_stats
        self.segments_pruned_by_candidates = segments_pruned_by_candidates
        self.aggregate_pushdown = aggregate_pushdown
        self.seconds = seconds or {}

    def as_dict(self) -> dict[str, Any]:
        """Plain-data view (for tables, JSON dumps, and assertions): every
        field, in declaration order."""
        view = {name: getattr(self, name) for name in PlanStep.__annotations__}
        view["seconds"] = dict(self.seconds)
        return view


@dataclass
class QueryResult:
    """The result of executing a TBQL query."""

    rows: list[dict[str, Any]] = field(default_factory=list)
    matched_events: list[dict[str, Any]] = field(default_factory=list)
    #: Events that participate in at least one *complete* join assignment
    #: (``matched_events`` counts per-pattern matches even when the join
    #: produced nothing — the paper's per-event recall view).  Standing
    #: detections key their firing on this list: a rule has truly matched
    #: only when every pattern joined.
    joined_events: list[dict[str, Any]] = field(default_factory=list)
    #: Structured per-step execution report; each element is a
    #: :class:`PlanStep` whose string value is the pattern id.
    plan: list[PlanStep] = field(default_factory=list)
    per_pattern_matches: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    join_seconds: float = 0.0
    #: True for a ``count()`` query: its answer is ``rows``, and the
    #: service payload lists no events.
    aggregated: bool = False

    @classmethod
    def lazy(cls, builders: dict[str, Callable[["QueryResult"], list]],
             **fields: Any) -> "QueryResult":
        """A result whose fields named in ``builders`` are built, each by
        its builder from the result, on first read: ``joined_events``
        always, ``matched_events`` too on a pushed-down aggregate."""
        result = cls(**fields)
        for name in builders:   # absent until read: reads reach __getattr__
            del result.__dict__[name]
        result.__dict__["_builders"] = dict(builders)
        return result

    def __getattr__(self, name: str) -> Any:
        builder = self.__dict__.get("_builders", {}).get(name)
        if builder is not None:
            with _LAZY_LOCK:
                if name not in self.__dict__:   # not built meanwhile
                    self.__dict__[name] = builder(self)
                    del self.__dict__["_builders"][name]
        try:    # set before its builder is dropped, so never missed
            return self.__dict__[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def matched_event_signatures(self) -> set[tuple[str, str, str]]:
        """(subject name, operation, object name) triples of matched events."""
        return {(event["subject"], event["operation"], event["object"])
                for event in self.matched_events}

    def __len__(self) -> int:
        return len(self.rows)


def _file_identity(attrs: dict) -> Optional[str]:
    """File identity value: ``path`` first, then ``name``.

    ``path`` is the file entity's unique key at ingestion and ``name``
    defaults to the path, so path-first is the canonical precedence.  The
    join key and the display name must agree on it — otherwise one file
    entity splits into two join keys when only one attribute is set.
    """
    return attrs.get("path") or attrs.get("name")


def _canonical_key(attrs: dict) -> str:
    entity_type = attrs.get("type", "")
    if entity_type == "proc":
        return f"proc:{attrs.get('exename')}:{attrs.get('pid')}"
    if entity_type == "file":
        return f"file:{_file_identity(attrs)}"
    return (f"ip:{attrs.get('srcip')}:{attrs.get('srcport')}:"
            f"{attrs.get('dstip')}:{attrs.get('dstport')}:"
            f"{attrs.get('protocol')}")


def _display_name(attrs: dict) -> str:
    entity_type = attrs.get("type", "")
    if entity_type == "proc":
        return str(attrs.get("exename"))
    if entity_type == "file":
        return str(_file_identity(attrs))
    return str(attrs.get("dstip"))


def _entity(attrs: dict) -> _Entity:
    return attrs, _canonical_key(attrs), _display_name(attrs)


def _entity_ids(rows: list[EventRow]) -> set[int]:
    """The subject and object entity ids of event rows."""
    ids = set(map(itemgetter(4), rows))
    ids.update(map(itemgetter(5), rows))
    return ids


def _collect_events(pairs: Iterable[tuple[str, PatternMatch]],
                    entities: _Entities) -> list[dict]:
    """The event dicts of ``(pattern id, match)`` pairs, in order, the
    first of each ``(event ids, pattern id)`` kept; display names come
    from each pattern's hydrated entities."""
    events: list[dict] = []
    seen: set[tuple] = set()
    for pattern_id, match in pairs:
        signature = (match.event_ids, pattern_id)
        if signature in seen:
            continue
        seen.add(signature)
        names = entities[pattern_id]
        events.append({
            "pattern_id": pattern_id,
            "subject": names[match.subject_id][2],
            "operation": match.operation,
            "object": names[match.object_id][2],
            "start_time": match.start_time,
            "end_time": match.end_time,
            "event_ids": list(match.event_ids),
        })
    return events


def _scan_segments(segments: list[SegmentInfo], compiled: CompiledScan,
                   strategy: str, scan: Callable[[ColumnarSegment], Any],
                   count: Callable[[Any], int] = len) -> list[Any]:
    """``scan(reader)`` of every segment (readers via ``compiled``), in
    order, in process; under an active trace each scan is one
    ``segment_scan`` span, its ``rows`` the ``count`` of the result."""
    readers = compiled.readers([segment.columnar_path
                                for segment in segments])
    if current_span() is None:
        return list(map(scan, readers))
    results = []
    for segment, reader in zip(segments, readers):
        with start_span("segment_scan", segment=segment.name,
                        strategy=strategy) as span:
            result = scan(reader)
            hit, built = last_filter_table_counts()
            span.set_attribute("rows", count(result))
            span.set_attribute("filter_tables_hit", hit)
            span.set_attribute("filter_tables_built", built)
        results.append(result)
    return results


@lru_cache(maxsize=1)      # resolved again only for a swapped registry
def _pruning_metrics(registry: MetricsRegistry) -> tuple[tuple, Any]:
    pruned = registry.counter(
        "repro_tbql_segments_pruned_total",
        "Sealed segments skipped before scanning, by reason: "
        "manifest time bounds ('time'), seal-time statistics "
        "('stats') or no pushed candidate id in the segment's "
        "entity block ('candidates').", labels=("reason",))
    fraction = registry.histogram(
        "repro_tbql_segments_pruned_fraction",
        "Fraction of sealed segments pruned (any reason) per "
        "pattern scan.", buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
    reasons = ("time", "stats", "candidates")
    return tuple(pruned.labels(reason) for reason in reasons), fraction


class TBQLExecutor:
    """Executes TBQL queries against the dual storage backends.

    One executor may serve :meth:`execute` calls from many threads
    concurrently (the query service shares a single instance across all
    request handlers): every piece of per-query state — schedule, candidate
    sets, match lists, plan — lives in locals, and the only cross-query
    instance state is the hydrated-entity cache, whose entries are immutable
    once inserted and whose batch updates happen under a lock.  The cache is
    invalidated automatically when the store's ``data_version`` changes
    (i.e. the stored data was replaced by a new load).

    Args:
        store: the store to query.
        use_scheduler: order patterns by pruning score (Section III-F)
            instead of declaration order.
    """

    def __init__(self, store: DualStore, use_scheduler: bool = True
                 ) -> None:
        self.store = store
        self.use_scheduler = use_scheduler
        self._entity_cache: dict[int, _Entity] = {}
        self._cache_lock = threading.Lock()
        self._data_version = getattr(store, "data_version", None)
        self._pruning_lock = threading.Lock()
        self._pruning_counts = {"segments_scanned": 0,
                                "segments_pruned_by_time": 0,
                                "segments_pruned_by_stats": 0,
                                "segments_pruned_by_candidates": 0}

    @property
    def pruning_totals(self) -> dict[str, int]:
        """Cumulative segment-pruning counters (``GET /stats``)."""
        with self._pruning_lock:
            return dict(self._pruning_counts)

    def _record_pruning(self, scanned: int, time_pruned: int,
                        stats_pruned: int, candidates_pruned: int = 0
                        ) -> None:
        reasons = (("time", time_pruned), ("stats", stats_pruned),
                   ("candidates", candidates_pruned))
        with self._pruning_lock:
            self._pruning_counts["segments_scanned"] += scanned
            for reason, count in reasons:
                self._pruning_counts[f"segments_pruned_by_{reason}"] += count
        pruned, fraction = _pruning_metrics(get_registry())
        for counter, (_reason, count) in zip(pruned, reasons):
            counter.inc(count)
        skipped = time_pruned + stats_pruned + candidates_pruned
        if scanned + skipped:
            fraction.observe(skipped / (scanned + skipped))

    def close(self) -> None:
        """Nothing to release; kept because callers still close executors."""

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, query: str | ResolvedQuery,
                now: Optional[float] = None) -> QueryResult:
        """Execute TBQL text (or an already resolved query)."""
        start = time.perf_counter()
        self._sync_entity_cache()
        if isinstance(query, str):
            with start_span("parse"):
                resolved = self._resolve(query, now)
        else:
            resolved = self._resolve(query, now)
        pushed = self._try_aggregate_pushdown(resolved, start)
        if pushed is not None:
            return pushed
        with start_span("plan") as plan_span:
            steps = schedule(resolved) if self.use_scheduler \
                else naive_schedule(resolved)
            plan_span.set_attribute("steps", len(steps))
        matches_by_pattern: dict[str, list[PatternMatch]] = {}
        entities: _Entities = {}
        candidate_keys: dict[str, set[str]] = {}
        candidate_ids: dict[str, set[int]] = {}
        plan: list[PlanStep] = []
        for step in steps:
            with start_span("scan",
                            pattern=step.pattern.pattern_id) as span:
                matches, entities[step.pattern.pattern_id], plan_step = \
                    self._execute_step(step, resolved, candidate_keys,
                                       candidate_ids)
                span.set_attribute("rows", plan_step.rows_out)
            matches_by_pattern[step.pattern.pattern_id] = matches
            self._update_candidates(step.pattern, matches, candidate_keys,
                                    candidate_ids)
            plan.append(plan_step)
        negated_matches = self._scan_negated(resolved, candidate_keys,
                                             candidate_ids, plan)
        join_start = time.perf_counter()
        with start_span("join") as span:
            rows, joined = self._join(resolved, matches_by_pattern,
                                      negated_matches)
            span.set_attribute("rows", len(rows))
        if resolved.aggregation is not None:
            with start_span("aggregate") as span:
                rows = apply_aggregation(rows, resolved.aggregation)
                span.set_attribute("rows", len(rows))
        join_seconds = time.perf_counter() - join_start
        # Matched events are counted per pattern (after candidate-constraint
        # propagation), mirroring the paper's per-event precision/recall in
        # Table VI: a pattern that matched nothing does not erase the events
        # the other patterns found.  Absence-pattern matches are evidence
        # *against* the hunt and are excluded.
        matched_events = _collect_events(
            ((pid, match) for pid, matches in matches_by_pattern.items()
             for match in matches), entities)
        per_pattern = {pid: len(matches) for pid, matches
                       in matches_by_pattern.items()}
        per_pattern.update({pid: len(matches) for pid, matches
                            in negated_matches.items()})
        return QueryResult.lazy(
            {"joined_events": lambda _: _collect_events(joined, entities)},
            rows=rows, matched_events=matched_events, plan=plan,
            per_pattern_matches=per_pattern,
            elapsed_seconds=time.perf_counter() - start,
            join_seconds=join_seconds,
            aggregated=resolved.aggregation is not None)

    def _sync_entity_cache(self) -> None:
        """Drop hydrated entities when the store's data was replaced."""
        version = getattr(self.store, "data_version", None)
        if version != self._data_version:
            with self._cache_lock:
                self._entity_cache.clear()
                self._data_version = version

    def _scan_negated(self, resolved: ResolvedQuery,
                      candidate_keys: dict[str, set[str]],
                      candidate_ids: dict[str, set[int]],
                      plan: list[PlanStep],
                      since_event_id: Optional[int] = None
                      ) -> dict[str, list[PatternMatch]]:
        """Scan the ``and not`` patterns; appends their steps to ``plan``.

        Absence patterns scan after every positive step so they receive
        the accumulated candidate pushdown (sound: the anti-join only
        ever consults matches whose shared-entity keys coincide with a
        positive binding).  They never update the candidate sets.
        """
        negated_matches: dict[str, list[PatternMatch]] = {}
        for pattern in resolved.patterns:
            if not pattern.negated:
                continue
            step = ScheduledStep(pattern=pattern,
                                 score=pruning_score(pattern),
                                 bound_entities=frozenset(candidate_keys))
            with start_span("scan", pattern=pattern.pattern_id,
                            negated=True) as span:
                matches, _, plan_step = self._execute_step(
                    step, resolved, candidate_keys, candidate_ids,
                    negated=True, since_event_id=since_event_id)
                span.set_attribute("rows", plan_step.rows_out)
            negated_matches[pattern.pattern_id] = matches
            plan.append(plan_step)
        return negated_matches

    def matches_since(self, resolved: ResolvedQuery, min_event_id: int
                      ) -> tuple[bool, dict[str, int]]:
        """Can a complete match hold an event with id >= ``min_event_id``?

        The standing-rule delta gate, by semi-naive evaluation: such a
        match binds some positive pattern to a delta event, so each
        positive pattern in turn is scanned over the delta only, and
        only when that is non-empty do the other steps run from it in
        the scheduler's order (candidate pushdown as in :meth:`execute`,
        absence patterns last) into the ordinary join; the first
        non-empty join answers yes.  Every scan runs on the combined
        store (:meth:`_scan_rows` with no sealed segments) — the history
        side of a term is an index lookup from the pushed-down ids,
        never a scatter over sealed segments.  Exact,
        except that a positive path pattern (the path operator takes no
        id floor) is a conservative yes.  Also returns the delta rows per
        pattern.
        """
        self._sync_entity_cache()
        positives = [pattern for pattern in resolved.patterns
                     if not pattern.negated]
        delta_rows: dict[str, int] = {}
        if any(pattern.is_path for pattern in positives):
            return True, delta_rows
        for pinned in positives:
            matches_by_pattern: dict[str, list[PatternMatch]] = {}
            candidate_keys: dict[str, set[str]] = {}
            candidate_ids: dict[str, set[int]] = {}
            for step in schedule(resolved, first=pinned):
                on_delta = step.pattern is pinned
                matches, _, _ = self._execute_step(
                    step, resolved, candidate_keys, candidate_ids,
                    since_event_id=min_event_id if on_delta else 0)
                if on_delta:
                    delta_rows[pinned.pattern_id] = len(matches)
                if not matches:
                    break    # an empty leg: this term's join is empty
                matches_by_pattern[step.pattern.pattern_id] = matches
                self._update_candidates(step.pattern, matches,
                                        candidate_keys, candidate_ids)
            else:
                negated = self._scan_negated(resolved, candidate_keys,
                                             candidate_ids, [], 0)
                if self._join(resolved, matches_by_pattern, negated)[1]:
                    return True, delta_rows
        return False, delta_rows

    def execute_giant_sql(self, query: str | ResolvedQuery,
                          now: Optional[float] = None) -> list[dict]:
        """Run the single-statement SQL baseline (RQ4 comparison)."""
        resolved = self._resolve(query, now)
        compiled = compile_giant_sql(resolved)
        return self.store.execute_sql(compiled.sql, compiled.params)

    # ------------------------------------------------------------------
    # resolution / compilation helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(query: str | ResolvedQuery, now: Optional[float]
                 ) -> ResolvedQuery:
        if isinstance(query, ResolvedQuery):
            return query
        return resolve_query(parse_tbql(query), now=now)

    # ------------------------------------------------------------------
    # per-pattern execution
    # ------------------------------------------------------------------
    @staticmethod
    def _pushdown_ids(entity_id: str, candidate_ids: dict[str, set[int]]
                      ) -> Optional[list[int]]:
        """Candidate ids to inject for ``entity_id``, or None to skip.

        Empty sets are not pushed down (``IN ()`` is not valid SQL); the
        caller skips the data query entirely in that case because the key
        post-filter would reject every row anyway.
        """
        ids = candidate_ids.get(entity_id)
        if not ids or len(ids) > MAX_CANDIDATE_PUSHDOWN:
            return None
        return sorted(ids)

    def _execute_step(self, step: ScheduledStep, resolved: ResolvedQuery,
                      candidate_keys: dict[str, set[str]],
                      candidate_ids: dict[str, set[int]],
                      negated: bool = False,
                      since_event_id: Optional[int] = None
                      ) -> tuple[list[PatternMatch], dict[int, _Entity],
                                 PlanStep]:
        """One pattern's matches, after the candidate key filter, with
        the hydrated entities they reference and the step's report."""
        pattern = step.pattern
        seconds: dict[str, float] = {}
        pushable = step.candidate_entities
        subject_ids = self._pushdown_ids(pattern.subject.entity_id,
                                         candidate_ids) \
            if pattern.subject.entity_id in pushable else None
        object_ids = self._pushdown_ids(pattern.obj.entity_id,
                                        candidate_ids) \
            if pattern.obj.entity_id in pushable else None
        subject_known = candidate_ids.get(pattern.subject.entity_id)
        object_known = candidate_ids.get(pattern.obj.entity_id)
        subject_allowed = candidate_keys.get(pattern.subject.entity_id)
        object_allowed = candidate_keys.get(pattern.obj.entity_id)
        # An empty candidate set means an earlier pattern already proved no
        # entity can match here; the data query cannot return anything the
        # post-filter would keep, so skip the backend round-trip.
        dead = (subject_allowed == set() or object_allowed == set())
        start = time.perf_counter()
        hydration_queries = 0
        segments: dict[str, Any] = {}
        entities: dict[int, _Entity] = {}
        if dead:
            matches: list[PatternMatch] = []
        elif pattern.is_path:
            matches, entities, hydration_queries = \
                self._execute_path_pattern(pattern, resolved, subject_ids,
                                           object_ids)
        else:
            matches, entities, hydration_queries, segments = \
                self._execute_sql_pattern(pattern, resolved, subject_ids,
                                          object_ids, since_event_id)
        seconds["execute"] = time.perf_counter() - start
        rows_in = len(matches)
        # Enforce candidate restrictions produced by earlier patterns: the
        # data queries receive id allowlists when the sets are small enough,
        # and this key-based filter is the backstop for the rest.
        start = time.perf_counter()
        filtered = [match for match in matches
                    if (subject_allowed is None or
                        match.subject_key in subject_allowed) and
                    (object_allowed is None or
                     match.object_key in object_allowed)]
        seconds["filter"] = time.perf_counter() - start
        plan_step = PlanStep(
            pattern.pattern_id,
            backend="path" if pattern.is_path else "sql",
            score=step.score,
            subject_candidates=(len(subject_known)
                                if subject_known is not None else None),
            object_candidates=(len(object_known)
                               if object_known is not None else None),
            pushed_subject=subject_ids is not None,
            pushed_object=object_ids is not None,
            rows_in=rows_in, rows_out=len(filtered),
            hydration_queries=hydration_queries,
            **segments,
            negated=negated,
            seconds=seconds)
        return filtered, entities, plan_step

    def _tail_rows(self, pattern: ResolvedPattern, resolved: ResolvedQuery,
                   floor: int, subject_ids: Optional[list[int]] = None,
                   object_ids: Optional[list[int]] = None
                   ) -> list[EventRow]:
        """The pattern's events with ids from ``floor`` up, read from the
        combined store in ``(start_time, event_id)`` order.  The first
        event id renders no id clause: the statement then reads the whole
        store."""
        compiled = compile_pattern_sql(
            pattern, resolved, subject_candidates=subject_ids,
            object_candidates=object_ids,
            min_event_id=floor if floor > 1 else None)
        return self.store.relational.select_tuples(compiled.sql,
                                                   compiled.params)

    def _prune(self, sealed: tuple[SegmentInfo, ...], scan: CompiledScan
               ) -> tuple[list[SegmentInfo], dict[str, int]]:
        """The sealed segments ``scan`` must visit, and the
        :class:`PlanStep` segment counts (also recorded as metrics).

        The planner prunes sealed segments whose time bounds cannot
        intersect the pattern's resolved window (same predicate the SQL
        renders, so pruning is sound), then consults seal-time segment
        statistics to drop segments no stored row could match (sound by
        the :mod:`~repro.tbql.pruning` contract; stats-less segments
        always survive), then those whose entity block holds no pushed
        candidate id of some side.  With no sealed segment there is
        nothing to prune, and nothing is recorded.
        """
        if not sealed:
            return [], _NO_SEGMENTS
        targets = prune_segments(sealed, scan.spec.window)
        time_pruned = len(sealed) - len(targets)
        targets, stats_pruned = prune_by_stats(targets, scan)
        targets, candidates_pruned = prune_by_candidates(targets, scan)
        self._record_pruning(len(targets), time_pruned, stats_pruned,
                             candidates_pruned)
        return targets, {"segments_scanned": len(targets),
                         "segments_pruned": time_pruned,
                         "segments_pruned_by_stats": stats_pruned,
                         "segments_pruned_by_candidates": candidates_pruned}

    def _scan_rows(self, pattern: ResolvedPattern, resolved: ResolvedQuery,
                   subject_ids: Optional[list[int]],
                   object_ids: Optional[list[int]],
                   sealed: tuple[SegmentInfo, ...], floor: Optional[int]
                   ) -> tuple[list[EventRow], dict[str, int]]:
        """One pattern scan: the ``sealed`` segments that survive
        :meth:`_prune`, one after the other, plus the combined store from
        event id ``floor`` (:meth:`_tail_rows`; no SQL leg when ``floor``
        is None).  One sort of the :data:`~repro.tbql.colscan.EventRow`
        tuples merges everything into the ``(start_time, event_id)``
        order one statement over the whole store would have produced.
        Returns the rows and the :class:`PlanStep` segment counts.
        """
        if not sealed:      # nothing to prune or merge: the tail leg alone
            rows = [] if floor is None else self._tail_rows(
                pattern, resolved, floor, subject_ids, object_ids)
            return rows, _NO_SEGMENTS
        scan = CompiledScan(build_pattern_spec(
            pattern, resolved, subject_candidates=subject_ids,
            object_candidates=object_ids),
            [segment.columnar_path for segment in sealed])
        targets, segments = self._prune(sealed, scan)
        with start_span("scatter", segments=len(targets),
                        pruned=len(sealed) - len(targets)) as span:
            rows: list[EventRow] = []
            for scanned in _scan_segments(targets, scan, "columnar",
                                          partial(scan_columnar, scan=scan)):
                rows += scanned
            scan.count_filter_tables()
            if floor is not None:
                rows += self._tail_rows(pattern, resolved, floor,
                                        subject_ids, object_ids)
            rows.sort()
            span.set_attribute("rows", len(rows))
        return rows, segments

    def _execute_sql_pattern(self, pattern: ResolvedPattern,
                             resolved: ResolvedQuery,
                             subject_ids: Optional[list[int]] = None,
                             object_ids: Optional[list[int]] = None,
                             since_event_id: Optional[int] = None
                             ) -> tuple[list[PatternMatch],
                                        dict[int, _Entity], int,
                                        dict[str, Any]]:
        if since_event_id is None:
            view = self.store.segment_view()
            sealed = view.sealed
            floor = view.active_first_event_id if view.active_events \
                else None
        else:   # the delta gate: the combined store from that id (0 = all)
            sealed, floor = (), max(since_event_id, 1)
        rows, segments = self._scan_rows(pattern, resolved, subject_ids,
                                         object_ids, sealed, floor)
        # Hydrate every subject/object entity of this pattern in one batched
        # query instead of one lookup per result row (the seed's N+1).
        needed = _entity_ids(rows)
        with start_span("hydrate", entities=len(needed)) as span:
            entities, hydration_queries = self._hydrate_entities(needed)
            span.set_attribute("queries", hydration_queries)
        matches = []
        for start, event_id, operation, end, subject_id, object_id in rows:
            subject_attrs, subject_key, _ = entities[subject_id]
            object_attrs, object_key, _ = entities[object_id]
            matches.append(PatternMatch(
                subject_key, object_key, subject_attrs, object_attrs,
                operation, start, end, (event_id,), subject_id, object_id))
        return matches, entities, hydration_queries, segments

    def _execute_path_pattern(self, pattern: ResolvedPattern,
                              resolved: ResolvedQuery,
                              subject_ids: Optional[list[int]] = None,
                              object_ids: Optional[list[int]] = None
                              ) -> tuple[list[PatternMatch],
                                         dict[int, _Entity], int]:
        paths = path_matches(self.store, pattern, resolved, subject_ids,
                             object_ids)
        needed = {path.subject_id for path in paths}
        needed.update(path.object_id for path in paths)
        with start_span("hydrate", entities=len(needed)) as span:
            entities, hydration_queries = self._hydrate_entities(needed)
            span.set_attribute("queries", hydration_queries)
        matches = []
        for subject_id, event_ids, object_id, operation, start, end in paths:
            subject_attrs, subject_key, _ = entities[subject_id]
            object_attrs, object_key, _ = entities[object_id]
            matches.append(PatternMatch(
                subject_key, object_key, subject_attrs, object_attrs,
                operation, start, end, event_ids, subject_id, object_id))
        return matches, entities, hydration_queries

    def _try_aggregate_pushdown(self, resolved: ResolvedQuery,
                                started: float) -> Optional[QueryResult]:
        """Partial-aggregate pushdown for single-pattern count queries.

        When an aggregated query is one positive event pattern with no
        ``with``-clause relations, per-group counting distributes over
        segments: each segment scan counts its segment's matches per
        group key and the partial counts are merged before rendering.
        A scan then returns one ``(group key, count)`` pair per group
        and keeps its row selection (8 bytes a match) ungathered until
        ``matched_events`` / ``joined_events`` is first read
        (:meth:`QueryResult.lazy`); only then are the events gathered,
        sorted and given display names, hydrated by entity id through
        the same batched cache the ordinary path uses.

        Byte-identical to the ordinary scan-join-aggregate path by
        construction: per-segment row selection is shared with the
        columnar scan, group keys mirror ``_group_key`` exactly (for
        aggregated queries the resolver makes ``return_items`` equal
        ``group by``, so the emitted row values *are* the entity
        attributes the scans read), and
        :func:`~repro.tbql.aggregate.rows_from_counts` renders merged
        counts under a total order independent of accumulation order.
        Returns ``None`` — the ordinary path runs — whenever any
        precondition fails; the pushdown never changes results, only the
        work distribution.
        """
        aggregation = resolved.aggregation
        if aggregation is None or len(resolved.patterns) != 1:
            return None
        pattern = resolved.patterns[0]
        if pattern.negated or pattern.is_path:
            return None
        if resolved.temporal_relations or resolved.attribute_relations:
            return None
        view = self.store.segment_view()
        # Map every group-by pair onto (pattern side, entity column).
        # Subject first: on a self-loop pattern both sides name the same
        # entity and _relation_value resolves subject-first.
        group_sides: list[tuple[bool, str]] = []
        group_columns: list[tuple[bool, str]] = []
        for entity_id, attribute in aggregation.group_by:
            column = ENTITY_ATTRIBUTE_COLUMNS.get(attribute)
            if column is None:
                return None
            if entity_id == pattern.subject.entity_id:
                on_subject = True
            elif entity_id == pattern.obj.entity_id:
                on_subject = False
            else:
                return None
            group_sides.append((on_subject, attribute))
            group_columns.append((on_subject, column))
        scan = CompiledScan(build_pattern_spec(pattern, resolved),
                            [segment.columnar_path
                             for segment in view.sealed])
        survivors, segments = self._prune(view.sealed, scan)
        hydration_queries = 0
        scan_start = time.perf_counter()
        counts: dict[tuple, int] = {}
        tail: list[EventRow] = []
        columns = tuple(group_columns)
        with start_span("scatter", segments=len(survivors),
                        pruned=len(view.sealed) - len(survivors)) as span:
            partials = _scan_segments(
                survivors, scan, "aggregate", lambda reader: (
                    reader, *aggregate_columnar(reader, scan, columns)),
                lambda partial: len(partial[1]))
            scan.count_filter_tables()
            for _reader, _selected, partial_counts in partials:
                for key, count in partial_counts.items():
                    counts[key] = counts.get(key, 0) + count
            if view.active_events:
                tail = self._tail_rows(pattern, resolved,
                                       view.active_first_event_id)
                entities, hydration_queries = self._hydrate_entities(
                    _entity_ids(tail))
                for row in tail:
                    subject_attrs = entities[row[4]][0]
                    object_attrs = entities[row[5]][0]
                    key = tuple(
                        (subject_attrs if on_subject else object_attrs
                         ).get(attribute)
                        for on_subject, attribute in group_sides)
                    counts[key] = counts.get(key, 0) + 1
            matched = sum(len(selected) for _reader, selected, _counts
                          in partials) + len(tail)
            span.set_attribute("rows", matched)
        seconds = {"execute": time.perf_counter() - scan_start}
        join_start = time.perf_counter()
        with start_span("aggregate") as span:
            out_rows = rows_from_counts(counts, aggregation)
            span.set_attribute("rows", len(out_rows))
        join_seconds = time.perf_counter() - join_start

        def matched_events(_result: QueryResult) -> list[dict[str, Any]]:
            # In the global order one statement over the whole store
            # produces, names hydrated by entity id (entity rows never
            # change, so an append since the query does not matter).
            rows = [row for reader, selected, _counts in partials
                    for row in gather_rows(reader, selected)] + tail
            rows.sort()
            entities, _ = self._hydrate_entities(_entity_ids(rows))
            return [{
                "pattern_id": pattern.pattern_id,
                "subject": entities[subject_id][2],
                "operation": operation,
                "object": entities[object_id][2],
                "start_time": start,
                "end_time": end,
                "event_ids": [event_id],
            } for start, event_id, operation, end, subject_id, object_id
                in rows]
        plan_step = PlanStep(
            pattern.pattern_id, backend="sql",
            score=pruning_score(pattern),
            rows_in=matched, rows_out=matched,
            hydration_queries=hydration_queries, **segments,
            aggregate_pushdown=True,
            seconds=seconds)
        # Every single-pattern match is a complete join assignment, so
        # the joined list equals the matched list.
        return QueryResult.lazy(
            {"matched_events": matched_events,
             "joined_events": lambda result: [
                 dict(event) for event in result.matched_events]},
            rows=out_rows, plan=[plan_step],
            per_pattern_matches={pattern.pattern_id: matched},
            elapsed_seconds=time.perf_counter() - started,
            join_seconds=join_seconds, aggregated=True)

    def _hydrate_entities(self, entity_ids: set[int]
                          ) -> tuple[dict[int, _Entity], int]:
        """The entities of ``entity_ids`` and the query count.

        Uncached entities are batch-loaded and cached with their
        canonical key and display name, computed once per entity.  The
        count is the number of SQL statements the store actually issued:
        0 when everything is cached, 1 for one batched ``IN`` list, more
        only when the store chunks an oversized batch.  The returned
        mapping is the caller's own, so a concurrent clear of the shared
        cache (a ``data_version`` change) cannot take an entry from it.
        """
        cache = self._entity_cache
        entities: dict[int, _Entity] = {}
        missing = []
        for entity_id in entity_ids:
            entity = cache.get(entity_id)
            if entity is None:
                missing.append(entity_id)
            else:
                entities[entity_id] = entity
        if not missing:
            return entities, 0
        rows_by_id, queries = self.store.relational.entity_by_ids(missing)
        hydrated: dict[int, _Entity] = {}
        for entity_id in missing:
            row = rows_by_id.get(entity_id)
            if row is None:
                raise ExecutionError(f"dangling entity id {entity_id} in "
                                     "events table")
            attrs = dict(row)
            attrs["group"] = attrs.pop("grp", None)
            hydrated[entity_id] = _entity(attrs)
        # One locked batch update; concurrent hydrations of the same ids
        # write identical values, so last-writer-wins is safe.
        with self._cache_lock:
            cache.update(hydrated)
        entities.update(hydrated)
        return entities, queries

    @staticmethod
    def _update_candidates(pattern: ResolvedPattern,
                           matches: list[PatternMatch],
                           candidate_keys: dict[str, set[str]],
                           candidate_ids: dict[str, set[int]]) -> None:
        for entity_id, keys, ids in (
                (pattern.subject.entity_id,
                 {match.subject_key for match in matches},
                 {match.subject_id for match in matches
                  if match.subject_id is not None}),
                (pattern.obj.entity_id,
                 {match.object_key for match in matches},
                 {match.object_id for match in matches
                  if match.object_id is not None})):
            if entity_id in candidate_keys:
                candidate_keys[entity_id] &= keys
            else:
                candidate_keys[entity_id] = set(keys)
            if entity_id in candidate_ids:
                candidate_ids[entity_id] &= ids
            else:
                candidate_ids[entity_id] = set(ids)

    # ------------------------------------------------------------------
    # join
    # ------------------------------------------------------------------
    def _build_negation_checker(
            self, resolved: ResolvedQuery,
            negated_matches: dict[str, list[PatternMatch]]):
        """Compile the anti-join test for complete positive assignments.

        For each ``and not`` pattern the test asks: does any of its
        matches agree with the assignment's entity binding on every
        *shared* entity (an entity also bound by a positive pattern)?
        If yes, the assignment is vetoed.  Entities private to the
        absence pattern are existential — any value witnesses absence
        violation — and an absence pattern sharing no entity at all
        vetoes every assignment as soon as it matches anything.
        """
        positive_entities = {
            entity_id for pattern in resolved.patterns if not pattern.negated
            for entity_id in (pattern.subject.entity_id,
                              pattern.obj.entity_id)}
        specs = []
        for pattern in resolved.patterns:
            if not pattern.negated:
                continue
            matches = negated_matches.get(pattern.pattern_id, [])
            shared: list[tuple[bool, str]] = []
            # Both sides are kept even when they name the same entity id:
            # a self-loop binding then requires subject and object keys to
            # agree with each other, not just one of them.
            if pattern.subject.entity_id in positive_entities:
                shared.append((True, pattern.subject.entity_id))
            if pattern.obj.entity_id in positive_entities:
                shared.append((False, pattern.obj.entity_id))
            index = {tuple(match.subject_key if is_subject
                           else match.object_key
                           for is_subject, _ in shared)
                     for match in matches}
            specs.append((shared, index, bool(matches)))

        if not specs:
            return None

        def allows(entity_binding: dict[str, str]) -> bool:
            for shared, index, has_matches in specs:
                if not shared:
                    if has_matches:
                        return False
                    continue
                if tuple(entity_binding[entity_id]
                         for _, entity_id in shared) in index:
                    return False
            return True

        return allows

    @staticmethod
    def _join_order(resolved: ResolvedQuery,
                    matches_by_pattern: dict[str, list[PatternMatch]]
                    ) -> list[str]:
        """Join in ascending match-list size for efficiency."""
        order = [pattern.pattern_id for pattern in resolved.patterns
                 if not pattern.negated]
        order.sort(key=lambda pid: len(matches_by_pattern[pid]))
        return order

    def _join(self, resolved: ResolvedQuery,
              matches_by_pattern: dict[str, list[PatternMatch]],
              negated_matches: Optional[dict[str, list[PatternMatch]]] = None
              ) -> tuple[list[dict], list[tuple[str, PatternMatch]]]:
        """Pipelined multi-way hash join over the per-pattern match lists.

        Each join level indexes its pattern's matches by the subject/object
        entity keys already bound at that level and probes the index with the
        partial binding, so compatible matches are found in O(1) instead of
        scanning the whole list.  ``with``-clause relations are applied
        incrementally at the earliest level where their evaluation is
        guaranteed to equal evaluation on the complete assignment, so doomed
        partial joins are discarded as soon as possible.  Complete
        assignments then pass the ``and not`` anti-join.  Enumeration order
        (and therefore row and joined-event order) is the seed
        backtracking join's.  Returns the rows and the ``(pattern id,
        match)`` pairs of the complete assignments, each match once.
        """
        negation_allows = self._build_negation_checker(resolved,
                                                       negated_matches or {})
        projection = self._projection(resolved)
        rows: list[dict] = []
        seen_rows: set[tuple] = set()
        joined: list[tuple[str, PatternMatch]] = []
        seen_matches: set[int] = set()
        order = self._join_order(resolved, matches_by_pattern)
        position_of = {pid: index for index, pid in enumerate(order)}

        # A relation is checked at the first level where every pattern its
        # evaluation reads is assigned.  Temporal relations read their two
        # pattern ids.  Attribute relations read, per side, the
        # first-declared pattern binding the side's entity (that is the one
        # _relation_value resolves against on a complete assignment); a side
        # whose entity no pattern binds makes the relation vacuously true.
        checks: list[list[tuple[str, Any]]] = [[] for _ in order]
        for relation in resolved.temporal_relations:
            trigger = max(position_of[relation.left],
                          position_of[relation.right])
            checks[trigger].append(("temporal", relation))
        for relation in resolved.attribute_relations:
            binder_positions = []
            for side in (relation.left, relation.right):
                entity_id = side.split(".", 1)[0]
                binder = next(
                    (pattern for pattern in resolved.patterns
                     if entity_id in (pattern.subject.entity_id,
                                      pattern.obj.entity_id)), None)
                if binder is None:
                    break
                binder_positions.append(position_of[binder.pattern_id])
            else:
                checks[max(binder_positions)].append(("attribute", relation))

        # Per-level probe structure: which of the pattern's entities are
        # already bound, and its matches indexed by the bound keys.
        levels: list[tuple[ResolvedPattern, bool, bool,
                           dict[tuple, list[PatternMatch]]]] = []
        bound: set[str] = set()
        for pattern_id in order:
            pattern = resolved.pattern_by_id(pattern_id)
            check_subject = pattern.subject.entity_id in bound
            check_object = pattern.obj.entity_id in bound
            index: dict[tuple, list[PatternMatch]] = {}
            for match in matches_by_pattern[pattern_id]:
                key = (match.subject_key if check_subject else None,
                       match.object_key if check_object else None)
                index.setdefault(key, []).append(match)
            levels.append((pattern, check_subject, check_object, index))
            bound.update((pattern.subject.entity_id, pattern.obj.entity_id))

        def extend(position: int, entity_binding: dict[str, str],
                   assignment: dict[str, PatternMatch]) -> None:
            if position == len(order):
                if negation_allows is not None and \
                        not negation_allows(entity_binding):
                    return
                self._emit(projection, assignment, rows, seen_rows, joined,
                           seen_matches)
                return
            pattern, check_subject, check_object, index = levels[position]
            probe = (entity_binding[pattern.subject.entity_id]
                     if check_subject else None,
                     entity_binding[pattern.obj.entity_id]
                     if check_object else None)
            for match in index.get(probe, ()):
                new_binding = dict(entity_binding)
                new_binding[pattern.subject.entity_id] = match.subject_key
                new_binding[pattern.obj.entity_id] = match.object_key
                new_assignment = dict(assignment)
                new_assignment[pattern.pattern_id] = match
                satisfied = True
                for kind, relation in checks[position]:
                    if kind == "temporal":
                        if not self._temporal_holds(relation, new_assignment):
                            satisfied = False
                            break
                    elif not self._attribute_holds(relation, resolved,
                                                   new_assignment):
                        satisfied = False
                        break
                if satisfied:
                    extend(position + 1, new_binding, new_assignment)

        extend(0, {}, {})
        return rows, joined

    @staticmethod
    def _temporal_holds(relation: TemporalRelation,
                        assignment: dict[str, PatternMatch]) -> bool:
        left = assignment.get(relation.left)
        right = assignment.get(relation.right)
        if left is None or right is None:
            return True
        scale = TIME_UNIT_SECONDS.get(relation.unit or "sec", 1.0)
        # "then" (the resolved sequence operator) shares the evaluation of
        # a gap-bounded "before": strict ordering plus an optional
        # [min-max] bound on the gap between left's end and right's start.
        if relation.kind in ("before", "then"):
            if left.end_time > right.start_time:
                return False
            gap = right.start_time - left.end_time
            if relation.min_gap and gap < relation.min_gap * scale:
                return False
            return relation.max_gap is None or \
                gap <= relation.max_gap * scale
        if relation.kind == "after":
            return TBQLExecutor._temporal_holds(
                TemporalRelation(left=relation.right, kind="before",
                                 right=relation.left,
                                 min_gap=relation.min_gap,
                                 max_gap=relation.max_gap,
                                 unit=relation.unit), assignment)
        gap = abs(left.start_time - right.start_time)
        return (relation.min_gap or 0.0) * scale <= gap <= \
            (relation.max_gap or 0.0) * scale

    def _attribute_holds(self, relation, resolved: ResolvedQuery,
                         assignment: dict[str, PatternMatch]) -> bool:
        left_value = self._relation_value(relation.left, resolved, assignment)
        right_value = self._relation_value(relation.right, resolved,
                                           assignment)
        if left_value is None or right_value is None:
            return True
        operator = relation.operator
        if operator == "=":
            return left_value == right_value
        if operator == "!=":
            return left_value != right_value
        try:
            if operator == "<":
                return left_value < right_value
            if operator == "<=":
                return left_value <= right_value
            if operator == ">":
                return left_value > right_value
            if operator == ">=":
                return left_value >= right_value
        except TypeError:
            return False
        return False

    def _relation_value(self, dotted: str, resolved: ResolvedQuery,
                        assignment: dict[str, PatternMatch]):
        entity_id, attribute = dotted.split(".", 1)
        for pattern in resolved.patterns:
            match = assignment.get(pattern.pattern_id)
            if match is None:
                continue
            if pattern.subject.entity_id == entity_id:
                return match.subject_attrs.get(attribute)
            if pattern.obj.entity_id == entity_id:
                return match.object_attrs.get(attribute)
        return None

    @staticmethod
    def _projection(resolved: ResolvedQuery) -> _Projection:
        """How :meth:`_emit` renders rows: each return item reads the
        first-declared positive pattern binding its entity, subject
        side first — what :meth:`_relation_value` resolves on a complete
        assignment."""
        items: dict[str, tuple[str, Optional[str], bool, str]] = {}
        for entity_id, attribute in resolved.return_items:
            name = f"{entity_id}.{attribute}"
            pattern_id, on_subject = next(
                ((pattern.pattern_id, pattern.subject.entity_id == entity_id)
                 for pattern in resolved.patterns if not pattern.negated
                 and entity_id in (pattern.subject.entity_id,
                                   pattern.obj.entity_id)), (None, True))
            items.setdefault(name, (name, pattern_id, on_subject, attribute))
        return list(items.values()), resolved.distinct

    @staticmethod
    def _emit(projection: _Projection, assignment: dict[str, PatternMatch],
              rows: list[dict], seen_rows: set,
              joined: list[tuple[str, PatternMatch]],
              seen_matches: set[int]) -> None:
        items, distinct = projection
        row: dict[str, Any] = {}
        for name, pattern_id, on_subject, attribute in items:
            if pattern_id is None:      # no positive pattern binds it
                row[name] = None
                continue
            match = assignment[pattern_id]
            row[name] = (match.subject_attrs if on_subject
                         else match.object_attrs).get(attribute)
        if not distinct:
            rows.append(row)
        else:
            # Every row of the query has the same names in one order.
            key = tuple(map(str, row.values()))
            if key not in seen_rows:
                seen_rows.add(key)
                rows.append(row)
        for pattern_id, match in assignment.items():
            if id(match) not in seen_matches:
                seen_matches.add(id(match))
                joined.append((pattern_id, match))


__all__ = ["PatternMatch", "PlanStep", "QueryResult", "TBQLExecutor",
           "MAX_CANDIDATE_PUSHDOWN"]
