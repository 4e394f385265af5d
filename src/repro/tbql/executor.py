"""TBQL query execution engine (exact search mode).

The engine executes a TBQL query against a :class:`~repro.storage.DualStore`
in three stages:

1. compile every pattern into a data query — SQL for event patterns,
   Cypher for (variable-length) path patterns;
2. execute the data queries in the order chosen by the scheduler, pushing
   entity-candidate restrictions from previously executed patterns down into
   both backends (``id IN (...)`` lists in SQL, ``var.id IN [...]``
   allowlists in Cypher) and hydrating all entity attributes of a pattern's
   result rows with one batched lookup per pattern;
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

Candidate pushdown relies on the dual-store invariant that relational entity
ids and graph node ids coincide (both backends register entities from the
same reduced event stream in the same order); the key-based post-filter is
kept as a correctness backstop, so pushdown can only ever narrow a pattern's
match list, never widen it.

The seed's backtracking join is retained as a reference implementation
(``join_strategy="backtracking"``) for the equivalence test corpus.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ExecutionError
from ..obs.metrics import get_registry
from ..obs.trace import start_span
from ..storage.dualstore import DualStore
from ..storage.relational.schema import ENTITY_ATTRIBUTE_COLUMNS
from ..storage.segments import SegmentView, prune_segments
from .aggregate import (AGGREGATION_STRATEGIES, apply_aggregation,
                        rows_from_counts)
from .ast import TemporalRelation
from .colscan import (AggregateTask, ColumnarTask, build_pattern_spec,
                      unpack_aggregate)
from .compiler_cypher import compile_giant_cypher, compile_pattern_cypher
from .compiler_sql import compile_giant_sql, compile_pattern_sql
from .parser import TIME_UNIT_SECONDS, parse_tbql
from .pruning import prune_by_stats
from .scatter import ScanTask, SegmentScanner
from .scheduler import (ScheduledStep, naive_schedule, pruning_score,
                        schedule)
from .semantics import (ResolvedPattern, ResolvedQuery, effective_window,
                        resolve_query)

#: Largest candidate set pushed down into a data query, per side.  Bigger
#: sets are cheaper to apply as the post-execution key filter than to
#: serialize into an ``IN`` list; the cap also keeps a pattern query with
#: both a subject and an object allowlist (2 x 450 ids plus the pattern's
#: own parameters) under the 999 bound-variable limit of older SQLite
#: builds.
MAX_CANDIDATE_PUSHDOWN = 450

#: Valid ``negation_strategy`` arguments: how the anti-join tests a
#: complete positive assignment against an ``and not`` pattern's match
#: list.  ``"hash"`` (default) probes a set of shared-entity key tuples;
#: ``"scan"`` is the naive reference — a linear scan of the match list
#: per assignment — retained for the differential equivalence corpus.
NEGATION_STRATEGIES = ("hash", "scan")


@dataclass(frozen=True)
class PatternMatch:
    """One concrete match of a TBQL pattern against the store."""

    subject_key: str
    object_key: str
    subject_attrs: dict
    object_attrs: dict
    operation: Optional[str]
    start_time: float
    end_time: float
    event_ids: tuple = ()
    #: Backend entity ids (relational row id == graph node id); used for
    #: candidate pushdown into subsequent data queries.
    subject_id: Optional[int] = None
    object_id: Optional[int] = None


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
    #: pruning; ``None`` when the store has no segment view (monolithic).
    segments_scanned: Optional[int]
    segments_pruned: Optional[int]
    #: Sealed segments skipped via seal-time statistics (zone maps and
    #: distinct sets) after time pruning; ``None`` on the monolithic path.
    segments_pruned_by_stats: Optional[int]
    #: True when the step ran as a partial-aggregate pushdown: workers
    #: returned per-segment group counts instead of packed row arrays.
    aggregate_pushdown: bool
    #: True when the scatter pool could not be created and the segment
    #: scans ran serially in-process; ``None`` on the monolithic path.
    pool_fallback: Optional[bool]
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
                 aggregate_pushdown: bool = False,
                 pool_fallback: Optional[bool] = None,
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
        self.aggregate_pushdown = aggregate_pushdown
        self.pool_fallback = pool_fallback
        self.seconds = seconds or {}

    def as_dict(self) -> dict[str, Any]:
        """Plain-data view (for tables, JSON dumps, and assertions)."""
        return {
            "pattern_id": self.pattern_id,
            "backend": self.backend,
            "score": self.score,
            "subject_candidates": self.subject_candidates,
            "object_candidates": self.object_candidates,
            "pushed_subject": self.pushed_subject,
            "pushed_object": self.pushed_object,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "hydration_queries": self.hydration_queries,
            "segments_scanned": self.segments_scanned,
            "segments_pruned": self.segments_pruned,
            "segments_pruned_by_stats": self.segments_pruned_by_stats,
            "aggregate_pushdown": self.aggregate_pushdown,
            "pool_fallback": self.pool_fallback,
            "negated": self.negated,
            "seconds": dict(self.seconds),
        }


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
        store: the dual relational/graph store to query.
        use_scheduler: order patterns by pruning score (Section III-F)
            instead of declaration order.
        join_strategy: ``"hash"`` (default) for the pipelined hash join, or
            ``"backtracking"`` for the seed's cross-product enumeration,
            kept as the reference implementation for equivalence tests.
        workers: worker processes for the scatter-gather stage over a
            segmented store's sealed segments; ``1`` (default) scans
            serially in-process.  Must be a positive integer.
            Irrelevant on monolithic stores.
        negation_strategy: how ``and not`` absence patterns are
            anti-joined — one of :data:`NEGATION_STRATEGIES`.  ``"hash"``
            (default) probes an index of shared-entity key tuples;
            ``"scan"`` is the naive per-assignment linear scan kept as
            the reference implementation for equivalence tests.
        aggregation_strategy: how ``count()``/``group by`` accumulate —
            one of
            :data:`~repro.tbql.aggregate.AGGREGATION_STRATEGIES`.
            ``"hash"`` (default) uses one dict keyed by the group tuple;
            ``"scan"`` is the naive linear-lookup reference.
    """

    def __init__(self, store: DualStore, use_scheduler: bool = True,
                 join_strategy: str = "hash", workers: int = 1,
                 negation_strategy: str = "hash",
                 aggregation_strategy: str = "hash") -> None:
        if join_strategy not in ("hash", "backtracking"):
            raise ValueError(f"unknown join strategy: {join_strategy!r}")
        if negation_strategy not in NEGATION_STRATEGIES:
            raise ValueError(
                f"unknown negation strategy: {negation_strategy!r} "
                f"(expected one of {', '.join(NEGATION_STRATEGIES)})")
        if aggregation_strategy not in AGGREGATION_STRATEGIES:
            raise ValueError(
                f"unknown aggregation strategy: {aggregation_strategy!r} "
                f"(expected one of {', '.join(AGGREGATION_STRATEGIES)})")
        workers = int(workers)
        if workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers}")
        self.store = store
        self.use_scheduler = use_scheduler
        self.join_strategy = join_strategy
        self.workers = workers
        self.negation_strategy = negation_strategy
        self.aggregation_strategy = aggregation_strategy
        self._scanner = SegmentScanner(self.workers)
        self._entity_cache: dict[int, dict] = {}
        self._cache_lock = threading.Lock()
        self._data_version = getattr(store, "data_version", None)
        self._pruning_lock = threading.Lock()
        self._pruning_counts = {"segments_scanned": 0,
                                "segments_pruned_by_time": 0,
                                "segments_pruned_by_stats": 0}

    @property
    def pool_fallback(self) -> bool:
        """True once scatter pool creation failed and scans run
        serially."""
        return self._scanner.pool_fallback

    @property
    def pruning_totals(self) -> dict[str, int]:
        """Cumulative segment-pruning counters (``GET /stats``)."""
        with self._pruning_lock:
            return dict(self._pruning_counts)

    def _record_pruning(self, scanned: int, time_pruned: int,
                        stats_pruned: int) -> None:
        with self._pruning_lock:
            self._pruning_counts["segments_scanned"] += scanned
            self._pruning_counts["segments_pruned_by_time"] += time_pruned
            self._pruning_counts["segments_pruned_by_stats"] += stats_pruned
        registry = get_registry()
        pruned = registry.counter(
            "repro_tbql_segments_pruned_total",
            "Sealed segments skipped before scanning, by reason: "
            "manifest time bounds ('time') or seal-time statistics "
            "('stats').", labels=("reason",))
        pruned.labels("time").inc(time_pruned)
        pruned.labels("stats").inc(stats_pruned)
        total = scanned + time_pruned + stats_pruned
        if total:
            registry.histogram(
                "repro_tbql_segments_pruned_fraction",
                "Fraction of sealed segments pruned (any reason) per "
                "pattern scan.",
                buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
            ).observe((time_pruned + stats_pruned) / total)

    def close(self) -> None:
        """Release the scatter-gather worker pool (idempotent)."""
        self._scanner.close()

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
        candidate_keys: dict[str, set[str]] = {}
        candidate_ids: dict[str, set[int]] = {}
        plan: list[PlanStep] = []
        for step in steps:
            with start_span("scan",
                            pattern=step.pattern.pattern_id) as span:
                matches, plan_step = self._execute_step(step, resolved,
                                                        candidate_keys,
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
            rows, joined_events = self._join(resolved, matches_by_pattern,
                                             negated_matches)
            span.set_attribute("rows", len(rows))
        if resolved.aggregation is not None:
            with start_span("aggregate") as span:
                rows = apply_aggregation(
                    rows, resolved.aggregation,
                    strategy=self.aggregation_strategy)
                span.set_attribute("rows", len(rows))
        join_seconds = time.perf_counter() - join_start
        # Matched events are counted per pattern (after candidate-constraint
        # propagation), mirroring the paper's per-event precision/recall in
        # Table VI: a pattern that matched nothing does not erase the events
        # the other patterns found.  Absence-pattern matches are evidence
        # *against* the hunt and are excluded.
        matched_events = self._collect_events(matches_by_pattern)
        per_pattern = {pid: len(matches) for pid, matches
                       in matches_by_pattern.items()}
        per_pattern.update({pid: len(matches) for pid, matches
                            in negated_matches.items()})
        result = QueryResult(
            rows=rows, matched_events=matched_events,
            joined_events=joined_events, plan=plan,
            per_pattern_matches=per_pattern,
            elapsed_seconds=time.perf_counter() - start,
            join_seconds=join_seconds)
        return result

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
                matches, plan_step = self._execute_step(
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
        store — the history side of a term is an index lookup from the
        pushed-down ids, never a scatter over sealed segments.  Exact,
        except that a positive path pattern (no id floor in Cypher) is a
        conservative yes.  Also returns the delta rows per pattern.
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
                matches, _ = self._execute_step(
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

    def execute_giant_cypher(self, query: str | ResolvedQuery,
                             now: Optional[float] = None) -> list[dict]:
        """Run the single-statement Cypher baseline (RQ4 comparison)."""
        resolved = self._resolve(query, now)
        return self.store.execute_cypher(compile_giant_cypher(resolved))

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
                      ) -> tuple[list[PatternMatch], PlanStep]:
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
        segments_scanned: Optional[int] = None
        segments_pruned: Optional[int] = None
        stats_pruned: Optional[int] = None
        if dead:
            matches: list[PatternMatch] = []
        elif pattern.is_path:
            matches = self._execute_cypher_pattern(pattern, resolved,
                                                   subject_ids, object_ids)
        else:
            matches, hydration_queries, segments_scanned, \
                segments_pruned, stats_pruned = self._execute_sql_pattern(
                    pattern, resolved, subject_ids, object_ids,
                    since_event_id)
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
            backend="cypher" if pattern.is_path else "sql",
            score=step.score,
            subject_candidates=(len(subject_known)
                                if subject_known is not None else None),
            object_candidates=(len(object_known)
                               if object_known is not None else None),
            pushed_subject=subject_ids is not None,
            pushed_object=object_ids is not None,
            rows_in=rows_in, rows_out=len(filtered),
            hydration_queries=hydration_queries,
            segments_scanned=segments_scanned,
            segments_pruned=segments_pruned,
            segments_pruned_by_stats=stats_pruned,
            pool_fallback=(self._scanner.pool_fallback
                           if segments_scanned is not None else None),
            negated=negated,
            seconds=seconds)
        return filtered, plan_step

    def _segment_view(self) -> Optional[SegmentView]:
        view_of = getattr(self.store, "segment_view", None)
        return view_of() if callable(view_of) else None

    def _scatter_rows(self, pattern: ResolvedPattern,
                      resolved: ResolvedQuery,
                      subject_ids: Optional[list[int]],
                      object_ids: Optional[list[int]],
                      view: SegmentView
                      ) -> tuple[list[dict], int, int, int]:
        """Scatter one pattern scan across the store's segments.

        The planner prunes sealed segments whose time bounds cannot
        intersect the pattern's resolved window (same predicate the SQL
        renders, so pruning is sound), then consults seal-time segment
        statistics to drop segments no stored row could match (sound by
        the :mod:`~repro.tbql.pruning` contract; stats-less segments
        always survive).  Survivors fan out through the scanner, the
        active tail — events past the last seal — scans the combined
        store with an id floor, and everything merges back into the
        single ``(start_time, event_id)`` order a monolithic scan would
        have produced.  Returns ``(rows, scanned, time_pruned,
        stats_pruned)``.
        """
        window = effective_window(pattern, resolved)
        targets = prune_segments(view.sealed, window)
        time_pruned = len(view.sealed) - len(targets)
        spec = build_pattern_spec(pattern, resolved,
                                  subject_candidates=subject_ids,
                                  object_candidates=object_ids)
        targets, stats_pruned = prune_by_stats(targets, spec)
        tasks: list[ScanTask] = [ColumnarTask(segment.columnar_path, spec)
                                 for segment in targets]
        with start_span("scatter", segments=len(targets),
                        pruned=len(view.sealed) - len(targets)) as span:
            rows = self._scanner.scan(tasks)
            if view.active_events:
                active = compile_pattern_sql(
                    pattern, resolved, subject_candidates=subject_ids,
                    object_candidates=object_ids,
                    min_event_id=view.active_first_event_id)
                rows.extend(self.store.execute_sql(active.sql,
                                                   active.params))
            rows.sort(key=lambda row: (row["start_time"],
                                       row["event_id"]))
            span.set_attribute("rows", len(rows))
        self._record_pruning(len(targets), time_pruned, stats_pruned)
        return rows, len(targets), time_pruned, stats_pruned

    def _execute_sql_pattern(self, pattern: ResolvedPattern,
                             resolved: ResolvedQuery,
                             subject_ids: Optional[list[int]] = None,
                             object_ids: Optional[list[int]] = None,
                             since_event_id: Optional[int] = None
                             ) -> tuple[list[PatternMatch], int,
                                        Optional[int], Optional[int],
                                        Optional[int]]:
        # ``since_event_id`` (the delta gate): events from that id up (0 =
        # all), read from the combined store whatever the layout.
        view = self._segment_view() if since_event_id is None else None
        if view is None:
            compiled = compile_pattern_sql(pattern, resolved,
                                           subject_candidates=subject_ids,
                                           object_candidates=object_ids,
                                           min_event_id=since_event_id
                                           or None)
            rows = self.store.execute_sql(compiled.sql, compiled.params)
            scanned: Optional[int] = None
            pruned: Optional[int] = None
            stats_pruned: Optional[int] = None
        else:
            rows, scanned, pruned, stats_pruned = self._scatter_rows(
                pattern, resolved, subject_ids, object_ids, view)
        # Hydrate every subject/object entity of this pattern in one batched
        # query instead of one lookup per result row (the seed's N+1).
        needed = {row["subject_id"] for row in rows} | \
            {row["object_id"] for row in rows}
        with start_span("hydrate", entities=len(needed)) as span:
            hydration_queries = self._hydrate_entities(needed)
            span.set_attribute("queries", hydration_queries)
        matches = []
        for row in rows:
            subject_attrs = self._entity_attrs(row["subject_id"])
            object_attrs = self._entity_attrs(row["object_id"])
            matches.append(PatternMatch(
                subject_key=_canonical_key(subject_attrs),
                object_key=_canonical_key(object_attrs),
                subject_attrs=subject_attrs, object_attrs=object_attrs,
                operation=row["operation"], start_time=row["start_time"],
                end_time=row["end_time"],
                event_ids=(row["event_id"],),
                subject_id=row["subject_id"], object_id=row["object_id"]))
        return matches, hydration_queries, scanned, pruned, stats_pruned

    def _execute_cypher_pattern(self, pattern: ResolvedPattern,
                                resolved: ResolvedQuery,
                                subject_ids: Optional[list[int]] = None,
                                object_ids: Optional[list[int]] = None
                                ) -> list[PatternMatch]:
        cypher = compile_pattern_cypher(pattern, resolved,
                                        subject_candidates=subject_ids,
                                        object_candidates=object_ids)
        rows = self.store.execute_cypher(cypher)
        graph = self.store.graph.graph
        matches = []
        for row in rows:
            subject_attrs = dict(graph.node(row["subject_id"]).properties)
            object_attrs = dict(graph.node(row["object_id"]).properties)
            event_ids = row["event_ids"]
            if isinstance(event_ids, int):
                event_ids = [event_ids]
            final_edge = graph.edge(event_ids[-1]) if event_ids else None
            operation = final_edge.get("operation") if final_edge else None
            # Explicit None checks: a legitimate epoch-0 timestamp must not
            # be conflated with a missing value.
            start_time = row.get("start_time")
            end_time = row.get("end_time")
            matches.append(PatternMatch(
                subject_key=_canonical_key(subject_attrs),
                object_key=_canonical_key(object_attrs),
                subject_attrs=subject_attrs, object_attrs=object_attrs,
                operation=operation,
                start_time=0.0 if start_time is None else start_time,
                end_time=0.0 if end_time is None else end_time,
                event_ids=tuple(event_ids),
                subject_id=row["subject_id"], object_id=row["object_id"]))
        return matches

    def _try_aggregate_pushdown(self, resolved: ResolvedQuery,
                                started: float) -> Optional[QueryResult]:
        """Partial-aggregate pushdown for single-pattern count queries.

        When an aggregated query is one positive event pattern with no
        ``with``-clause relations, per-group counting distributes over
        segments: each scatter worker counts its segment's matches per
        group key and the coordinator merges the partial counts before
        rendering.  Workers then ship one ``(group key, count)`` pair per
        group plus a compact 44-byte packed record per match (for the
        matched events list) instead of the row scatter's 52-byte packed
        rows — display names are hydrated coordinator-side by entity id,
        through the same batched cache the ordinary path uses.

        Byte-identical to the ordinary scan-join-aggregate path by
        construction: per-segment row selection is shared with the
        columnar scan, group keys mirror ``_group_key`` exactly (for
        aggregated queries the resolver makes ``return_items`` equal
        ``group by``, so the emitted row values *are* the entity
        attributes the workers read), and
        :func:`~repro.tbql.aggregate.rows_from_counts` renders merged
        counts under a total order independent of accumulation order.
        Returns ``None`` — the ordinary path runs — whenever any
        precondition fails; the pushdown never changes results, only the
        work distribution.
        """
        aggregation = resolved.aggregation
        if aggregation is None:
            return None
        if os.environ.get("REPRO_TBQL_AGG_PUSHDOWN", "").strip() == "0":
            return None
        if (self.join_strategy != "hash"
                or self.aggregation_strategy != "hash"):
            return None  # the reference strategies stay pushdown-free
        if len(resolved.patterns) != 1:
            return None
        pattern = resolved.patterns[0]
        if pattern.negated or pattern.is_path:
            return None
        if resolved.temporal_relations or resolved.attribute_relations:
            return None
        view = self._segment_view()
        if view is None:
            return None
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
        spec = build_pattern_spec(pattern, resolved)
        window = effective_window(pattern, resolved)
        targets = prune_segments(view.sealed, window)
        time_pruned = len(view.sealed) - len(targets)
        survivors, stats_pruned = prune_by_stats(targets, spec)
        hydration_queries = 0
        scan_start = time.perf_counter()
        records: list[tuple] = []
        counts: dict[tuple, int] = {}
        with start_span("scatter", segments=len(survivors),
                        pruned=time_pruned + stats_pruned) as span:
            tasks: list[ScanTask] = [
                AggregateTask(segment.columnar_path, spec,
                              tuple(group_columns))
                for segment in survivors]
            for packed in self._scanner.scan_results(tasks):
                part_records, part_counts = unpack_aggregate(packed)
                records.extend(part_records)
                for key, count in part_counts.items():
                    counts[key] = counts.get(key, 0) + count
            if view.active_events:
                active = compile_pattern_sql(
                    pattern, resolved,
                    min_event_id=view.active_first_event_id)
                rows = self.store.execute_sql(active.sql, active.params)
                for row in rows:
                    records.append((row["event_id"], row["start_time"],
                                    row["end_time"], row["operation"],
                                    row["subject_id"], row["object_id"]))
            # Same global order a monolithic scan produces; matched and
            # joined events render in this order on the ordinary path.
            records.sort(key=lambda record: (record[1], record[0]))
            # One batched hydration covers the active-tail group keys
            # and every record's display names — workers ship entity
            # ids, not per-segment string tables.
            needed = {record[4] for record in records} | \
                {record[5] for record in records}
            hydration_queries = self._hydrate_entities(needed)
            if view.active_events:
                for row in rows:
                    subject_attrs = self._entity_attrs(row["subject_id"])
                    object_attrs = self._entity_attrs(row["object_id"])
                    key = tuple(
                        (subject_attrs if on_subject else object_attrs
                         ).get(attribute)
                        for on_subject, attribute in group_sides)
                    counts[key] = counts.get(key, 0) + 1
            names = {entity_id: _display_name(
                self._entity_attrs(entity_id)) for entity_id in needed}
            span.set_attribute("rows", len(records))
        seconds = {"execute": time.perf_counter() - scan_start}
        self._record_pruning(len(survivors), time_pruned, stats_pruned)
        join_start = time.perf_counter()
        with start_span("aggregate") as span:
            out_rows = rows_from_counts(counts, aggregation)
            span.set_attribute("rows", len(out_rows))
        join_seconds = time.perf_counter() - join_start
        matched_events = [{
            "pattern_id": pattern.pattern_id,
            "subject": names[record[4]],
            "operation": record[3],
            "object": names[record[5]],
            "start_time": record[1],
            "end_time": record[2],
            "event_ids": [record[0]],
        } for record in records]
        # Every single-pattern match is a complete join assignment, so
        # the joined list equals the matched list.
        joined_events = [dict(event) for event in matched_events]
        plan_step = PlanStep(
            pattern.pattern_id, backend="sql",
            score=pruning_score(pattern),
            rows_in=len(records), rows_out=len(records),
            hydration_queries=hydration_queries,
            segments_scanned=len(survivors),
            segments_pruned=time_pruned,
            segments_pruned_by_stats=stats_pruned,
            aggregate_pushdown=True,
            pool_fallback=self._scanner.pool_fallback,
            seconds=seconds)
        return QueryResult(
            rows=out_rows, matched_events=matched_events,
            joined_events=joined_events, plan=[plan_step],
            per_pattern_matches={pattern.pattern_id: len(records)},
            elapsed_seconds=time.perf_counter() - started,
            join_seconds=join_seconds)

    def _hydrate_entities(self, entity_ids: set[int]) -> int:
        """Batch-load uncached entity rows; returns the query count.

        The count is the number of SQL statements the store actually issued:
        0 when everything is cached, 1 for one batched ``IN`` list, more
        only when the store chunks an oversized batch.
        """
        missing = [entity_id for entity_id in entity_ids
                   if entity_id not in self._entity_cache]
        if not missing:
            return 0
        rows_by_id, queries = self.store.relational.entity_by_ids(missing)
        hydrated: dict[int, dict] = {}
        for entity_id in missing:
            row = rows_by_id.get(entity_id)
            if row is None:
                raise ExecutionError(f"dangling entity id {entity_id} in "
                                     "events table")
            attrs = dict(row)
            attrs["group"] = attrs.pop("grp", None)
            hydrated[entity_id] = attrs
        # One locked batch update; concurrent hydrations of the same ids
        # write identical values, so last-writer-wins is safe.
        with self._cache_lock:
            self._entity_cache.update(hydrated)
        return queries

    def _entity_attrs(self, entity_id: int) -> dict:
        cached = self._entity_cache.get(entity_id)
        if cached is not None:
            return cached
        self._hydrate_entities({entity_id})
        return self._entity_cache[entity_id]

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

    @staticmethod
    def _collect_events(matches_by_pattern: dict[str, list[PatternMatch]]
                        ) -> list[dict]:
        events: list[dict] = []
        seen: set[tuple] = set()
        for pattern_id, matches in matches_by_pattern.items():
            for match in matches:
                signature = (match.event_ids, pattern_id)
                if signature in seen:
                    continue
                seen.add(signature)
                events.append({
                    "pattern_id": pattern_id,
                    "subject": _display_name(match.subject_attrs),
                    "operation": match.operation,
                    "object": _display_name(match.object_attrs),
                    "start_time": match.start_time,
                    "end_time": match.end_time,
                    "event_ids": list(match.event_ids),
                })
        return events

    # ------------------------------------------------------------------
    # join
    # ------------------------------------------------------------------
    def _join(self, resolved: ResolvedQuery,
              matches_by_pattern: dict[str, list[PatternMatch]],
              negated_matches: Optional[dict[str, list[PatternMatch]]] = None
              ) -> tuple[list[dict], list[dict]]:
        allows = self._build_negation_checker(resolved, negated_matches or {})
        if self.join_strategy == "backtracking":
            return self._join_backtracking(resolved, matches_by_pattern,
                                           allows)
        return self._join_hash(resolved, matches_by_pattern, allows)

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
            if self.negation_strategy == "hash":
                index = {tuple(match.subject_key if is_subject
                               else match.object_key
                               for is_subject, _ in shared)
                         for match in matches}
                specs.append(("hash", shared, index, bool(matches)))
            else:
                specs.append(("scan", shared, matches, bool(matches)))

        if not specs:
            return None

        def allows(entity_binding: dict[str, str]) -> bool:
            for kind, shared, data, has_matches in specs:
                if not shared:
                    if has_matches:
                        return False
                    continue
                wanted = tuple(entity_binding[entity_id]
                               for _, entity_id in shared)
                if kind == "hash":
                    if wanted in data:
                        return False
                else:
                    for match in data:
                        got = tuple(match.subject_key if is_subject
                                    else match.object_key
                                    for is_subject, _ in shared)
                        if got == wanted:
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

    def _join_hash(self, resolved: ResolvedQuery,
                   matches_by_pattern: dict[str, list[PatternMatch]],
                   negation_allows=None
                   ) -> tuple[list[dict], list[dict]]:
        """Pipelined multi-way hash join over the per-pattern match lists.

        Each join level indexes its pattern's matches by the subject/object
        entity keys already bound at that level and probes the index with the
        partial binding, so compatible matches are found in O(1) instead of
        scanning the whole list.  ``with``-clause relations are applied
        incrementally at the earliest level where their evaluation is
        guaranteed to equal evaluation on the complete assignment, so doomed
        partial joins are discarded as soon as possible.  Enumeration order
        (and therefore row and matched-event order) is identical to the
        reference backtracking join.
        """
        rows: list[dict] = []
        seen_rows: set[tuple] = set()
        matched_events: list[dict] = []
        seen_events: set[tuple] = set()
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
                self._emit(resolved, assignment, rows, seen_rows,
                           matched_events, seen_events)
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
        return rows, matched_events

    def _join_backtracking(self, resolved: ResolvedQuery,
                           matches_by_pattern: dict[str, list[PatternMatch]],
                           negation_allows=None
                           ) -> tuple[list[dict], list[dict]]:
        """The seed's cross-product backtracking join (reference only).

        Worst-case ``O(∏|matches_i|)``: every level re-scans the pattern's
        full match list against the partial binding.  Kept so equivalence
        tests can assert the hash join produces bit-identical results.
        """
        pattern_order = self._join_order(resolved, matches_by_pattern)
        rows: list[dict] = []
        seen_rows: set[tuple] = set()
        matched_events: list[dict] = []
        seen_events: set[tuple] = set()

        def backtrack(position: int, entity_binding: dict[str, str],
                      assignment: dict[str, PatternMatch]) -> None:
            if position == len(pattern_order):
                if not self._relations_hold(resolved, assignment):
                    return
                if negation_allows is not None and \
                        not negation_allows(entity_binding):
                    return
                self._emit(resolved, assignment, rows, seen_rows,
                           matched_events, seen_events)
                return
            pattern_id = pattern_order[position]
            pattern = resolved.pattern_by_id(pattern_id)
            for match in matches_by_pattern[pattern_id]:
                subject_prev = entity_binding.get(pattern.subject.entity_id)
                object_prev = entity_binding.get(pattern.obj.entity_id)
                if subject_prev is not None and \
                        subject_prev != match.subject_key:
                    continue
                if object_prev is not None and \
                        object_prev != match.object_key:
                    continue
                new_binding = dict(entity_binding)
                new_binding[pattern.subject.entity_id] = match.subject_key
                new_binding[pattern.obj.entity_id] = match.object_key
                new_assignment = dict(assignment)
                new_assignment[pattern_id] = match
                backtrack(position + 1, new_binding, new_assignment)

        backtrack(0, {}, {})
        return rows, matched_events

    def _relations_hold(self, resolved: ResolvedQuery,
                        assignment: dict[str, PatternMatch]) -> bool:
        for relation in resolved.temporal_relations:
            if not self._temporal_holds(relation, assignment):
                return False
        for relation in resolved.attribute_relations:
            if not self._attribute_holds(relation, resolved, assignment):
                return False
        return True

    @staticmethod
    def _temporal_holds(relation: TemporalRelation,
                        assignment: dict[str, PatternMatch]) -> bool:
        left = assignment.get(relation.left)
        right = assignment.get(relation.right)
        if left is None or right is None:
            return True
        scale = TIME_UNIT_SECONDS.get(relation.unit or "sec", 1.0)
        # "then" (the resolved sequence operator) shares the evaluation of
        # a gap-bounded "before": strict ordering plus an optional bound
        # on the gap between left's end and right's start.
        if relation.kind in ("before", "then"):
            if left.end_time > right.start_time:
                return False
            if relation.max_gap is not None and \
                    right.start_time - left.end_time > relation.max_gap * \
                    scale:
                return False
            return True
        if relation.kind == "after":
            return TBQLExecutor._temporal_holds(
                TemporalRelation(left=relation.right, kind="before",
                                 right=relation.left,
                                 min_gap=relation.min_gap,
                                 max_gap=relation.max_gap,
                                 unit=relation.unit), assignment)
        gap = (relation.max_gap or 0.0) * scale
        return abs(left.start_time - right.start_time) <= gap

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

    def _emit(self, resolved: ResolvedQuery,
              assignment: dict[str, PatternMatch], rows: list[dict],
              seen_rows: set, matched_events: list[dict],
              seen_events: set) -> None:
        row: dict[str, Any] = {}
        for entity_id, attribute in resolved.return_items:
            row[f"{entity_id}.{attribute}"] = self._relation_value(
                f"{entity_id}.{attribute}", resolved, assignment)
        key = tuple(sorted((name, str(value)) for name, value in row.items()))
        if not resolved.distinct or key not in seen_rows:
            seen_rows.add(key)
            rows.append(row)
        for pattern_id, match in assignment.items():
            signature = (match.event_ids, pattern_id)
            if signature in seen_events:
                continue
            seen_events.add(signature)
            matched_events.append({
                "pattern_id": pattern_id,
                "subject": _display_name(match.subject_attrs),
                "operation": match.operation,
                "object": _display_name(match.object_attrs),
                "start_time": match.start_time,
                "end_time": match.end_time,
                "event_ids": list(match.event_ids),
            })


__all__ = ["PatternMatch", "PlanStep", "QueryResult", "TBQLExecutor",
           "MAX_CANDIDATE_PUSHDOWN", "NEGATION_STRATEGIES"]
