"""Live detection engine: incremental ingestion + standing-query evaluation.

The :class:`DetectionEngine` turns the one-shot hunting pipeline into a
continuous one.  Events stream in (from a :class:`~repro.streaming.tailer.
LogTailer`, an HTTP ``POST /ingest``, or any producer), get batched under a
time/size :class:`~repro.streaming.batcher.FlushPolicy`, and each flush:

1. **appends** the delta to both dual-store backends without a rebuild
   (:meth:`~repro.storage.dualstore.DualStore.append_events`), under the
   exclusive side of a single-writer/multi-reader lock so concurrent TBQL
   queries never observe a half-applied batch;
2. **advances the event-time watermark** — the max event end time seen —
   which is what ``last N`` windows in standing rules resolve against, so
   window semantics follow the *data's* clock, not the wall clock;
3. **evaluates every standing rule** through the shared executor and emits
   one structured :class:`~repro.streaming.alerts.Alert` per rule that
   matched newly stored events.  Per-rule high-water event ids make firing
   exactly-once per matching delta: a match whose events were all stored at
   or below the mark has either fired before or predates the rule.

A rule costs what the delta can complete, not what the history holds.  A
multi-pattern rule may join a new event against history (the "tar read
passwd weeks ago, curl exfiltrates now" case), so scanning only the delta
would miss matches; but a rule can only fire if some complete match holds
an event above its mark ``H``, and any such match binds at least one
pattern to a delta event.  The *delta gate*
(:meth:`~repro.tbql.executor.TBQLExecutor.matches_since`) asks exactly
that, semi-naively: per pattern, scan ``e.id > H`` (a primary-key range)
and, only if that is non-empty, look the other patterns up in the history
from the pushed-down entity ids and join.  On "no" the mark advances and
the rule is done; on "yes" — and for a rule's first evaluation (``H == 0``,
the retro-hunt) or a path pattern, which takes no id floor — the rule runs
as the full query it always was, and the alert is built from that result.
The gate therefore decides only *whether* the full query runs: it is the
same predicate the full result is filtered by, so it cannot lose an alert,
and an over-approximating "yes" costs time, never correctness
(``tests/test_streaming_delta_equivalence.py`` replays streams through
this engine and the always-re-evaluate one kept in ``tests/reference/``).

Periodic checkpointing persists the store snapshot plus the stream state
(log offset, watermark, rule high-water marks) so a restarted service
resumes from the last checkpoint without re-alerting on already-processed
events; see :mod:`repro.streaming.checkpoint`.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from ..audit.entities import SystemEvent
from ..audit.parser import AuditLogParser, ParseReport
from ..errors import ReproError, StorageError, StreamingError
from ..obs.metrics import get_registry
from ..obs.trace import start_span
from ..storage.dualstore import DualStore
from ..tbql.executor import QueryResult, TBQLExecutor
from ..tbql.semantics import ResolvedQuery
from .alerts import DEFAULT_ALERT_CAPACITY, Alert, AlertStore
from .batcher import FlushPolicy, StreamBatcher
from .locks import ReadWriteLock
from .rules import RuleRegistry, StandingRule
from .tailer import LogTailer


@dataclass
class FlushReport:
    """What one flush cycle accepted, stored, and detected."""

    #: Raw events consumed by this cycle (before reduction/buffering).
    accepted: int = 0
    #: Events stored into the backends (reduced; excludes open runs).
    stored: int = 0
    #: Flush sequence number after this cycle (0 if nothing stored yet).
    batch_seq: int = 0
    #: Event-time watermark after this cycle (None before any event).
    watermark: Optional[float] = None
    #: Alerts fired by this cycle's rule evaluation.
    alerts: list[Alert] = field(default_factory=list)
    #: Seconds spent evaluating the standing rules this cycle.
    eval_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "accepted": self.accepted,
            "stored": self.stored,
            "batch_seq": self.batch_seq,
            "watermark": self.watermark,
            "eval_seconds": self.eval_seconds,
            "alerts": [alert.as_dict() for alert in self.alerts],
        }


class DetectionEngine:
    """Standing-query detection over a live, incrementally loaded store.

    Args:
        store: a *writable* dual store (fresh, or a snapshot reopened with
            ``DualStore.open(path, read_only=False)``).
        executor: optional shared executor (the HTTP service passes its
            own so rule evaluation warms the same hydration cache).
        policy: time/size flush policy for the internal batcher.
        max_alerts: bounded alert-ring capacity.
        checkpoint_dir: directory for periodic snapshot checkpoints.
        checkpoint_every: checkpoint after this many stored flushes
            (0 disables automatic checkpointing).
        seal_every: seal the store's tail into a segment after this
            many stored flushes (the flush→seal policy; 0 seals only when
            a checkpoint snapshot is saved).  Per-request ingest seals
            (``POST /ingest``) flush merge runs but never cut segments.
            Sealing closes open merge runs, so a sealed event can no
            longer merge with later arrivals — pick a cadence coarse
            enough for your merge threshold.
    """

    def __init__(self, store: DualStore,
                 executor: Optional[TBQLExecutor] = None,
                 policy: Optional[FlushPolicy] = None,
                 max_alerts: int = DEFAULT_ALERT_CAPACITY,
                 checkpoint_dir: str | Path | None = None,
                 checkpoint_every: int = 0,
                 seal_every: int = 0) -> None:
        if store.read_only:
            raise StorageError(
                "the detection engine needs a writable store; reopen the "
                "snapshot with DualStore.open(path, read_only=False)")
        self.store = store
        self.executor = executor if executor is not None \
            else TBQLExecutor(store)
        self.rules = RuleRegistry()
        self.alerts = AlertStore(max_alerts)
        self.batcher = StreamBatcher(policy)
        #: Guards the store against concurrent reads during an append.
        self.lock = ReadWriteLock()
        #: Serializes whole flush cycles (multiple producers are allowed).
        self._ingest_lock = threading.RLock()
        self.checkpoint_dir = Path(checkpoint_dir) \
            if checkpoint_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.seal_every = seal_every
        self._batches_since_checkpoint = 0
        self._flushes_since_seal = 0
        self.seals = 0
        #: Event-time watermark: max end_time accepted so far.
        self.watermark: Optional[float] = None
        #: Max start_time accepted so far — the disorder reference.  (The
        #: watermark cannot be: a long-running event's end_time exceeds
        #: later events' start_times on a perfectly ordered stream.)
        self.max_start_time: Optional[float] = None
        #: Log byte offset covered by the stored data (for checkpoints).
        self.last_offset = 0
        self._pending_offset: Optional[int] = None
        self.batch_seq = 0
        self.events_seen = 0
        self.events_stored = 0
        self.out_of_order = 0
        self.rule_errors = 0
        self.checkpoints = 0
        self.eval_seconds_total = 0.0
        self.last_flush: Optional[FlushReport] = None

    # ------------------------------------------------------------------
    # rule management
    # ------------------------------------------------------------------
    def add_rule(self, text: str, rule_id: Optional[str] = None,
                 high_water_event_id: int = 0) -> StandingRule:
        """Register a standing rule (compiled and validated immediately).

        A new rule's high-water mark defaults to 0, so its first
        evaluation retro-hunts the whole stored history — registering a
        hunt immediately surfaces past matches, then fires incrementally.
        """
        return self.rules.add(text, rule_id=rule_id,
                              high_water_event_id=high_water_event_id)

    def remove_rule(self, rule_id: str) -> StandingRule:
        """Deregister a rule; raises :class:`StreamingError` if unknown."""
        return self.rules.remove(rule_id)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def submit(self, events: Iterable[SystemEvent],
               offset: Optional[int] = None) -> Optional[FlushReport]:
        """Buffer events; flush when the policy's triggers fire.

        Returns the flush report when a flush happened, else ``None``.
        ``offset`` records the log byte offset these events came from, so
        checkpoints resume the tailer correctly.
        """
        with self._ingest_lock:
            self.batcher.add(events)
            if offset is not None:
                self._pending_offset = offset
            if not self.batcher.should_flush:
                return None
            return self.flush()

    def flush(self) -> FlushReport:
        """Force a flush of the buffered events (store + evaluate)."""
        with self._ingest_lock:
            report = self._apply(self.batcher.drain(), seal=False)
            self._maybe_checkpoint()
            return report

    def process_batch(self, events: Iterable[SystemEvent],
                      offset: Optional[int] = None,
                      seal: bool = False) -> FlushReport:
        """Store one explicit batch and evaluate rules (bypasses policy).

        With ``seal=True`` the batch's open merge runs are flushed too, so
        every event of this batch is queryable (and detectable) before the
        report is built — the right semantics for request/response ingest
        (``POST /ingest``), where no later event may ever arrive to close
        a run.  Leave it ``False`` for contiguous stream chunks where
        cross-batch merging should continue.
        """
        with self._ingest_lock:
            batch = self.batcher.drain()
            batch.extend(events)
            if offset is not None:
                self._pending_offset = offset
            report = self._apply(batch, seal=seal)
            self._maybe_checkpoint()
            return report

    def finalize(self) -> FlushReport:
        """End of stream: flush buffers, seal open merge runs, evaluate.

        Also writes a final checkpoint when a checkpoint directory is
        configured.
        """
        with self._ingest_lock:
            report = self._apply(self.batcher.drain(), seal=True)
            if self.checkpoint_dir is not None:
                self.checkpoint()
            return report

    # ------------------------------------------------------------------
    # flush core
    # ------------------------------------------------------------------
    def _apply(self, events: list[SystemEvent], seal: bool) -> FlushReport:
        report = FlushReport(accepted=len(events), batch_seq=self.batch_seq,
                             watermark=self.watermark)
        watermark = self.watermark
        if events:
            self.events_seen += len(events)
            max_start = self.max_start_time
            if max_start is not None:
                self.out_of_order += sum(
                    1 for event in events if event.start_time < max_start)
            batch_max_start = max(event.start_time for event in events)
            self.max_start_time = batch_max_start if max_start is None \
                else max(max_start, batch_max_start)
            batch_max = max(event.end_time for event in events)
            watermark = batch_max if watermark is None \
                else max(watermark, batch_max)
            self.watermark = watermark
            report.watermark = watermark
        stored = 0
        flush_start = time.perf_counter()
        if events or seal:
            with start_span("append", events=len(events)), \
                    self.lock.write_lock():
                if events:
                    stored += int(self.store.append_events(events))
                    self._flushes_since_seal += 1
                # Flush→seal policy: periodically seal the tail so the
                # store keeps gaining prunable history.  A per-request
                # ``seal`` (POST /ingest) only flushes the open merge runs
                # — it must NOT cut one tiny segment per HTTP request;
                # actual segment seals happen here and at checkpoints.
                seal_segment = self.seal_every > 0 and \
                    self._flushes_since_seal >= self.seal_every
                if seal or seal_segment:
                    stored += int(self.store.flush_appends(
                        seal_segment=seal_segment))
                    if seal_segment:
                        self._flushes_since_seal = 0
                        self.seals += 1
        if self._pending_offset is not None:
            self.last_offset = self._pending_offset
            self._pending_offset = None
        if stored:
            self.batch_seq += 1
            self._batches_since_checkpoint += 1
            self.events_stored += stored
            report.batch_seq = self.batch_seq
            report.stored = stored
            eval_start = time.perf_counter()
            with start_span("rule_eval", rules=len(self.rules)) as span:
                report.alerts = self._evaluate_rules()
                span.set_attribute("alerts", len(report.alerts))
            report.eval_seconds = time.perf_counter() - eval_start
            self.eval_seconds_total += report.eval_seconds
            get_registry().histogram(
                "repro_flush_seconds",
                "Flush-cycle duration (store append + rule "
                "evaluation), in seconds.",
            ).observe(time.perf_counter() - flush_start)
        if watermark is not None:
            # Event-time lag of the detection watermark behind the wall
            # clock; synthetic replays can legitimately sit far behind.
            get_registry().gauge(
                "repro_watermark_lag_seconds",
                "Wall-clock seconds the event-time watermark trails "
                "behind now.",
            ).set(max(0.0, time.time() - watermark))
        self.last_flush = report
        return report

    def _evaluate_rules(self) -> list[Alert]:
        """Run every standing rule; returns the alerts this delta fired."""
        rules = self.rules.list()
        if not rules:
            return []
        fired: list[Alert] = []
        watermark = self.watermark
        max_event_id = self.store.max_event_id
        data_version = self.store.data_version
        registry = get_registry()
        eval_counter = registry.counter(
            "repro_rule_evaluations_total",
            "Standing-rule evaluations, per rule.", labels=("rule",))
        error_counter = registry.counter(
            "repro_rule_errors_total",
            "Standing-rule evaluations that raised, per rule.",
            labels=("rule",))
        alert_counter = registry.counter(
            "repro_rule_alerts_total",
            "Alerts fired by standing rules, per rule.",
            labels=("rule",))
        full_counter = registry.counter(
            "repro_rule_full_evaluations_total",
            "Standing-rule evaluations the delta gate let through to a "
            "full query over the history, per rule.", labels=("rule",))
        with self.lock.read_lock():
            for rule in rules:
                high_water = rule.high_water_event_id
                result: Optional[QueryResult] = None
                try:
                    resolved = rule.resolve(watermark)
                    if high_water == 0 or self._delta_gate(
                            rule, resolved, high_water + 1):
                        with start_span("full_eval", rule=rule.rule_id):
                            result = self.executor.execute(resolved)
                except ReproError as exc:
                    rule.last_error = str(exc)
                    self.rule_errors += 1
                    error_counter.labels(rule.rule_id).inc()
                    continue
                rule.last_error = None
                rule.evaluations += 1
                eval_counter.labels(rule.rule_id).inc()
                rule.high_water_event_id = max_event_id
                if result is None:
                    continue    # no complete match can hold a new event
                rule.full_evaluations += 1
                full_counter.labels(rule.rule_id).inc()
                # A standing rule fires only on *complete* matches: an
                # event satisfying one pattern of a multi-pattern rule is
                # not a detection until the join closes, so firing keys on
                # the join-participating events, and only when the delta
                # contributed at least one of them.
                new_ids = sorted({
                    event_id for event in result.joined_events
                    for event_id in event["event_ids"]
                    if event_id > high_water})
                if not new_ids:
                    continue
                alert = self.alerts.fire(
                    rule_id=rule.rule_id, query=rule.text,
                    batch_seq=self.batch_seq, data_version=data_version,
                    watermark=watermark if watermark is not None else 0.0,
                    new_event_ids=new_ids,
                    matched_events=result.joined_events,
                    rows=result.rows)
                if alert is not None:
                    rule.alerts_fired += 1
                    alert_counter.labels(rule.rule_id).inc()
                    fired.append(alert)
        return fired

    def _delta_gate(self, rule: StandingRule, resolved: ResolvedQuery,
                    min_event_id: int) -> bool:
        """True when a complete match may hold an event of the delta."""
        with start_span("delta_gate", rule=rule.rule_id) as span:
            matched, delta_rows = self.executor.matches_since(
                resolved, min_event_id)
            span.set_attribute("delta_rows", delta_rows)
            span.set_attribute("outcome",
                               "match" if matched else "no_match")
        return matched

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path | None = None) -> dict:
        """Persist the store + stream state for restart-resume.

        Drains and seals any buffered data first (so the saved snapshot
        and the recorded log offset agree), merges undersized adjacent
        segments (:meth:`DualStore.compact`), snapshots the dual store,
        and writes ``stream_state.json`` next to the snapshot manifest.

        The write is *atomic at the directory level*: the new checkpoint
        is built in a ``<dir>.tmp`` sibling and swapped into place via
        renames (previous checkpoint briefly parked at ``<dir>.old``), so
        a crash mid-checkpoint never destroys the last good recovery
        point — :func:`~repro.streaming.checkpoint.resume_engine` knows to
        fall back to ``<dir>.old`` if the swap was interrupted.  Returns
        the stream state written.
        """
        from .checkpoint import write_stream_state
        target = Path(directory) if directory is not None \
            else self.checkpoint_dir
        if target is None:
            raise StreamingError(
                "no checkpoint directory configured for this engine")
        staging = target.with_name(target.name + ".tmp")
        parked = target.with_name(target.name + ".old")
        with self._ingest_lock:
            pending = self.batcher.drain()
            if pending or self.store.pending_appends:
                self._apply(pending, seal=True)
            if staging.exists():
                shutil.rmtree(staging)
            # Cutting a segment changes what readers scan: exclusive.  So
            # does merging the small segments earlier checkpoints cut,
            # which keeps a long-running store's segment count (and the
            # per-segment cost of every scan) bounded.  The save then
            # only reads.
            with self.lock.write_lock():
                self.store.seal_active_segment()
                self.store.compact()
            with self.lock.read_lock():
                self.store.save(staging)
            state = write_stream_state(staging, self)
            if parked.exists():
                shutil.rmtree(parked)
            if target.exists():
                os.replace(target, parked)
            os.replace(staging, target)
            shutil.rmtree(parked, ignore_errors=True)
            self._batches_since_checkpoint = 0
            self.checkpoints += 1
            return state

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_dir is None or self.checkpoint_every <= 0:
            return
        if self._batches_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    # ------------------------------------------------------------------
    # log following
    # ------------------------------------------------------------------
    def follow(self, tailer: LogTailer, poll_interval: float = 0.5,
               once: bool = False,
               stop_event: Optional[threading.Event] = None,
               on_flush: Optional[Callable[[FlushReport], None]] = None
               ) -> int:
        """Follow a growing audit log, flushing per policy; returns stored.

        ``once=True`` drains the file to its current end, finalizes
        (sealing open merge runs and checkpointing), and returns — the
        batch-catchup mode ``repro tail --once`` uses.  Otherwise the loop
        runs until ``stop_event`` is set.
        """
        stored = 0

        def deliver(report: Optional[FlushReport]) -> None:
            nonlocal stored
            if report is None:
                return
            stored += report.stored
            if on_flush is not None and (report.accepted or report.stored
                                         or report.alerts):
                on_flush(report)

        while stop_event is None or not stop_event.is_set():
            events = tailer.poll_events()
            if events:
                deliver(self.submit(events, offset=tailer.offset))
                continue
            if once:
                deliver(self.finalize())
                break
            if self.batcher.should_flush:
                deliver(self.flush())
            time.sleep(poll_interval)
        return stored

    def ingest_log_text(self, log_text: str, seal: bool = True
                        ) -> tuple[FlushReport, "ParseReport"]:
        """Parse audit log text and process it as one (sealed) batch.

        Returns the flush report *and* the parse report, so callers (the
        ``POST /ingest`` endpoint) can surface skipped/malformed record
        counts — tolerant parsing must not mean silent data loss.
        """
        parser = AuditLogParser()
        with start_span("parse"):
            events = list(parser.iter_events(log_text.splitlines()))
        return self.process_batch(events, seal=seal), parser.last_report

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counters the service exposes under ``GET /stats``."""
        return {
            "rules": len(self.rules),
            "alerts": self.alerts.counters(),
            "seals": self.seals,
            "seal_every": self.seal_every,
            "sealed_segments":
                self.store.segment_stats()["sealed_segments"],
            "batches": self.batch_seq,
            "events_seen": self.events_seen,
            "events_stored": self.events_stored,
            "out_of_order": self.out_of_order,
            "rule_errors": self.rule_errors,
            "checkpoints": self.checkpoints,
            "watermark": self.watermark,
            "max_start_time": self.max_start_time,
            "pending_buffered": len(self.batcher),
            "pending_runs": self.store.pending_appends,
            "last_offset": self.last_offset,
            "eval_seconds_total": self.eval_seconds_total,
        }


__all__ = ["DetectionEngine", "FlushReport"]
