"""Detection-engine tests: standing rules, watermarks, alerts, checkpoints.

Covers the standing-query guarantees — fire exactly once per matching
delta (deduplicated across flushes), fire only on *complete* matches,
event-time watermark semantics for ``last N`` windows including boundary
timestamps and out-of-order arrivals — plus the log tailer, the flush
policies, the reader/writer lock, and checkpoint-resume.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.audit import AuditCollector, CollectorConfig
from repro.audit.entities import FileEntity, Operation, ProcessEntity, \
    SystemEvent
from repro.audit.logfmt import format_log
from repro.errors import StorageError, StreamingError, TBQLError
from repro.storage import DualStore
from repro.streaming import (AlertStore, DetectionEngine, FlushPolicy,
                             LogTailer, ReadWriteLock, StreamBatcher,
                             compile_rule, has_checkpoint,
                             load_rules_directory, read_stream_state,
                             resume_engine)

EXFIL_RULE = ('proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
              'proc q["%/usr/bin/curl%"] connect ip i as e2 '
              'with e1 before e2 return p, q, i.dstip')

READ_RULE = 'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 ' \
            'return p'

SEQUENCE_RULE = ('proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
                 'then proc q["%/usr/bin/curl%"] connect ip i '
                 'return p, q, i.dstip')


def _engine(reduce: bool = True, **kwargs) -> DetectionEngine:
    kwargs.setdefault("policy", FlushPolicy(max_events=1, max_seconds=0))
    return DetectionEngine(DualStore(reduce=reduce), **kwargs)


def _attack_batches():
    """The data-leak kernel in two deltas: read first, exfil later."""
    collector = AuditCollector(CollectorConfig(seed=5))
    tar = collector.spawn_process("/bin/tar")
    collector.read_file(tar, "/etc/passwd", burst=2)
    first = list(collector.events())
    collector.advance(10.0)
    curl = collector.spawn_process("/usr/bin/curl")
    collector.connect_ip(curl, "192.168.29.128")
    second = collector.events()[len(first):]
    return collector, first, second


def _event(proc, obj, operation, start, end=None, amount=1):
    return SystemEvent(subject=proc, operation=operation, obj=obj,
                       start_time=start,
                       end_time=end if end is not None else start,
                       data_amount=amount)


class TestStandingRules:
    def test_rule_fires_exactly_once_across_flushes(self):
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE, rule_id="exfil")
        reports = [engine.process_batch(first),
                   engine.process_batch(second), engine.finalize()]
        fired = sum(len(report.alerts) for report in reports)
        assert fired == 1
        assert engine.alerts.counters()["fired"] == 1
        # Benign follow-up flushes must not re-fire the same match.
        collector = AuditCollector(CollectorConfig(seed=77,
                                                   start_time=1.6e9))
        shell = collector.spawn_process("/bin/bash")
        collector.read_file(shell, "/var/log/syslog")
        engine.process_batch(collector.events())
        engine.finalize()
        assert engine.alerts.counters()["fired"] == 1

    def test_sequence_rule_fires_exactly_once_on_last_leg(self):
        """A 'then' rule fires when its *last* leg arrives, and only then.

        The first delta holds only the read leg — no alert.  The delta
        carrying the connect leg completes the sequence and fires exactly
        one alert; later flushes must not re-fire the same match.
        """
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(SEQUENCE_RULE, rule_id="seq")
        first_report = engine.process_batch(first)
        assert first_report.alerts == []
        second_report = engine.process_batch(second)
        final = engine.finalize()
        fired = [alert for report in (second_report, final)
                 for alert in report.alerts]
        assert len(fired) == 1
        assert fired[0].rule_id == "seq"
        assert fired[0].rows[0]["i.dstip"] == "192.168.29.128"
        # A benign follow-up flush must not re-fire the sequence.
        collector = AuditCollector(CollectorConfig(seed=78,
                                                   start_time=1.7e9))
        shell = collector.spawn_process("/bin/bash")
        collector.read_file(shell, "/var/log/syslog")
        engine.process_batch(collector.events())
        engine.finalize()
        assert engine.alerts.counters()["fired"] == 1

    def test_partial_match_does_not_fire(self):
        _collector, first, _second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE)
        engine.process_batch(first)
        report = engine.finalize()
        # Only pattern e1 matched; the join is incomplete: no detection.
        assert not report.alerts
        assert engine.alerts.counters()["fired"] == 0

    def test_multi_pattern_match_spanning_batches_carries_provenance(self):
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE, rule_id="exfil")
        engine.process_batch(first)
        engine.process_batch(second)
        engine.finalize()
        (alert,) = engine.alerts.list()
        signatures = {(event["subject"], event["operation"],
                       event["object"]) for event in alert.matched_events}
        assert ("/bin/tar", "read", "/etc/passwd") in signatures
        assert ("/usr/bin/curl", "connect", "192.168.29.128") in signatures
        assert alert.rows      # the completed join's result rows
        assert alert.new_event_ids
        assert alert.rule_id == "exfil"

    def test_new_rule_retro_hunts_history(self):
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.process_batch(first)
        engine.process_batch(second)
        engine.finalize()
        assert engine.alerts.counters()["fired"] == 0   # no rules yet
        engine.add_rule(EXFIL_RULE)
        # The next flush evaluates the new rule over the whole history.
        collector = AuditCollector(CollectorConfig(seed=88,
                                                   start_time=1.7e9))
        shell = collector.spawn_process("/bin/sh")
        collector.read_file(shell, "/etc/hosts")
        engine.process_batch(collector.events())
        engine.finalize()
        assert engine.alerts.counters()["fired"] == 1

    def test_rule_management_errors(self):
        engine = _engine()
        engine.add_rule(READ_RULE, rule_id="r1")
        with pytest.raises(StreamingError):
            engine.add_rule(READ_RULE, rule_id="r1")
        with pytest.raises(TBQLError):
            engine.add_rule("not a query at all {")
        assert engine.remove_rule("r1").rule_id == "r1"
        with pytest.raises(StreamingError):
            engine.remove_rule("r1")

    def test_engine_requires_writable_store(self, tmp_path):
        with DualStore() as store:
            store.load_events([])
            store.save(tmp_path / "snap")
        snapshot = DualStore.open(tmp_path / "snap")
        try:
            with pytest.raises(StorageError):
                DetectionEngine(snapshot)
        finally:
            snapshot.close()


class TestWatermarks:
    def test_last_window_resolves_against_event_time(self):
        # Events are far in the past; a wall-clock "last 60 sec" would be
        # empty, but the watermark makes the window follow the data.
        proc = ProcessEntity(exename="/bin/tar", pid=44)
        passwd = FileEntity(path="/etc/passwd")
        engine = _engine(reduce=False)
        engine.add_rule('last 60 sec ' + READ_RULE, rule_id="windowed")
        report = engine.process_batch(
            [_event(proc, passwd, Operation.READ, 1000.0)])
        engine.finalize()
        assert engine.watermark == 1000.0
        assert len(report.alerts) == 1
        assert engine.alerts.counters()["fired"] == 1

    def test_boundary_timestamp_is_inside_the_window(self):
        proc = ProcessEntity(exename="/bin/tar", pid=45)
        passwd = FileEntity(path="/etc/passwd")
        other = ProcessEntity(exename="/bin/sleep", pid=46)
        clock = FileEntity(path="/tmp/clock")
        engine = _engine(reduce=False)
        engine.add_rule('last 60 sec ' + READ_RULE)
        # Boundary event: starts exactly at watermark - 60.
        engine.process_batch([
            _event(proc, passwd, Operation.READ, 940.0),
            _event(other, clock, Operation.READ, 1000.0),
        ])
        engine.finalize()
        assert engine.watermark == 1000.0
        assert engine.alerts.counters()["fired"] == 1

    def test_event_older_than_window_does_not_fire(self):
        proc = ProcessEntity(exename="/bin/tar", pid=47)
        passwd = FileEntity(path="/etc/passwd")
        other = ProcessEntity(exename="/bin/sleep", pid=48)
        clock = FileEntity(path="/tmp/clock")
        engine = _engine(reduce=False)
        engine.add_rule('last 60 sec ' + READ_RULE)
        engine.process_batch([
            _event(proc, passwd, Operation.READ, 939.0),   # just outside
            _event(other, clock, Operation.READ, 1000.0),
        ])
        engine.finalize()
        assert engine.alerts.counters()["fired"] == 0

    def test_out_of_order_event_is_stored_and_counted(self):
        proc = ProcessEntity(exename="/bin/tar", pid=49)
        passwd = FileEntity(path="/etc/passwd")
        other = ProcessEntity(exename="/bin/sleep", pid=50)
        clock = FileEntity(path="/tmp/clock")
        engine = _engine(reduce=False)
        engine.add_rule(READ_RULE)
        engine.process_batch([_event(other, clock, Operation.READ, 1000.0)])
        # A late event arrives with an older timestamp than the watermark.
        engine.process_batch([_event(proc, passwd, Operation.READ, 900.0)])
        engine.finalize()
        assert engine.out_of_order == 1
        assert engine.watermark == 1000.0    # never regresses
        assert engine.alerts.counters()["fired"] == 1

    def test_overlapping_in_order_events_are_not_counted_late(self):
        # A long-running event's end_time exceeds later start_times on a
        # perfectly ordered stream; that must not inflate out_of_order.
        proc = ProcessEntity(exename="/bin/x", pid=54)
        target = FileEntity(path="/tmp/t")
        engine = _engine(reduce=False)
        engine.process_batch([_event(proc, target, Operation.READ, 0.0,
                                     end=100.0)])
        engine.process_batch([_event(proc, target, Operation.WRITE, 50.0,
                                     end=150.0)])
        assert engine.out_of_order == 0
        assert engine.watermark == 150.0
        assert engine.max_start_time == 50.0

    def test_watermark_advances_monotonically(self):
        proc = ProcessEntity(exename="/bin/x", pid=51)
        target = FileEntity(path="/tmp/t")
        engine = _engine(reduce=False)
        engine.process_batch([_event(proc, target, Operation.READ, 10.0,
                                     end=12.0)])
        assert engine.watermark == 12.0
        engine.process_batch([_event(proc, target, Operation.WRITE, 11.0)])
        assert engine.watermark == 12.0
        engine.process_batch([_event(proc, target, Operation.WRITE, 20.0)])
        assert engine.watermark == 20.0


class TestAlertStore:
    def test_capacity_bound_drops_oldest(self):
        store = AlertStore(capacity=2)
        for index in range(3):
            assert store.fire(rule_id=f"r{index}", query="q", batch_seq=1,
                              data_version=1, watermark=0.0,
                              new_event_ids=[index], matched_events=[],
                              rows=[]) is not None
        counters = store.counters()
        assert counters["fired"] == 3
        assert counters["dropped"] == 1
        assert [alert.rule_id for alert in store.list()] == ["r1", "r2"]

    def test_signature_dedup_suppresses_replay(self):
        store = AlertStore()
        kwargs = dict(rule_id="r", query="q", batch_seq=1, data_version=1,
                      watermark=0.0, new_event_ids=[7, 9],
                      matched_events=[], rows=[])
        assert store.fire(**kwargs) is not None
        assert store.fire(**kwargs) is None
        assert store.counters()["suppressed"] == 1

    def test_since_id_cursor(self):
        store = AlertStore()
        for index in range(4):
            store.fire(rule_id="r", query="q", batch_seq=index,
                       data_version=1, watermark=0.0,
                       new_event_ids=[index], matched_events=[], rows=[])
        newer = store.list(since_id=2)
        assert [alert.alert_id for alert in newer] == [3, 4]
        assert len(store.list(since_id=0, limit=1)) == 1


class TestTailerAndBatcher:
    def test_tailer_reads_only_complete_lines(self, tmp_path):
        collector = AuditCollector(CollectorConfig(seed=9))
        shell = collector.spawn_process("/bin/bash")
        collector.read_file(shell, "/etc/hosts")
        lines = format_log(collector.events()).splitlines(keepends=True)
        log = tmp_path / "audit.log"
        tailer = LogTailer(log)
        assert tailer.poll_events() == []           # file does not exist yet
        log.write_text("".join(lines[:1]), encoding="utf-8")
        first = tailer.poll_events()
        assert len(first) == 1
        # Append one full line plus a partial one: only the complete line
        # is consumed; the offset stays before the partial tail.
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(lines[1])
            handle.write(lines[2][: len(lines[2]) // 2])
        second = tailer.poll_events()
        assert len(second) == 1
        offset_before = tailer.offset
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(lines[2][len(lines[2]) // 2:])
        third = tailer.poll_events()
        assert len(third) == 1
        assert tailer.offset > offset_before

    def test_tailer_handles_truncation(self, tmp_path):
        collector = AuditCollector(CollectorConfig(seed=9))
        shell = collector.spawn_process("/bin/bash")
        collector.read_file(shell, "/etc/hosts")
        text = format_log(collector.events())
        log = tmp_path / "audit.log"
        log.write_text(text, encoding="utf-8")
        tailer = LogTailer(log)
        assert tailer.poll_events()
        log.write_text(text.splitlines(keepends=True)[0], encoding="utf-8")
        assert tailer.poll_events()     # restarted from the beginning
        assert tailer.truncations == 1

    def test_tailer_bounded_polls_drain_a_backlog(self, tmp_path):
        collector = AuditCollector(CollectorConfig(seed=9))
        shell = collector.spawn_process("/bin/bash")
        for index in range(8):
            collector.advance(3.0)
            collector.read_file(shell, f"/tmp/backlog_{index}")
        text = format_log(collector.events())
        log = tmp_path / "audit.log"
        log.write_text(text, encoding="utf-8")
        line_bytes = len(text.splitlines(keepends=True)[0])
        # A bound of ~2 lines forces multiple polls over the backlog.
        tailer = LogTailer(log, max_poll_bytes=2 * line_bytes)
        polls = 0
        total = 0
        while True:
            events = tailer.poll_events()
            if not events:
                break
            assert len(events) <= 3
            total += len(events)
            polls += 1
        assert polls > 1
        assert total == len(collector.events())
        assert tailer.offset == len(text.encode("utf-8"))

    def test_batcher_size_and_time_triggers(self):
        clock = [0.0]
        batcher = StreamBatcher(FlushPolicy(max_events=3, max_seconds=5.0),
                                clock=lambda: clock[0])
        proc = ProcessEntity(exename="/bin/x", pid=52)
        target = FileEntity(path="/tmp/t")
        events = [_event(proc, target, Operation.READ, float(i))
                  for i in range(3)]
        batcher.add(events[:2])
        assert not batcher.should_flush
        clock[0] = 6.0
        assert batcher.should_flush          # time trigger
        drained = batcher.drain()
        assert len(drained) == 2
        batcher.add(events)
        assert batcher.should_flush          # size trigger
        assert [e.start_time for e in batcher.drain()] == [0.0, 1.0, 2.0]

    def test_follow_once_drains_seals_and_alerts(self, tmp_path):
        collector, first, second = _attack_batches()
        log = tmp_path / "audit.log"
        log.write_text(format_log(first + second), encoding="utf-8")
        engine = _engine()
        engine.add_rule(EXFIL_RULE)
        reports = []
        stored = engine.follow(LogTailer(log), once=True,
                               on_flush=reports.append)
        assert stored == engine.events_stored > 0
        assert engine.alerts.counters()["fired"] == 1
        assert any(report.alerts for report in reports)


class TestCheckpointResume:
    def test_checkpoint_roundtrip_state(self, tmp_path):
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE, rule_id="exfil")
        engine.process_batch(first)
        engine.process_batch(second)
        engine.finalize()
        target = tmp_path / "ckpt"
        state = engine.checkpoint(target)
        assert has_checkpoint(target)
        loaded = read_stream_state(target)
        assert loaded["batch_seq"] == state["batch_seq"]
        assert loaded["rules"][0]["id"] == "exfil"
        assert loaded["rules"][0]["high_water_event_id"] > 0

    def test_resume_does_not_refire_but_detects_new_matches(self,
                                                            tmp_path):
        collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE, rule_id="exfil")
        engine.process_batch(first)
        engine.process_batch(second)
        engine.finalize()
        assert engine.alerts.counters()["fired"] == 1
        target = tmp_path / "ckpt"
        engine.checkpoint(target)
        engine.store.close()

        resumed = resume_engine(
            target, policy=FlushPolicy(max_events=1, max_seconds=0))
        try:
            assert resumed.watermark == engine.watermark
            assert resumed.batch_seq == engine.batch_seq
            # Replaying nothing: a benign flush does not re-fire history.
            benign = AuditCollector(CollectorConfig(seed=99,
                                                    start_time=1.8e9))
            shell = benign.spawn_process("/bin/bash")
            benign.read_file(shell, "/var/log/syslog")
            resumed.process_batch(benign.events())
            resumed.finalize()
            assert resumed.alerts.counters()["fired"] == 0
            # A new connect joins the pre-checkpoint read: fires once.
            known = collector.events()
            curl = benign.spawn_process("/usr/bin/curl")
            benign.connect_ip(curl, "10.0.0.99")
            fresh = benign.events()[len(benign.events()) - 2:]
            del known
            resumed.process_batch(fresh)
            resumed.finalize()
            assert resumed.alerts.counters()["fired"] == 1
        finally:
            resumed.store.close()

    def test_checkpoint_seals_under_the_write_lock(self, tmp_path,
                                                  monkeypatch):
        """Cutting a segment changes what a concurrent query scans, so a
        checkpoint seals (and merges small segments) holding the engine's
        lock exclusively — not the reader side that queries and rule
        evaluation share."""
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE, rule_id="exfil")
        engine.process_batch(first)
        engine.process_batch(second)
        store, lock = engine.store, engine.lock
        seal = store._seal_active
        cuts = []

        def checked(*args, **kwargs):
            if store._active_events:
                cuts.append((lock._writer_active, lock._readers))
            return seal(*args, **kwargs)

        compact = store.compact
        merges = []

        def checked_compact(*args, **kwargs):
            merges.append((lock._writer_active, lock._readers))
            return compact(*args, **kwargs)

        monkeypatch.setattr(store, "_seal_active", checked)
        monkeypatch.setattr(store, "compact", checked_compact)
        try:
            engine.checkpoint(tmp_path / "ckpt")
            assert cuts == [(True, 0)]
            assert merges == [(True, 0)]
            view = store.segment_view()
            assert view.sealed and view.active_events == 0
        finally:
            store.close()

    def test_queries_racing_checkpoints_never_see_an_event_twice(
            self, tmp_path):
        """Readers hold the engine's reader lock while checkpoints seal
        the tail and merge it into the segment before: every answer lists
        each stored event exactly once."""
        proc = ProcessEntity(exename="/bin/x", pid=7)
        engine = _engine(reduce=False)
        errors: list[tuple[int, int, int]] = []
        done = threading.Event()

        def reader() -> None:
            while not done.is_set():
                with engine.lock.read_lock():
                    result = engine.executor.execute(
                        "proc p read file f return p")
                    stored = engine.store.relational.count_events()
                ids = [event["event_ids"][0]
                       for event in result.matched_events]
                if not len(ids) == len(set(ids)) == stored:
                    errors.append((len(ids), len(set(ids)), stored))

        threads = [threading.Thread(target=reader) for _ in range(3)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for index in range(12):
                engine.process_batch([_event(
                    proc, FileEntity(path=f"/tmp/f{index}"),
                    Operation.READ, float(index))])
                engine.checkpoint(tmp_path / "ckpt")
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(previous)
            engine.store.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Each checkpoint cut a one-event segment, and each after the
        # first merged it into the one before.
        [merged] = engine.store.segment_view().sealed
        assert merged.event_count == 12

    def test_checkpoint_overwrite_is_atomic_and_crash_recoverable(
            self, tmp_path):
        import os
        _collector, first, second = _attack_batches()
        engine = _engine()
        engine.add_rule(EXFIL_RULE, rule_id="exfil")
        engine.process_batch(first)
        target = tmp_path / "ckpt"
        engine.checkpoint(target)
        engine.process_batch(second)
        engine.finalize()
        engine.checkpoint(target)           # overwrite in place
        assert not target.with_name("ckpt.tmp").exists()
        assert not target.with_name("ckpt.old").exists()
        # Simulate a crash between the two swap renames: the new dir is
        # gone, the previous checkpoint is parked at <dir>.old.
        os.replace(target, target.with_name("ckpt.old"))
        assert has_checkpoint(target)       # recovery restores it
        resumed = resume_engine(
            target, policy=FlushPolicy(max_events=1, max_seconds=0))
        try:
            assert resumed.batch_seq == engine.batch_seq
        finally:
            resumed.store.close()

    def test_periodic_checkpointing(self, tmp_path):
        proc = ProcessEntity(exename="/bin/x", pid=53)
        target = FileEntity(path="/tmp/t")
        engine = DetectionEngine(
            DualStore(reduce=False),
            policy=FlushPolicy(max_events=1, max_seconds=0),
            checkpoint_dir=tmp_path / "auto", checkpoint_every=2)
        for index in range(5):
            engine.process_batch(
                [_event(proc, target, Operation.READ, float(index * 10))])
        assert engine.checkpoints >= 2
        assert has_checkpoint(tmp_path / "auto")


class TestRuleFiles:
    def test_load_rules_directory(self, tmp_path):
        (tmp_path / "a.tbql").write_text(READ_RULE, encoding="utf-8")
        (tmp_path / "b.tbql").write_text("definitely ! invalid",
                                         encoding="utf-8")
        entries = load_rules_directory(tmp_path)
        assert [entry[0] for entry in entries] == ["a", "b"]
        # Valid entry: compiled rule, no error (registerable as-is).
        assert entries[0][2] is not None and entries[0][3] is None
        assert entries[1][2] is None and entries[1][3] is not None
        engine = _engine()
        engine.rules.add_compiled(entries[0][2])
        assert engine.rules.get("a") is entries[0][2]
        with pytest.raises(StreamingError):
            engine.rules.add_compiled(entries[0][2])
        with pytest.raises(StreamingError):
            load_rules_directory(tmp_path / "missing")

    def test_prune_removes_rules_whose_file_was_deleted(self, tmp_path):
        from repro.cli import _load_rules_into
        (tmp_path / "keep.tbql").write_text(READ_RULE, encoding="utf-8")
        engine = _engine()
        # Simulate a checkpoint-restored rule whose file no longer exists.
        engine.add_rule(EXFIL_RULE, rule_id="deleted-on-disk")
        engine.add_rule(READ_RULE, rule_id="keep",
                        high_water_event_id=7)
        loaded = _load_rules_into(engine, str(tmp_path), prune=True)
        assert loaded == 1
        ids = [rule.rule_id for rule in engine.rules.list()]
        assert ids == ["keep"]
        # Unchanged text keeps the restored high-water mark.
        assert engine.rules.get("keep").high_water_event_id == 7

    def test_compile_rule_classifies_time_dependence(self):
        static = compile_rule(READ_RULE, "s")
        windowed = compile_rule("last 5 min " + READ_RULE, "w")
        assert not static.time_dependent
        assert static.resolved is not None
        assert windowed.time_dependent
        assert windowed.resolved is None


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        active = {"readers": 0, "writer": False}
        peak = {"readers": 0}
        errors = []
        barrier = threading.Barrier(4)

        def reader():
            barrier.wait()
            for _ in range(50):
                with lock.read_lock():
                    if active["writer"]:
                        errors.append("reader saw writer")
                    active["readers"] += 1
                    peak["readers"] = max(peak["readers"],
                                          active["readers"])
                    active["readers"] -= 1

        def writer():
            barrier.wait()
            for _ in range(50):
                with lock.write_lock():
                    if active["readers"] or active["writer"]:
                        errors.append("writer not exclusive")
                    active["writer"] = True
                    active["writer"] = False

        threads = [threading.Thread(target=reader) for _ in range(3)] + \
            [threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
