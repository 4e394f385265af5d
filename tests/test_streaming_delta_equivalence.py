"""The delta gate changes what a flush costs, never what it reports.

The same stream goes through the gated :class:`DetectionEngine` and the
always-re-evaluate engine frozen in ``tests/reference/full_reeval.py``;
after every flush the alerts (everything but ``created_at``), the
per-rule high-water marks and the dedup counters must be identical.
The stream is the end-to-end benchmark's (noise plus the 18 case
traces) with a hand-built tail that makes an ``and not`` veto and the
second leg of a ``then`` arrive late; the rules are the benchmark's
four, ``bench_streaming.py``'s three and one of every shape the gate
treats differently.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.bench_streaming import STANDING_RULES
from benchmarks.e2e.dataset import build_events
from benchmarks.e2e.texts import RULES as E2E_RULES
from repro.audit.entities import (FileEntity, NetworkEntity, Operation,
                                  ProcessEntity, SystemEvent)
from repro.storage import DualStore
from repro.streaming import DetectionEngine, FlushPolicy, resume_engine

from .reference.executor_seed import RowPathExecutor
from .reference.full_reeval import FullReevalEngine

CORPUS: dict[str, str] = {
    **E2E_RULES,
    **dict(STANDING_RULES),
    # the veto (the agent connects) arrives after the first alert
    "veto_late":
        'proc p["/opt/veto/agent"] write file f '
        'and not proc p connect ip i return p, f',
    "count_single":
        'proc p read file f["/etc/%"] return p, count() group by p top 5',
    "count_sequence":
        'proc p["%/bin/tar%"] read file f then proc p write file g '
        'return p.exename, count()',
    "chain3":
        'proc p write file shared["%/tmp/upload.tar%"] as e1 '
        'proc q["%/bin/bzip2%"] read file shared as e2 '
        'proc q write file out as e3 return p, q, out',
    # only time relates the two patterns: no id to push down
    "before_unshared":
        'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
        'proc q["%/usr/bin/curl%"] connect ip i as e2 '
        'with e1 before e2 return p, q, i.dstip',
    "last_window":
        'last 2 min proc p write file f["/tmp/%"] return distinct p, f',
    "then_legs":
        'proc p["/opt/seq/stage1"] write file f["/opt/seq/%"] '
        'then[30 min] proc q["/opt/seq/stage2"] connect ip i '
        'return p, q, i.dstip',
    # Cypher takes no id floor: the gate must answer a conservative yes
    "path":
        'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
        'proc q["%/usr/bin/curl%"] ~>(1~2)[connect] ip i as e2 '
        'return distinct p, i.dstip',
}
#: Registered a third of the way into the stream (a retro-hunt, then
#: incremental like the rest).
LATE_RULES = ("r2_dropper_before", "chain3", "veto_late")


def _event(subject, obj, operation, at: float) -> SystemEvent:
    return SystemEvent(subject=subject, operation=operation, obj=obj,
                       start_time=at, end_time=at + 0.01, data_amount=1)


def _stream() -> list[SystemEvent]:
    events = build_events(30, 12)
    first, last = events[0].start_time, events[-1].end_time

    def at(share: float) -> float:
        return first + (last - first) * share

    agent = ProcessEntity(exename="/opt/veto/agent", pid=9001)
    stage1 = ProcessEntity(exename="/opt/seq/stage1", pid=9002)
    stage2 = ProcessEntity(exename="/opt/seq/stage2", pid=9003)
    peer = NetworkEntity(srcip="10.0.0.5", srcport=40000,
                         dstip="203.0.113.9", dstport=443)
    events += [
        _event(agent, FileEntity(path="/opt/veto/out1"), Operation.WRITE,
               at(0.20)),
        _event(agent, peer, Operation.CONNECT, at(0.50)),
        _event(agent, FileEntity(path="/opt/veto/out2"), Operation.WRITE,
               at(0.80)),
        _event(stage1, FileEntity(path="/opt/seq/payload"), Operation.WRITE,
               at(0.30)),
        _event(stage2, peer, Operation.CONNECT, at(0.70)),
    ]
    events.sort(key=lambda event: (event.start_time, event.event_id))
    return events


STREAM = _stream()


def _cut(events: list[SystemEvent], cuts: list[int]
         ) -> list[list[SystemEvent]]:
    edges = [0] + sorted(set(cuts)) + [len(events)]
    return [events[low:high] for low, high in zip(edges, edges[1:])
            if high > low]


def _even_cuts(batches: int) -> list[int]:
    return [len(STREAM) * index // batches for index in range(1, batches)]


def _late(events: list[SystemEvent]) -> list[SystemEvent]:
    """Every seventh event arrives 45 positions after its place."""
    on_time = [event for index, event in enumerate(events) if index % 7]
    for index, event in enumerate(events[::7]):
        on_time.insert(min(len(on_time), index * 7 + 45), event)
    return on_time


def _pair(seal_every: int) -> tuple[DetectionEngine, FullReevalEngine]:
    """The gated engine and its always-re-evaluate reference; with
    ``seal_every=0`` their stores are never sealed."""
    def build(cls):
        return cls(DualStore(), seal_every=seal_every,
                   policy=FlushPolicy(max_events=1, max_seconds=0))
    return build(DetectionEngine), build(FullReevalEngine)


def _state(engine: DetectionEngine, report) -> dict:
    alerts = [alert.as_dict() for alert in report.alerts]
    for alert in alerts:
        del alert["created_at"]
    return {
        "alerts": alerts, "stored": report.stored,
        "batch_seq": report.batch_seq, "watermark": report.watermark,
        "marks": {rule.rule_id: rule.high_water_event_id
                  for rule in engine.rules},
        "fired": {rule.rule_id: rule.alerts_fired for rule in engine.rules},
        "evaluations": {rule.rule_id: rule.evaluations
                        for rule in engine.rules},
        "errors": {rule.rule_id: rule.last_error for rule in engine.rules},
        "counters": engine.alerts.counters(),
    }


def _replay(gated: DetectionEngine, reference: DetectionEngine,
            batches: list[list[SystemEvent]], seal: bool = False,
            late_rules_at: int | None = None) -> int:
    """Both engines through the same flushes; returns alerts fired."""
    for index, batch in enumerate(batches):
        if index == late_rules_at:
            for rule_id in LATE_RULES:
                for engine in (gated, reference):
                    engine.add_rule(CORPUS[rule_id], rule_id=rule_id)
        got = _state(gated, gated.process_batch(batch, seal=seal))
        want = _state(reference, reference.process_batch(batch, seal=seal))
        assert got == want, f"flush {index}"
    assert _state(gated, gated.finalize()) == \
        _state(reference, reference.finalize())
    return gated.alerts.counters()["fired"]


def _register(engines, skip=()) -> None:
    for rule_id, text in CORPUS.items():
        if rule_id not in skip:
            for engine in engines:
                engine.add_rule(text, rule_id=rule_id)


def _close(*engines: DetectionEngine) -> None:
    for engine in engines:
        engine.executor.close()
        engine.store.close()


@pytest.mark.parametrize("seal_every", [0, 1, 3])
@pytest.mark.parametrize("request_seals", [False, True])
def test_gated_engine_reports_what_full_reevaluation_reports(
        request_seals, seal_every):
    gated, reference = _pair(seal_every)
    try:
        _register((gated, reference), skip=LATE_RULES)
        batches = _cut(STREAM, _even_cuts(15))
        fired = _replay(gated, reference, batches, seal=request_seals,
                        late_rules_at=5)
        # The corpus is not vacuous: every rule alerted at least once,
        # and the gate did spare most full evaluations.
        assert fired >= len(CORPUS)
        for rule in gated.rules:
            assert rule.alerts_fired >= 1, rule.rule_id
        spared = [rule.rule_id for rule in gated.rules
                  if rule.full_evaluations < rule.evaluations]
        assert set(spared) == set(CORPUS) - {"path"}
        # The late veto: one alert for out1, none for out2.
        assert gated.rules.get("veto_late").alerts_fired == 1
        assert gated.rules.get("then_legs").alerts_fired == 1
    finally:
        _close(gated, reference)


@pytest.mark.parametrize("seal_every", [0, 2])
def test_out_of_order_arrivals_and_per_request_seals(seal_every):
    gated, reference = _pair(seal_every)
    try:
        _register((gated, reference))
        batches = _cut(_late(STREAM), _even_cuts(12))
        assert _replay(gated, reference, batches, seal=True) > 0
        assert gated.out_of_order == reference.out_of_order > 0
    finally:
        _close(gated, reference)


@pytest.mark.parametrize("seal_every", [0, 2])
def test_resume_between_the_legs_of_a_then(tmp_path, seal_every):
    """A checkpoint the always-re-evaluate engine wrote (what the parent
    commit writes: the stream state has no field of the gate) is resumed
    by both; the gated side fires the sequence once, on the second leg."""
    batches = _cut(STREAM, _even_cuts(10))
    writer = FullReevalEngine(DualStore(), seal_every=seal_every)
    _register((writer,))
    for batch in batches[:5]:     # stage1 is in, stage2 is not
        writer.process_batch(batch)
    assert writer.rules.get("then_legs").alerts_fired == 0
    writer.checkpoint(tmp_path / "ckpt")
    _close(writer)
    gated = resume_engine(tmp_path / "ckpt", seal_every=seal_every)
    reference = resume_engine(tmp_path / "ckpt", seal_every=seal_every)
    reference.__class__ = FullReevalEngine
    try:
        assert all(rule.high_water_event_id > 0 for rule in gated.rules)
        _replay(gated, reference, batches[5:])
        assert gated.rules.get("then_legs").alerts_fired == 1
        assert gated.rules.get("then_legs").full_evaluations == 1
    finally:
        _close(gated, reference)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cuts=st.lists(st.integers(min_value=1, max_value=len(STREAM) - 1),
                     min_size=1, max_size=12),
       seal_every=st.sampled_from([0, 1, 3]), seal=st.booleans(),
       late=st.booleans())
def test_random_batch_boundaries(cuts, seal_every, seal, late):
    gated, reference = _pair(seal_every)
    try:
        _register((gated, reference), skip=LATE_RULES)
        batches = _cut(_late(STREAM) if late else STREAM, cuts)
        _replay(gated, reference, batches, seal=seal,
                late_rules_at=len(batches) // 2)
    finally:
        _close(gated, reference)


def test_count_rule_alerts_keep_their_provenance():
    """A ``count()`` rule's alert lists exactly the events a row-path
    executor (no aggregate pushdown, events built eagerly) joins for the
    same text at that flush; the pushdown only defers building them."""
    engine = DetectionEngine(DualStore(), seal_every=3,
                             policy=FlushPolicy(max_events=1, max_seconds=0))
    reference = RowPathExecutor(engine.store)
    text = CORPUS["count_single"]
    checked = 0
    try:
        engine.add_rule(text, rule_id="count_single")
        for batch in _cut(STREAM, _even_cuts(10)):
            for alert in engine.process_batch(batch).alerts:
                want = reference.execute(text)
                assert list(alert.matched_events) == want.joined_events
                assert list(alert.rows) == want.rows
                checked += engine.executor.execute(
                    text).plan[0].aggregate_pushdown
        assert checked >= 2
    finally:
        reference.close()
        _close(engine)


def test_a_quiet_flush_scans_no_segment_and_hydrates_no_entity():
    """Exact counts on a store with four sealed segments."""
    gated, reference = _pair(seal_every=1)
    solo = FullReevalEngine(DualStore(), seal_every=1)
    hydrated: list[int] = []
    try:
        _register((gated, reference), skip=("path",))
        solo.add_rule(CORPUS["then_legs"], rule_id="then_legs")
        quarter = len(STREAM) // 4
        for index in range(4):
            batch = STREAM[index * quarter:(index + 1) * quarter]
            for engine in (gated, reference, solo):
                engine.process_batch(batch)
        assert gated.store.segment_stats()["sealed_segments"] >= 4
        fetch = gated.store.relational.entity_by_ids
        gated.store.relational.entity_by_ids = lambda ids: (
            hydrated.extend(ids), fetch(ids))[1]
        at = STREAM[-1].end_time + 60.0
        idle = ProcessEntity(exename="/opt/idle/daemon", pid=9100)
        lock = FileEntity(path="/opt/idle/lock")
        peer = NetworkEntity(srcip="10.0.0.6", srcport=40001,
                             dstip="203.0.113.10", dstport=443)
        quiet = [_event(idle, lock, Operation.DELETE, at)]
        closing = [_event(ProcessEntity(exename="/opt/seq/stage2",
                                        pid=9003),
                          peer, Operation.CONNECT, at + 1.0)]

        def scanned(engine):
            return engine.executor.pruning_totals["segments_scanned"]

        before = scanned(gated), scanned(reference)
        assert gated.process_batch(quiet, seal=True).stored == 1
        reference.process_batch(quiet, seal=True)
        solo.process_batch(quiet, seal=True)
        assert scanned(gated) == before[0] and hydrated == []
        # Always re-evaluating: segments x patterns x rules.
        assert scanned(reference) - before[1] >= \
            4 * (len(CORPUS) - 1)
        # stage2 connects again: only ``then_legs`` completes a match,
        # and the gated flush scans what one full query of it scans.
        before = scanned(gated), scanned(solo)
        report = gated.process_batch(closing, seal=True)
        solo_report = solo.process_batch(closing, seal=True)
        assert [alert.rule_id for alert in report.alerts] == ["then_legs"]
        assert len(solo_report.alerts) == 1
        assert scanned(gated) - before[0] == scanned(solo) - before[1] > 0
    finally:
        _close(gated, reference, solo)
