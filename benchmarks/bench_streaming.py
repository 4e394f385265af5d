"""Streaming benchmark: append throughput + standing-rule eval latency.

Two measurements on the benign workload (``BENCH_STREAMING_SESSIONS``
sessions; 3400 ≈ 100k raw events, overridable for CI smoke runs):

* *append throughput* — loading the full log as ``BENCH_STREAMING_BATCHES``
  incremental ``DualStore.append_events`` batches (plus the final seal) vs
  the one-shot batched cold load.  The streaming path pays per-batch commit
  and incremental index maintenance instead of the one-shot path's
  deferred index rebuild; the acceptance bar is staying within 2x of the
  cold load at full workload scale (asserted there, recorded everywhere).
* *rule-eval latency per flush* — a :class:`DetectionEngine` with a mix of
  standing rules (selective single-pattern, multi-pattern join,
  time-dependent ``last N`` window) ingesting the same stream batch by
  batch; reports mean/max per-flush evaluation latency and how many
  evaluations the delta gate let through to a full query.  Two mixes of
  the same three shapes: *busy* rules that the benign workload matches
  on nearly every flush (each pays one full query per flush, by
  design — recorded), and *quiet* rules that name binaries it never
  runs, the usual state of a detection (asserted at full scale: rule
  evaluation costs less than the append it follows).

Tables land in ``benchmarks/results/streaming_ingest.txt`` and
``streaming_rules.txt``.
"""

from __future__ import annotations

import os
import time
from operator import attrgetter

import pytest

from repro.audit.workload import generate_benign_noise
from repro.benchmark.evaluation import format_table
from repro.storage import DualStore
from repro.streaming import DetectionEngine, FlushPolicy

from .conftest import write_result_table

#: Sessions in the synthetic workload; 3400 sessions ≈ 100k events.
BENCH_STREAMING_SESSIONS = int(os.environ.get("BENCH_STREAMING_SESSIONS",
                                              "3400"))
#: Incremental batches the stream is delivered in.
BENCH_STREAMING_BATCHES = int(os.environ.get("BENCH_STREAMING_BATCHES",
                                             "20"))
#: Timed rounds (best round reported).
ROUNDS = 3

#: The full-scale bar from the acceptance criteria: streamed append within
#: 2x of the batched cold load.
MAX_APPEND_SLOWDOWN = 2.0

#: Standing rules for the latency measurement: a selective single-pattern
#: detection, a multi-pattern join, and an event-time windowed rule.
STANDING_RULES = [
    ("conn-syslog-writer",
     'proc p["%/usr/sbin/rsyslogd%"] write file f["%/var/log/syslog%"] '
     'as e1 return distinct p'),
    ("fetch-then-cache",
     'proc p["%/usr/bin/firefox%"] receive ip i as e1 '
     'proc p write file f as e2 with e1 before e2 '
     'return distinct p, f'),
    ("recent-daemon-net",
     'last 5 min proc p["%/usr/sbin/cron%"] connect ip i as e1 '
     'return distinct i.dstip'),
]


#: The same three shapes over binaries the benign workload never runs:
#: what a deployed detection looks like on almost every flush.
QUIET_RULES = [
    ("implant-syslog-writer",
     'proc p["%/opt/implant/wiper%"] write file f["%/var/log/syslog%"] '
     'as e1 return distinct p'),
    ("implant-fetch-then-cache",
     'proc p["%/opt/implant/stage%"] receive ip i as e1 '
     'proc p write file f as e2 with e1 before e2 '
     'return distinct p, f'),
    ("implant-recent-net",
     'last 5 min proc p["%/opt/implant/beacon%"] connect ip i as e1 '
     'return distinct i.dstip'),
]


@pytest.fixture(scope="module")
def workload_events():
    events = generate_benign_noise(BENCH_STREAMING_SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    return events


def _chunks(items, count):
    size = (len(items) + count - 1) // count
    return [items[index:index + size]
            for index in range(0, len(items), size)]


def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def test_streaming_append_throughput(workload_events):
    batches = _chunks(workload_events, BENCH_STREAMING_BATCHES)

    stored_counts = []

    def one_shot():
        with DualStore() as store:
            stored_counts.append(int(store.load_events(
                list(workload_events))))

    def streamed():
        with DualStore() as store:
            total = 0
            for chunk in batches:
                total += int(store.append_events(chunk))
            total += int(store.flush_appends())
            stored_counts.append(total)

    one_shot_seconds = _best_of(ROUNDS, one_shot)
    streamed_seconds = _best_of(ROUNDS, streamed)
    assert len(set(stored_counts)) == 1     # identical stored event counts

    raw = len(workload_events)
    ratio = streamed_seconds / one_shot_seconds
    rows = [
        {"path": "one-shot (batched cold load)",
         "seconds": one_shot_seconds,
         "events/sec": round(raw / one_shot_seconds),
         "vs one-shot": 1.0},
        {"path": f"streamed ({len(batches)} appends + seal)",
         "seconds": streamed_seconds,
         "events/sec": round(raw / streamed_seconds),
         "vs one-shot": ratio},
    ]
    table = (f"Streaming append throughput ({raw} raw events, "
             f"{BENCH_STREAMING_SESSIONS} sessions)\n" +
             format_table(rows, ["path", "seconds", "events/sec",
                                 "vs one-shot"], floatfmt="{:.4f}"))
    print("\n" + table)
    write_result_table("streaming_ingest", table)

    assert streamed_seconds > 0 and one_shot_seconds > 0
    if BENCH_STREAMING_SESSIONS >= 3400:
        # Full-scale acceptance bar; small smoke workloads are dominated
        # by per-batch constants and only record the ratio.
        assert ratio <= MAX_APPEND_SLOWDOWN, (
            f"streamed append {ratio:.2f}x slower than the batched cold "
            f"load (bar: {MAX_APPEND_SLOWDOWN}x)")


def _rule_eval_rows(mix, rules, batches):
    engine = DetectionEngine(
        DualStore(), policy=FlushPolicy(max_events=1, max_seconds=0))
    for rule_id, text in rules:
        engine.add_rule(text, rule_id=rule_id)

    eval_seconds = []
    append_seconds = []
    for chunk in batches:
        start = time.perf_counter()
        report = engine.process_batch(chunk)
        elapsed = time.perf_counter() - start
        if report.stored:
            eval_seconds.append(report.eval_seconds)
            append_seconds.append(elapsed - report.eval_seconds)
    final = engine.finalize()
    if final.stored:
        eval_seconds.append(final.eval_seconds)

    assert eval_seconds
    mean_eval = sum(eval_seconds) / len(eval_seconds)
    mean_append = sum(append_seconds) / max(1, len(append_seconds))
    rows = [
        {"metric": "flushes", "value": len(eval_seconds), "unit": ""},
        {"metric": "events stored", "value": engine.events_stored,
         "unit": ""},
        {"metric": "rules", "value": len(engine.rules), "unit": ""},
        {"metric": "alerts fired",
         "value": engine.alerts.counters()["fired"], "unit": ""},
        {"metric": "rule evaluations",
         "value": sum(rule.evaluations for rule in engine.rules),
         "unit": ""},
        {"metric": "of them full queries",
         "value": sum(rule.full_evaluations for rule in engine.rules),
         "unit": ""},
        {"metric": "rule-eval mean", "value": mean_eval * 1000.0,
         "unit": "ms/flush"},
        {"metric": "rule-eval max",
         "value": max(eval_seconds) * 1000.0, "unit": "ms/flush"},
        {"metric": "append mean", "value": mean_append * 1000.0,
         "unit": "ms/flush"},
    ]
    engine.store.close()
    for row in rows:
        row["mix"] = mix
    return rows, mean_eval, mean_append


def test_streaming_rule_eval_latency(workload_events):
    batches = _chunks(workload_events, BENCH_STREAMING_BATCHES)
    busy, _, _ = _rule_eval_rows("busy", STANDING_RULES, batches)
    quiet, quiet_eval, quiet_append = _rule_eval_rows(
        "quiet", QUIET_RULES, batches)
    table = (f"Standing-rule evaluation latency "
             f"({BENCH_STREAMING_SESSIONS} sessions, "
             f"{len(STANDING_RULES)} rules per mix)\n" +
             format_table(busy + quiet,
                          ["mix", "metric", "value", "unit"]))
    print("\n" + table)
    write_result_table("streaming_rules", table)
    if BENCH_STREAMING_SESSIONS >= 3400:
        # Full-scale bar (ROADMAP item 4): a flush whose delta completes
        # no match evaluates its rules for less than it took to append.
        # The busy mix fires every rule on nearly every flush and pays
        # one full query per rule and flush by design; it only records.
        assert quiet_eval < quiet_append, (
            f"quiet rules cost {quiet_eval * 1e3:.1f} ms per flush, "
            f"the append {quiet_append * 1e3:.1f} ms")
