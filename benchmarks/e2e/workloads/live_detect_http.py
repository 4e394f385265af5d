"""``live_detect_http``: new events to alert, beside readers.

``repro serve --live --snapshot DIR --rules DIR``: the set-up snapshot
(the whole dataset, 16 sealed segments) reopened writable, with four
standing rules (selective single pattern, 2-pattern ``before`` join,
``then`` sequence, ``last 5 min`` window).  The events that arrive are a
second, later stretch of noise with the 18 attack traces replayed in it.

* **Writer**, open loop: ``POST /ingest`` of 50-line batches due every
  200 ms (250 raw events/s; the server is busy for about a third of each
  interval, see README.md).  Latency runs from the batch's *due* time to
  the response, which carries the alerts the batch fired; lateness is
  reported.
* **Reader**, closed loop with 100 ms of think time: one client looping
  six ``/query`` texts about the second half of the history and whatever
  arrived since (``texts.reader_texts``, 10-15 ms each) with the result
  cache off (every ingest invalidates it anyway), so every read executes.
  Heavy reads beside the writer share the interpreter lock with it: with
  20-30 ms texts and no pacing the median alert took 100-175 ms where the
  writer alone takes 70, and which it was depended on how busy the host
  was.

The stream is small beside the history (5000 lines on 44 000), so every
batch costs the same within a few percent and every reader text too:
repetitions of like operations, whose undisturbed time
(``stats.undisturbed``) is ``op_ms`` (alert latency) and ``aux_ms``
(reader latency, averaged over the six texts).  A run that started from
a fifth of the dataset and streamed the rest, as ISSUE 12 first had it,
climbs from 7 to 62 ms of rule evaluation per flush: no two batches are
comparable, and the median over such a run moved 34% between runs of the
same commit on a busy host.  The first five batches are the warm-up (a
rule's first evaluation hunts the whole history).

``audit.parser``, append, rule evaluation and cache invalidation run
under concurrent queries on one store and one lock.  Four rules are four
full queries per flush today, nine tenths of the alert latency: it shows
O(delta) rule evaluation and what a write-side change costs readers.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from typing import Any

from .. import loadgen, stats, sut
from ..dataset import build_events
from ..harness import Context, Latencies, Result, Walls, overhead_ratio
from ..loadgen import Request, Sample
from ..oracle import Oracle
from ..server import Server, cpu_seconds
from ..spans import durations, root_time, self_time_by_name
from ..texts import RULES, WINDOWED_RULES, reader_texts
from .common import (QueryChecker, account, failures, latencies_by_label,
                     requests_for)

BATCH_LINES = 50
INTERVAL = 0.200
WARMUP_BATCHES = 5
THINK = 0.100
#: The reader asks about the last this many segments of the history and
#: whatever arrived since.
READER_SEGMENTS = 8
#: Noise sessions of the stream: ~27 lines each, a third more than a run
#: of ``run_seconds`` sends.
STREAM_SESSIONS = 250
#: Seconds between the end of the dataset and the start of the stream.
STREAM_GAP = 60.0
#: A traced run spends this share of ``--seconds`` on the HTTP phase and
#: replays the same batches in-process, stepped, afterwards.
TRACED_HTTP_SHARE = 0.7


class IngestChecker:
    """Judges ``/ingest`` responses and keeps what they report."""

    def __init__(self) -> None:
        self.alerts: dict[str, int] = {}
        self.eval_seconds: list[float] = []
        self.stored = 0

    def __call__(self, request: Request, status: int, body: bytes) -> bool:
        try:
            payload = json.loads(body)
            self.eval_seconds.append(payload["eval_seconds"])
            self.stored += payload["stored"]
            for alert in payload["alerts"]:
                rule = alert["rule_id"]
                self.alerts[rule] = self.alerts.get(rule, 0) + 1
            return payload["malformed"] == 0 and \
                payload["lines"] == BATCH_LINES
        except (ValueError, KeyError, TypeError):
            return False


def stream_chunks(context: Context, seconds: float) -> list[str]:
    """The batches to send: the warm-up ones, then one per interval."""
    lines = sut.format_log(build_events(
        STREAM_SESSIONS, context.seed + 1,
        start_time=context.dataset.time_span[1] + STREAM_GAP)).splitlines()
    count = WARMUP_BATCHES + max(1, int(seconds / INTERVAL))
    count = min(count, len(lines) // BATCH_LINES)
    return ["\n".join(lines[index * BATCH_LINES:
                            (index + 1) * BATCH_LINES]) + "\n"
            for index in range(count)]


def run(context: Context) -> Result:
    result = Result()
    http_seconds = context.seconds * (TRACED_HTTP_SHARE if context.traced
                                      else 1.0)
    chunks = stream_chunks(context, http_seconds)
    rules_dir = context.work_dir / "rules"
    rules_dir.mkdir()
    for rule_id, text in RULES.items():
        (rules_dir / f"{rule_id}.tbql").write_text(text + "\n")
    ingests = [Request.build("ingest", "POST", "/ingest", {"log": chunk})
               for chunk in chunks]
    # The oracle holds what the server will hold once the writer is done.
    batches = context.dataset.batches()
    oracle = Oracle(batches +
                    [sut.parse_audit_log(chunk) for chunk in chunks])
    # From where the last READER_SEGMENTS sealed segments begin: the same
    # number of segments to scan whatever the seed's spread of events
    # over time.
    texts = reader_texts(batches[-READER_SEGMENTS][0].start_time)
    racing = QueryChecker(oracle, texts, subset=True)
    settled = QueryChecker(oracle, texts)
    reads = requests_for(texts, use_cache=False)
    judge = IngestChecker()
    try:
        with Server(context.work_dir, "--live", "--snapshot",
                    str(context.snapshot.path), "--rules",
                    str(rules_dir)) as server:
            warm: list[Sample] = []
            for requests, check in ((reads, racing),
                                    (ingests[:WARMUP_BATCHES], judge),
                                    (reads, racing)):
                warm += asyncio.run(loadgen.sequence(
                    server.host, server.port, requests, check))
            for message in failures(warm):
                result.problem(f"warm-up {message}")
            context.setup_done()
            begin = time.perf_counter()
            cpu = cpu_seconds()
            writes, queries = asyncio.run(write_beside_reads(
                server, ingests[WARMUP_BATCHES:], reads, judge, racing,
                context.rng))
            wall = time.perf_counter() - begin
            cpu_share = (cpu_seconds() - cpu) / wall
            final = asyncio.run(loadgen.sequence(
                server.host, server.port, reads, settled))
        for samples in (writes, queries, final):
            account(result, samples)
        for checker in (racing, settled):
            for message in checker.mismatches:
                result.problem(message)
        check_rules(result, oracle, judge)
        if context.traced:
            result.layers = traced_replay(context, chunks)
        result.timed_seconds = time.perf_counter() - begin
    finally:
        oracle.close()

    alert = Latencies([sample.latency for sample in writes])
    reader = Latencies([sample.latency for sample in queries])
    by_text = latencies_by_label(queries)
    late = [max(0.0, sample.lateness) for sample in writes]
    tenth = max(1, len(alert) // 10)
    result.end_to_end = {
        "op_ms": stats.undisturbed(alert.seconds) * 1e3,
        "aux_ms": stats.mean([stats.undisturbed(values)
                              for values in by_text.values()]) * 1e3,
        "peak_rss_mb": server.peak_rss_mb,
        "bytes_per_event":
            context.snapshot.bytes_on_disk / context.dataset.raw_events,
    }
    result.samples = {"op_ms": len(alert), "aux_ms": len(reader)}
    result.detail = {
        "alert_latency": alert.summary(),
        # Like operations: the first and the last tenth cost the same.
        "alert_p50_ms_first_tenth":
            stats.median(alert.seconds[:tenth]) * 1e3,
        "alert_p50_ms_last_tenth":
            stats.median(alert.seconds[-tenth:]) * 1e3,
        "reader_query_latency": reader.summary(),
        "reader_undisturbed_ms_by_text": {
            label: stats.undisturbed(values) * 1e3
            for label, values in by_text.items()},
        "ingest_events_per_s": BATCH_LINES / INTERVAL,
        "late_ratio": loadgen.late_ratio(writes),
        "late_p95_ms": stats.percentile(late, 95) * 1e3,
        "alerts": dict(sorted(judge.alerts.items())),
        "stored_events": judge.stored,
    }
    result.exact = {"alerts": dict(sorted(judge.alerts.items())),
                    "stored_events": judge.stored, "batches": len(chunks)}
    result.exact.update({f"oracle.{label}": value
                         for label, value in oracle.digests.items()})
    if context.traced:
        evals = judge.eval_seconds[WARMUP_BATCHES:]
        tenth = max(1, len(evals) // 10)
        result.layers.update({
            "streaming.engine.rule_eval_ms": stats.median(evals) * 1e3,
            "streaming.engine.rule_eval_ms_first_decile":
                stats.median(evals[:tenth]) * 1e3,
            "streaming.engine.rule_eval_ms_last_decile":
                stats.median(evals[-tenth:]) * 1e3,
            "streaming.engine.alerts": float(sum(judge.alerts.values())),
            "live.alert_latency_p90_ms": alert.ms(90),
            "live.reader_query_p90_ms": reader.ms(90),
            "gen.late_p95_ms": result.detail["late_p95_ms"],
            "gen.late_ratio": result.detail["late_ratio"],
            "gen.cpu_share": cpu_share,
        })
    return result


async def write_beside_reads(server: Server, ingests: list[Request],
                             reads: list[Request], judge: IngestChecker,
                             racing: QueryChecker, rng: random.Random
                             ) -> tuple[list[Sample], list[Sample]]:
    """The open-loop writer and the closed-loop reader on one event loop;
    the reader stops when the writer has sent its last batch.  Its think
    time varies (seeded) between half and one and a half times THINK: at a
    fixed pace a text is asked every 0.66 s beside a writer that is due
    every 0.2 s, and in some runs the same texts keep meeting a flush."""
    stop = asyncio.Event()
    reader = asyncio.ensure_future(loadgen.closed_loop(
        server.host, server.port, reads, 1, 3600.0, racing, stop=stop,
        think=lambda: THINK * (0.5 + rng.random())))
    try:
        writes = await loadgen.open_loop(server.host, server.port, ingests,
                                         INTERVAL, judge)
    finally:
        stop.set()
    return writes, await reader


def check_rules(result: Result, oracle: Oracle, judge: IngestChecker
                ) -> None:
    """A rule fired iff its answer over history plus stream is not empty
    (its first evaluation hunts the whole history).  The ``last N`` rule
    depends on event time; only its exact count is pinned (golden)."""
    for rule_id, text in RULES.items():
        if rule_id in WINDOWED_RULES:
            continue
        expected = bool(oracle.expected(text, f"rule.{rule_id}"))
        fired = judge.alerts.get(rule_id, 0) > 0
        if expected != fired:
            result.problem(f"rule {rule_id}: fired={fired} but the oracle "
                           f"says matches={expected}")


def traced_replay(context: Context, chunks: list[str]) -> dict[str, float]:
    """The same batches through the in-process service, stepped: parse
    alone, then ``QueryService.ingest`` (parse + append + rule
    evaluation; the report carries the evaluation time).  Batches
    alternate untraced / traced; neighbours cost the same, so their
    ratio is the tracing overhead."""
    tracer = context.tracer
    store = sut.DualStore.open(context.snapshot.path, read_only=False)
    engine = sut.DetectionEngine(store)
    for rule_id, text in RULES.items():
        engine.add_rule(text, rule_id=rule_id)
    service = sut.QueryService(store, engine=engine)
    walls: Walls = {True: [], False: []}
    appends: list[float] = []
    try:
        for index, chunk in enumerate(chunks):
            tracer.enabled = index >= WARMUP_BATCHES and index % 2 == 1
            start = time.perf_counter()
            with tracer.span("ingest", request=f"batch-{index}"):
                with tracer.span("audit.parser.parse"):
                    sut.parse_audit_log(chunk)
                parsed = time.perf_counter()
                with tracer.span("service.server.ingest"):
                    report: dict[str, Any] = service.ingest(chunk)
                done = time.perf_counter()
            if index >= WARMUP_BATCHES:
                walls[tracer.enabled].append(done - start)
            if tracer.enabled:
                appends.append(max(0.0, (done - parsed) - (parsed - start)
                                   - report["eval_seconds"]))
    finally:
        tracer.enabled = False
        service.close()
        store.close()
    spans = tracer.spans
    kevents = BATCH_LINES / 1000.0
    layers = {
        "service.server.ingest_ms":
            stats.median(durations(spans, "service.server.ingest")) * 1e3
            if spans else 0.0,
        "streaming.engine.append_ms":
            stats.median(appends) * 1e3 if appends else 0.0,
        "audit.parser.parse_ms_per_kevent":
            stats.median(durations(spans, "audit.parser.parse")) * 1e3
            / kevents if spans else 0.0,
        "budget.self_time_over_root":
            sum(self_time_by_name(spans).values()) / root_time(spans)
            if spans else 0.0,
        "obs.trace.overhead_ratio": overhead_ratio(walls),
    }
    return layers
