"""``bulk_ingest``: audit log text to a saved, reopened, answering store.

Cold repetitions of the whole write path, in-process, closed loop, one
thread, no warm-up (the first repetition is the cold one; ``detail``
reports it): log text ->
``parse_audit_log`` -> per batch ``append_events`` + ``flush_appends``
(a seal) -> ``save`` -> ``DualStore.open`` -> one join query answered.

The write path does all the work and the read path almost none.  Write
cost, space and reopen cost are reported together, so a faster seal that
drops statistics or the columnar payload shows up as worse
``bytes_per_event`` here or slower queries in ``query_cold_http``.

Every repetition does the same work, so each step (the parse, batch
*k*'s append + seal, the save, the reopen, the first answer) has one
sample per repetition; a step's time is the undisturbed one of those
(``stats.undisturbed``), and ``op_ms`` / ``aux_ms`` add the steps up.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from .. import stats, sut
from ..dataset import directory_bytes, equal_batches
from ..harness import Context, Latencies, Result, Walls, overhead_ratio
from ..server import peak_rss_mb
from ..spans import durations, root_time, self_time_by_name
from .common import join_texts

WRITE_LAYERS = ("audit.parser.parse", "storage.dualstore.append",
                "storage.segments.seal", "storage.dualstore.save")


@dataclass
class Repetition:
    wall: float = 0.0                 # log text -> saved snapshot
    traced: bool = False
    parse: float = 0.0
    save: float = 0.0
    open: float = 0.0
    first_answer: float = 0.0
    snapshot_bytes: int = 0
    stored: int = 0
    parsed: int = 0
    stage: dict[str, float] = field(default_factory=dict)
    seal: list[float] = field(default_factory=list)
    append: list[float] = field(default_factory=list)
    segment_stats: dict = field(default_factory=dict)


def repeat_once(context: Context, index: int, text: str,
                result: Result) -> Repetition:
    tracer = context.tracer
    rep = Repetition()
    target = context.work_dir / f"rep-{index}"
    with tracer.span("bulk_ingest.repetition", request=f"rep-{index}"):
        begin = time.perf_counter()
        with tracer.span("audit.parser.parse"):
            events = sut.parse_audit_log(context.dataset.log_text)
        rep.parse = time.perf_counter() - begin
        rep.parsed = len(events)
        store = sut.DualStore(layout="segmented")
        for batch in equal_batches(events, context.scale.segments):
            start = time.perf_counter()
            with tracer.span("storage.dualstore.append"):
                ingest = store.append_events(batch)
            middle = time.perf_counter()
            with tracer.span("storage.segments.seal"):
                store.flush_appends()
            end = time.perf_counter()
            rep.append.append(middle - start)
            rep.seal.append(end - middle)
            for stage, seconds in ingest.seconds.items():
                rep.stage[stage] = rep.stage.get(stage, 0.0) + seconds
        start = time.perf_counter()
        with tracer.span("storage.dualstore.save"):
            manifest = store.save(target)
        rep.save = time.perf_counter() - start
        rep.wall = time.perf_counter() - begin
        rep.stored = manifest["relational_events"]
        store.close()
        del store, events, batch
        # Whether a full collection happens to fall into the reopen is an
        # accident of allocation counts; run it before, untimed.
        gc.collect()
        start = time.perf_counter()
        with tracer.span("storage.dualstore.open"):
            opened = sut.DualStore.open(target)
        middle = time.perf_counter()
        with tracer.span("tbql.executor.execute"):
            executor = sut.TBQLExecutor(opened)
            answer = executor.execute(text)
        rep.open = middle - start
        rep.first_answer = time.perf_counter() - middle
    rep.traced = tracer.enabled
    result.attempted += 1
    if not context.oracle.agrees(text, answer.rows):
        result.fail(f"repetition {index}: first answer disagrees with "
                    "the oracle")
    elif rep.parsed != context.dataset.raw_events or \
            rep.stored != context.snapshot.stored_events:
        result.fail(f"repetition {index}: parsed {rep.parsed} / stored "
                    f"{rep.stored} events, expected "
                    f"{context.dataset.raw_events} / "
                    f"{context.snapshot.stored_events}")
    rep.snapshot_bytes = directory_bytes(target)
    rep.segment_stats = opened.segment_stats()
    executor.close()
    opened.close()
    return rep


def run(context: Context) -> Result:
    result = Result()
    first_answer = join_texts()[16]          # data_leak, 8 patterns
    context.oracle.expected(first_answer.text, first_answer.label)
    reps: list[Repetition] = []
    context.setup_done()
    begin = time.perf_counter()
    estimate = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        if reps and elapsed + estimate > context.seconds:
            break
        # A traced run leaves its second repetition untraced (the first
        # is cold): traced over untraced wall is the tracing overhead.
        context.tracer.enabled = context.traced and len(reps) != 1
        gc.collect()
        start = time.perf_counter()
        reps.append(repeat_once(context, len(reps), first_answer.text,
                                result))
        estimate = time.perf_counter() - start
    result.timed_seconds = time.perf_counter() - begin

    raw = context.dataset.raw_events
    batches = [[r.append[k] + r.seal[k] for r in reps]
               for k in range(len(reps[0].seal))]
    write_path = stats.undisturbed([r.parse for r in reps]) + \
        sum(stats.undisturbed(batch) for batch in batches) + \
        stats.undisturbed([r.save for r in reps])
    reopen = stats.undisturbed([r.open for r in reps]) + \
        stats.undisturbed([r.first_answer for r in reps])
    result.end_to_end = {
        "op_ms": write_path * 1e3 / (raw / 1000.0),
        "aux_ms": reopen * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "bytes_per_event": stats.median(
            [r.snapshot_bytes for r in reps]) / raw,
    }
    result.samples = {"op_ms": len(reps), "aux_ms": len(reps)}
    # Plain medians of the same samples, for the reader of the artifact.
    per_batch = Latencies([stats.median(batch) for batch in batches])
    result.detail = {
        "ingest_events_per_s": raw * len(reps) / sum(r.wall for r in reps),
        "open_to_first_answer_ms": stats.median(
            [r.open + r.first_answer for r in reps]) * 1e3,
        "batch_p50_ms": per_batch.ms(50),
        "batch_p90_ms": per_batch.ms(90),
        "repetitions": len(reps),
        "cold_repetition_s": reps[0].wall,
    }
    result.exact = {"stored_events": reps[0].stored,
                    "raw_events": reps[0].parsed}
    if context.traced:
        result.layers = layer_metrics(context, reps)
    return result


def layer_metrics(context: Context,
                  reps: list[Repetition]) -> dict[str, float]:
    spans = context.tracer.spans
    kevents = context.dataset.raw_events / 1000.0
    traced = [rep for rep in reps if rep.traced]
    count = len(traced)
    walls: Walls = {True: [], False: []}
    for rep in reps[1:]:                       # the first one is cold
        walls[rep.traced].append(rep.wall + rep.open + rep.first_answer)

    def per_kevent(seconds: float) -> float:
        return seconds * 1000.0 / (kevents * count)

    def stage(name: str) -> float:
        return per_kevent(sum(r.stage.get(name, 0.0) for r in traced))

    def mean_ms(name: str) -> float:
        values = durations(spans, name)
        return sum(values) * 1000.0 / len(values) if values else 0.0

    append = sum(sum(r.append) for r in traced)
    seal = sum(sum(r.seal) for r in traced)
    own = self_time_by_name(spans)
    roots = root_time(spans)
    payload: dict[str, int] = {"relational": 0, "columnar": 0, "graph": 0}
    segments = traced[-1].segment_stats.get("segments", [])
    for entry in segments:
        for kind, size in entry.get("payload_bytes", {}).items():
            payload[kind] = payload.get(kind, 0) + size
    layers = {
        "audit.parser.parse_ms_per_kevent":
            per_kevent(sum(durations(spans, "audit.parser.parse"))),
        "audit.parser.rejected_lines":
            float(context.dataset.raw_events - traced[-1].parsed),
        "audit.reduction.reduce_ms_per_kevent": stage("reduce"),
        "audit.reduction.ratio":
            traced[-1].stored / context.dataset.raw_events,
        "storage.dualstore.build_ms_per_kevent": stage("build"),
        "storage.relational.insert_ms_per_kevent": stage("relational"),
        "storage.graph.load_ms_per_kevent": stage("graph"),
        "storage.dualstore.append_ms_per_kevent": per_kevent(append),
        "storage.segments.seal_ms_first":
            stats.median([r.seal[0] for r in traced]) * 1000.0,
        "storage.segments.seal_ms_last":
            stats.median([r.seal[-1] for r in traced]) * 1000.0,
        "storage.segments.seal_share": seal / (append + seal),
        "storage.dualstore.save_ms": mean_ms("storage.dualstore.save"),
        "storage.dualstore.open_ms": mean_ms("storage.dualstore.open"),
        "storage.segments.count": float(len(segments)),
        "storage.bytes.relational": float(payload["relational"]),
        "storage.bytes.columnar": float(payload["columnar"]),
        "storage.bytes.graph": float(payload["graph"]),
        "tbql.executor.execute_ms.join": mean_ms("tbql.executor.execute"),
        "budget.write_path_share":
            sum(own.get(name, 0.0) for name in WRITE_LAYERS) / roots
            if roots else 0.0,
        "budget.self_time_over_root":
            sum(own.values()) / roots if roots else 0.0,
        "obs.trace.overhead_ratio": overhead_ratio(walls),
    }
    return layers
