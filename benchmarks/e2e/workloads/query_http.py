"""``query_cold_http``: TBQL text to answer over HTTP, cache bypassed.

Drives ``POST /query`` of ``repro serve --snapshot`` (a subprocess,
default settings) with one keep-alive client in a closed loop: a seeded
rotation of 24 texts in six classes with ``"use_cache": false``.
Planner, pruning, scans, joins, hydration, aggregation and JSON
serialization do the work, the socket and the cache do little.  It shows
executor and scan optimisations.

Each text is asked once per pass of the rotation; its time is the
undisturbed one of its repetitions (``stats.undisturbed``).  ``op_ms`` is
the mean of those over the 24 texts (a pass divided by 24: the heavy
joins weigh in), ``aux_ms`` their median (the typical light query).

The traced run adds a short phase the other way round: the 18
small-answer join texts with the result cache on (working set 18, cache
256), every request an inline cache hit, so the asyncio front end, the
cache and the socket do the work and the executor none.  That is where
the ``service.aserver.*`` / ``service.cache.*`` layer metrics come from.
Sub-millisecond round trips between two processes time the host's
scheduler more than the program (README.md, *Steadiness*), so they are
layer metrics, not end-to-end ones.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

from .. import loadgen, stats, sut
from ..harness import (Context, Latencies, Result, Walls,
                       alternating_passes, overhead_ratio)
from ..loadgen import Request, Sample, query_request
from ..server import Server, cpu_seconds
from ..spans import Span, durations, root_time, self_time_by_name
from ..texts import (CLASSES, COLD_JOIN_CASES, QueryText, class_of,
                     fixed_texts)
from .common import (QueryChecker, account, failures, join_texts,
                     latencies_by_label, requests_for)

#: One client.  The server executes Python under one interpreter lock, so
#: with two clients a request's latency is set by whichever text the other
#: client happens to run beside it (spread over ten seeds: p50 20%, p90
#: 13%; with one client see README) and no more requests complete.
COLD_CLIENTS = 1
#: Share of a traced run spent on the cache-hit phase.
HOT_SHARE = 0.3

#: The hot traced phase stops recording (but keeps running) beyond this.
MAX_HOT_SPANS = 40_000

HEALTHZ = Request.build("healthz", "GET", "/healthz")
STATS = Request.build("stats", "GET", "/stats")


def accept_any(request: Request, status: int, body: bytes) -> bool:
    return True


def cold_texts(context: Context) -> list[QueryText]:
    joins = join_texts()
    return fixed_texts(context.dataset.time_span) + \
        [joins[index] for index in COLD_JOIN_CASES]


def summarize(result: Result, samples: list[Sample], wall: float,
              server: Server, context: Context) -> None:
    by_text = latencies_by_label(samples)
    quiet = {label: stats.undisturbed(values)
             for label, values in by_text.items()}
    result.end_to_end = {
        "op_ms": stats.mean(list(quiet.values())) * 1e3,
        "aux_ms": stats.median(list(quiet.values())) * 1e3,
        "peak_rss_mb": server.peak_rss_mb,
        "bytes_per_event":
            context.snapshot.bytes_on_disk / context.dataset.raw_events,
    }
    result.samples = {"op_ms": len(samples), "aux_ms": len(samples)}
    # Plain figures of the same samples, for the reader of the artifact.
    latency = Latencies([sample.latency for sample in samples])
    correct = sum(1 for sample in samples if sample.ok)
    result.detail = {
        "query_qps": correct / wall,
        "query_latency": latency.summary(),
        "passes": min(len(values) for values in by_text.values()),
        "undisturbed_ms_by_text": {label: value * 1e3
                                   for label, value in quiet.items()},
        "p50_ms_by_text": {label: stats.median(values) * 1e3
                           for label, values in by_text.items()},
    }
    for name in sorted({class_of(label) for label in by_text}):
        result.detail[f"query_latency.{name}"] = Latencies(
            [sample.latency for sample in samples
             if class_of(sample.label) == name]).summary()


# ---------------------------------------------------------------- cold
def run(context: Context) -> Result:
    result = Result()
    texts = cold_texts(context)
    texts = context.rng.sample(texts, len(texts))     # seeded order
    checker = QueryChecker(context.oracle, texts)
    requests = requests_for(texts, use_cache=False)
    with Server(context.work_dir, "--snapshot",
                str(context.snapshot.path)) as server:
        cpu, clock = cpu_seconds(), time.perf_counter()
        warm = asyncio.run(loadgen.sequence(
            server.host, server.port, requests, checker))
        cpu_share = (cpu_seconds() - cpu) / (time.perf_counter() - clock)
        for message in failures(warm):
            result.problem(f"warm-up {message}")
        context.setup_done()
        begin = time.perf_counter()
        if context.traced:
            result.layers = traced_cold(context, server, texts, checker,
                                        result)
            result.layers.update(traced_hot(context, server, result))
            result.layers["gen.cpu_share"] = cpu_share
        else:
            samples = asyncio.run(loadgen.closed_loop(
                server.host, server.port, requests, COLD_CLIENTS,
                context.seconds, checker))
            account(result, samples)
        result.timed_seconds = time.perf_counter() - begin
    if not context.traced:
        summarize(result, samples, result.timed_seconds, server, context)
    for message in checker.mismatches:
        result.problem(message)
    return result


def plan_numbers(answer: Any) -> dict[str, float]:
    """Counts and seconds of one in-process answer's plan."""
    numbers = {"rows_in": 0.0, "scanned": 0.0, "pruned": 0.0,
               "hydration": 0.0, "scan_seconds": 0.0,
               "rows_out": float(len(answer.rows))}
    for step in answer.plan:
        numbers["rows_in"] += step.rows_in
        numbers["scanned"] += step.segments_scanned or 0
        numbers["pruned"] += (step.segments_pruned or 0) + \
            (step.segments_pruned_by_stats or 0)
        numbers["hydration"] += step.hydration_queries
        numbers["scan_seconds"] += step.seconds.get("execute", 0.0)
    return numbers


def traced_cold(context: Context, server: Server, texts: list[QueryText],
                checker: QueryChecker, result: Result) -> dict[str, float]:
    """Step through the rotation: the HTTP request, then the same text
    through the in-process service, executor and serializer, so the
    front end's share is what the inner layers do not explain."""
    tracer = context.tracer
    store = sut.DualStore.open(context.snapshot.path)
    service = sut.QueryService(store)
    executor = sut.TBQLExecutor(store)
    client = loadgen.SyncClient(server.host, server.port)
    requests = requests_for(texts, use_cache=False)
    plans: dict[str, list[dict[str, float]]] = {}
    joins: dict[str, list[float]] = {}
    body_bytes: dict[str, list[int]] = {}
    walls: Walls = {True: [], False: []}
    try:
        for passes in alternating_passes(
                context, walls,
                seconds=context.seconds * (1.0 - HOT_SHARE)):
            for text, request in zip(texts, requests):
                name = text.query_class
                with tracer.span("request", request=f"{text.label}#{passes}",
                                 query_class=name):
                    with tracer.span("client.http", query_class=name):
                        sample = client.send(request, checker)
                    with tracer.span("tbql.parser.parse"):
                        parsed = sut.parse_tbql(text.text)
                    with tracer.span("tbql.semantics.resolve"):
                        sut.resolve_query(parsed)
                    with tracer.span("service.server.query",
                                     query_class=name):
                        payload = service.query(text.text, use_cache=False)
                    with tracer.span("tbql.executor.execute",
                                     query_class=name):
                        answer = executor.execute(text.text)
                    with tracer.span("service.server.serialize",
                                     query_class=name):
                        body = json.dumps(payload)
                account(result, [sample])
                if tracer.enabled:
                    plans.setdefault(name, []).append(plan_numbers(answer))
                    joins.setdefault(name, []).append(answer.join_seconds)
                    body_bytes.setdefault(name, []).append(len(body))
        profile = harvest_profiles(client, texts)
    finally:
        client.close()
        executor.close()
        service.close()
        store.close()
    spans = tracer.spans
    layers = {
        "tbql.parser.parse_us": median_us(spans, "tbql.parser.parse"),
        "tbql.semantics.resolve_us":
            median_us(spans, "tbql.semantics.resolve"),
        "service.server.query_miss_ms":
            median_ms(spans, "service.server.query"),
        "obs.trace.overhead_ratio": overhead_ratio(walls),
        "budget.executor_share":
            sum(durations(spans, "tbql.executor.execute")) /
            sum(durations(spans, "client.http")),
        "budget.self_time_over_root":
            sum(self_time_by_name(spans).values()) / root_time(spans),
    }
    for name in CLASSES:
        layers[f"tbql.executor.execute_ms.{name}"] = median_ms(
            spans, "tbql.executor.execute", query_class=name)
    for name in ("join", "sequence"):
        layers[f"tbql.executor.join_ms.{name}"] = \
            stats.median(joins[name]) * 1000.0
    for name in ("join", "groupby"):
        layers[f"service.server.serialize_ms.{name}"] = median_ms(
            spans, "service.server.serialize", query_class=name)
        layers[f"service.server.response_bytes.{name}"] = \
            stats.median(body_bytes[name])
    everything = [numbers for group in plans.values() for numbers in group]
    scan_ms = sum(n["scan_seconds"] for n in everything) * 1000.0
    layers.update({
        "tbql.executor.rows_scanned_per_row_returned":
            sum(n["rows_in"] for n in everything) /
            max(1.0, sum(n["rows_out"] for n in everything)),
        "tbql.executor.hydration_queries":
            sum(n["hydration"] for n in everything) / len(everything),
        "tbql.colscan.scan_ms_per_segment":
            scan_ms / max(1.0, sum(n["scanned"] for n in everything)),
        "tbql.colscan.rows_per_ms":
            sum(n["rows_in"] for n in everything) / scan_ms,
    })
    for name in ("point", "window"):
        scanned = sum(n["scanned"] for n in plans[name])
        pruned = sum(n["pruned"] for n in plans[name])
        layers[f"tbql.pruning.segments_pruned_fraction.{name}"] = \
            pruned / max(1.0, scanned + pruned)
    layers.update(profile)
    return layers


class PayloadKeeper:
    """A ``Check`` that keeps the JSON payload it judged (``GET /stats``,
    profiled queries)."""

    def __init__(self) -> None:
        self.payload: dict = {}

    def __call__(self, request: Request, status: int, body: bytes) -> bool:
        try:
            self.payload = json.loads(body)
        except ValueError:
            self.payload = {}
            return False
        return True


def counter_delta(before: dict, after: dict, name: str) -> int:
    return after.get("counters", {}).get(name, 0) - \
        before.get("counters", {}).get(name, 0)


def cache_layers(before: dict, after: dict) -> dict[str, float]:
    """Out of two ``GET /stats`` payloads: the result-cache hit ratio of
    the requests between them, and the plan-cache hit ratio and refused
    requests of the server's whole life."""
    def lookups(payload: dict, cache: str) -> tuple[int, int]:
        entry = payload.get(cache, {})
        return entry.get("hits", 0), entry.get("misses", 0)
    hits = lookups(after, "result_cache")[0] - \
        lookups(before, "result_cache")[0]
    misses = lookups(after, "result_cache")[1] - \
        lookups(before, "result_cache")[1]
    plan_hits, plan_misses = lookups(after, "plan_cache")
    lanes = after.get("server", {}).get("lanes", {})
    return {
        "service.cache.result_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "service.cache.plan_hit_ratio":
            plan_hits / (plan_hits + plan_misses)
            if plan_hits + plan_misses else 0.0,
        "service.aserver.rejected_429":
            float(sum(lane.get("rejected", 0) for lane in lanes.values())),
    }


def harvest_profiles(client: loadgen.SyncClient,
                     texts: list[QueryText]) -> dict[str, float]:
    """One ``"profile": true`` request per class; the system's own span
    tree, summed by span name and averaged over the classes.  Secondary:
    reported beside the outside timings, never instead of them."""
    names = ("parse", "plan", "scan", "scatter", "hydrate", "join",
             "aggregate")
    totals = dict.fromkeys(names, 0.0)
    keeper = PayloadKeeper()
    seen = set()
    for text in texts:
        if text.query_class in seen:
            continue
        seen.add(text.query_class)
        client.send(query_request(text.label, text.text, profile=True),
                    keeper)

        def walk(node: dict) -> None:
            if node.get("name") in totals:
                totals[node["name"]] += node.get("duration_ms", 0.0)
            for child in node.get("children", []):
                walk(child)
        walk(keeper.payload.get("profile", {}))
    return {f"tbql.span.{name}_ms": value / max(1, len(seen))
            for name, value in totals.items()}


def median_ms(spans: list[Span], name: str, **attrs: str) -> float:
    values = durations(spans, name, **attrs)
    return stats.median(values) * 1e3 if values else 0.0


def median_us(spans: list[Span], name: str) -> float:
    return median_ms(spans, name) * 1e3


# ----------------------------------------------------------------- hot
def traced_hot(context: Context, server: Server, result: Result
               ) -> dict[str, float]:
    """The cache-hit phase of the traced run: each hit over HTTP, then the
    same hit through the in-process service, then ``/healthz`` (the socket
    and event-loop floor)."""
    tracer = context.tracer
    texts = context.rng.sample(join_texts(), 18)      # seeded order
    checker = QueryChecker(context.oracle, texts)
    requests = requests_for(texts, use_cache=True)
    first_span = len(tracer.spans)
    store = sut.DualStore.open(context.snapshot.path)
    service = sut.QueryService(store)
    client = loadgen.SyncClient(server.host, server.port)
    walls: Walls = {True: [], False: []}
    before, after = PayloadKeeper(), PayloadKeeper()
    try:
        warm = [client.send(request, checker) for request in requests]
        account(result, warm)                     # fills the server's cache
        for text in texts:
            service.query(text.text)              # and the in-process one
        account(result, [client.send(STATS, before)])
        for passes in alternating_passes(
                context, walls, MAX_HOT_SPANS,
                seconds=context.seconds * HOT_SHARE):
            for text, request in zip(texts, requests):
                with tracer.span("request",
                                 request=f"{text.label}#hot{passes}"):
                    with tracer.span("client.http"):
                        sample = client.send(request, checker)
                    with tracer.span("service.server.query_hit"):
                        service.query(text.text)
                    with tracer.span("client.healthz"):
                        ping = client.send(HEALTHZ, accept_any)
                account(result, [sample, ping])
        account(result, [client.send(STATS, after)])
    finally:
        client.close()
        service.close()
        store.close()
    for message in checker.mismatches:
        result.problem(message)
    spans = tracer.spans[first_span:]
    http_us = median_us(spans, "client.http")
    hit_us = median_us(spans, "service.server.query_hit")
    # Every timed request must have been answered from the cache on the
    # event loop: what the executor ran in this phase, priced at the
    # warm-up's misses, over the time the phase spent in requests.
    ran = counter_delta(before.payload, after.payload, "queries") - \
        counter_delta(before.payload, after.payload, "query_cache_hits")
    miss_seconds = stats.median([sample.latency for sample in warm])
    layers = {
        "service.server.query_hit_us": hit_us,
        "service.aserver.http_overhead_us": http_us - hit_us,
        "service.aserver.healthz_us": median_us(spans, "client.healthz"),
        "budget.executor_share_hot":
            max(0, ran) * miss_seconds /
            sum(durations(spans, "client.http")),
    }
    layers.update(cache_layers(before.payload, after.payload))
    return layers
