"""``oscti_hunt``: OSCTI report to hunt result, the paper's headline path.

In-process ``ThreatRaptor`` on the opened snapshot, closed loop, one
thread.  One fuzzy pass (``fuzzy_search`` over the 18 synthesized
queries with one IOC character perturbed, Table IX style), then passes
of the 18 case reports through ``hunt`` (extract -> synthesize ->
``execute_tbql`` -> fuzzy fallback when empty), each followed by
extract + synthesize alone (report -> TBQL, RQ3 / Table VII).

It is the only place ``nlp/``, ``extraction/``, ``tbql.synthesis`` and
``tbql.fuzzy`` run, and it uses no HTTP: a service change must not move
it.  It also carries the accuracy figures, so a speed-up cannot buy
itself with wrong hunts.
"""

from __future__ import annotations

import re
import time
from typing import Any, Iterable

from .. import stats, sut
from ..harness import (Context, Latencies, Result, Walls,
                       alternating_passes, overhead_ratio)
from ..server import peak_rss_mb
from ..spans import durations, root_time, self_time_by_name

#: Report -> TBQL repetitions after each pass of hunts.
REPORT_REPEATS = 5
#: Accuracy floors a run must reach to count as correct (the values the
#: parent commit measures are recorded in README.md).
HUNT_F1_FLOOR = 0.90
EXTRACT_F1_FLOOR = 0.90

_IOC_LITERAL = re.compile(r'"%([^"%]{4,})%"')


class MicroF1:
    """Micro-averaged F1 over sets of predicted / expected items."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, predicted: set, expected: set) -> None:
        hit = len(predicted & expected)
        self.tp += hit
        self.fp += len(predicted) - hit
        self.fn += len(expected) - hit

    @property
    def value(self) -> float:
        denominator = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denominator if denominator else 0.0


def _ioc(value: str) -> str:
    return value.strip().strip("\"'").rstrip("/").lower()


def matched_iocs(predicted: Iterable[str], expected: Iterable[str]
                 ) -> tuple[set, set]:
    """Map predicted IOCs onto the labels they name (a label counts as
    found when a mention equals it up to a leading directory)."""
    labels = [_ioc(value) for value in expected]
    found = set()
    for value in {_ioc(value) for value in predicted}:
        for label in labels:
            if label not in found and (
                    value == label or label.endswith("/" + value) or
                    value.endswith("/" + label)):
                value = label
                break
        found.add(value)
    return found, set(labels)


def lowered(triples: Iterable[tuple]) -> set:
    return {tuple(str(part).lower() for part in triple)
            for triple in triples}


def perturb(text: str, position: int) -> str:
    """Change one character of the first long IOC literal of a query."""
    match = _IOC_LITERAL.search(text)
    if match is None:
        return text
    start, end = match.span(1)
    index = start + position % (end - start)
    swapped = "x" if text[index] != "x" else "y"
    return text[:index] + swapped + text[index + 1:]


def run(context: Context) -> Result:
    result = Result()
    tracer = context.tracer
    cases = list(sut.ALL_CASES)
    raptor = sut.ThreatRaptor.open_snapshot(context.snapshot.path)
    hunt_f1, extract_f1 = MicroF1(), MicroF1()
    queries: list[str] = []
    fuzzy_fallbacks = 0
    # Warm-up pass: also scores accuracy and checks every executed query
    # against the oracle (later passes repeat the same deterministic work).
    for case in cases:
        report = raptor.hunt(case.description, fallback_to_fuzzy=True)
        queries.append(report.executed_query)
        if not context.oracle.agrees(report.executed_query,
                                     report.result.rows):
            result.problem(f"{case.case_id}: hunt rows disagree with "
                           "the oracle")
        context.oracle.expected(report.executed_query,
                                f"hunt.{case.case_id}")
        fuzzy_fallbacks += report.fuzzy_result is not None
        hunt_f1.add(lowered((event["subject"], event["operation"],
                             event["object"])
                            for event in report.result.matched_events),
                    lowered(case.hunting_ground_truth()))
        extract_f1.add(*matched_iocs(report.extraction.ioc_values,
                                     case.ground_truth_iocs))
        extract_f1.add(
            {(_ioc(s), v.strip().lower(), _ioc(o))
             for s, v, o in report.extraction.relation_triples},
            {(_ioc(s), v.strip().lower(), _ioc(o))
             for s, v, o in case.ground_truth_relations})
    context.setup_done()

    begin = time.perf_counter()
    fuzzy = Latencies()
    fuzzy_parts: dict[str, list[float]] = {
        "loading": [], "preprocessing": [], "searching": [], "candidates": []}
    tracer.enabled = context.traced
    for index, text in enumerate(queries):
        start = time.perf_counter()
        with tracer.span("fuzzy", request=f"fuzzy-{index}"):
            with tracer.span("tbql.fuzzy.search"):
                found = raptor.fuzzy_search(
                    perturb(text, context.rng.randrange(1 << 16)))
        fuzzy.add(time.perf_counter() - start)
        result.attempted += 1
        fuzzy_parts["loading"].append(found.loading_seconds)
        fuzzy_parts["preprocessing"].append(found.preprocessing_seconds)
        fuzzy_parts["searching"].append(found.searching_seconds)
        fuzzy_parts["candidates"].append(
            float(sum(found.candidate_counts.values())))

    hunts, reports = Latencies(), Latencies()
    # One list per case: the same report hunted once per pass.
    hunt_by_case: list[list[float]] = [[] for _ in cases]
    report_by_case: list[list[float]] = [[] for _ in cases]
    walls: Walls = {True: [], False: []}
    stepped: dict[str, list[Any]] = {"extract": [], "graph": [], "iocs": [],
                                     "relations": [], "execute": []}
    for passes in alternating_passes(context, walls, begin=begin):
        for index, case in enumerate(cases):
            request = f"{case.case_id}#{passes}"
            if context.traced:
                seconds = stepped_hunt(raptor, case, request, tracer,
                                       stepped, result, queries[index])
            else:
                began = time.perf_counter()
                report = raptor.hunt(case.description,
                                     fallback_to_fuzzy=True)
                seconds = time.perf_counter() - began
                if report.executed_query != queries[index]:
                    result.fail(f"{case.case_id}: synthesized a "
                                "different query than the warm-up pass")
            hunts.add(seconds)
            hunt_by_case[index].append(seconds)
            result.attempted += 1
        for _ in range(REPORT_REPEATS):
            for index, case in enumerate(cases):
                began = time.perf_counter()
                with tracer.span("report_to_tbql"):
                    with tracer.span("extraction.pipeline.extract"):
                        extraction = raptor.extract(case.description)
                    with tracer.span("tbql.synthesis.synthesize"):
                        raptor.synthesize(extraction)
                reports.add(time.perf_counter() - began)
                report_by_case[index].append(reports.seconds[-1])
    result.timed_seconds = time.perf_counter() - begin

    # Each case's undisturbed time, averaged over the 18 cases: a pass of
    # hunts divided by 18, so the three that fall through to the fuzzy
    # search weigh in.
    result.end_to_end = {
        "op_ms": stats.mean([stats.undisturbed(values)
                             for values in hunt_by_case]) * 1e3,
        "aux_ms": stats.mean([stats.undisturbed(values)
                              for values in report_by_case]) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "bytes_per_event":
            context.snapshot.bytes_on_disk / context.dataset.raw_events,
    }
    result.samples = {"op_ms": len(hunts), "aux_ms": len(reports)}
    result.detail = {
        "hunt_p50_ms": hunts.ms(50),
        "report_to_tbql_p50_ms": reports.ms(50),
        "fuzzy_p50_ms": fuzzy.ms(50),
        "hunt_f1": hunt_f1.value, "extract_f1": extract_f1.value,
        "fuzzy_fallbacks": fuzzy_fallbacks,
        "hunt_latency": hunts.summary(),
        "passes": len(hunt_by_case[0]),
    }
    result.exact = {"hunt_f1": hunt_f1.value,
                    "extract_f1": extract_f1.value,
                    "fuzzy_fallbacks": fuzzy_fallbacks}
    if hunt_f1.value < HUNT_F1_FLOOR:
        result.problem(f"hunt_f1 {hunt_f1.value:.4f} is below "
                       f"{HUNT_F1_FLOOR}")
    if extract_f1.value < EXTRACT_F1_FLOOR:
        result.problem(f"extract_f1 {extract_f1.value:.4f} is below "
                       f"{EXTRACT_F1_FLOOR}")
    if context.traced:
        spans = tracer.spans
        own = self_time_by_name(spans)
        extraction = own.get("extraction.pipeline.extract", 0.0) + \
            own.get("tbql.synthesis.synthesize", 0.0)
        hunt_total = sum(durations(spans, "hunt"))
        in_hunts = sum(
            span.duration for span in spans
            if span.name in ("extraction.pipeline.extract",
                             "tbql.synthesis.synthesize") and
            span.request and "#" in span.request)
        result.layers = {
            "extraction.pipeline.extract_ms":
                stats.median(stepped["extract"]) * 1e3,
            "extraction.pipeline.graph_ms":
                stats.median(stepped["graph"]) * 1e3,
            "extraction.pipeline.iocs": stats.median(stepped["iocs"]),
            "extraction.pipeline.relations":
                stats.median(stepped["relations"]),
            "extraction.pipeline.extract_f1": extract_f1.value,
            "hunting.threatraptor.hunt_f1": hunt_f1.value,
            "tbql.synthesis.synthesize_us": stats.median(
                durations(spans, "tbql.synthesis.synthesize")) * 1e6,
            "hunting.threatraptor.execute_share":
                sum(stepped["execute"]) / hunt_total,
            "tbql.executor.execute_ms.join":
                stats.median(stepped["execute"]) * 1e3,
            "tbql.fuzzy.search_ms": fuzzy.ms(50),
            "tbql.fuzzy.loading_ms":
                stats.median(fuzzy_parts["loading"]) * 1e3,
            "tbql.fuzzy.preprocessing_ms":
                stats.median(fuzzy_parts["preprocessing"]) * 1e3,
            "tbql.fuzzy.searching_ms":
                stats.median(fuzzy_parts["searching"]) * 1e3,
            "tbql.fuzzy.candidates":
                stats.median(fuzzy_parts["candidates"]),
            "budget.extraction_share_of_hunt": in_hunts / hunt_total,
            "budget.extraction_share_of_report_to_tbql":
                (extraction - in_hunts) /
                sum(durations(spans, "report_to_tbql")),
            "budget.self_time_over_root":
                sum(own.values()) / root_time(spans),
            "obs.trace.overhead_ratio": overhead_ratio(walls),
        }
    return result


def stepped_hunt(raptor: Any, case: Any, request: str, tracer: Any,
                 stepped: dict[str, list[Any]], result: Result,
                 expected_query: str) -> float:
    """``hunt`` taken apart into its public steps, one span each."""
    began = time.perf_counter()
    with tracer.span("hunt", request=request):
        with tracer.span("extraction.pipeline.extract"):
            extraction = raptor.extract(case.description)
        with tracer.span("tbql.synthesis.synthesize"):
            synthesized = raptor.synthesize(extraction)
        start = time.perf_counter()
        with tracer.span("tbql.executor.execute"):
            answer = raptor.execute_tbql(synthesized.text)
        executed = time.perf_counter() - start
        if not answer.rows:
            with tracer.span("tbql.fuzzy.search"):
                raptor.fuzzy_search(synthesized.text)
    seconds = time.perf_counter() - began
    if synthesized.text != expected_query:
        result.fail(f"{case.case_id}: stepped hunt synthesized a "
                    "different query than hunt()")
    if tracer.enabled:
        stepped["extract"].append(extraction.extraction_seconds)
        stepped["graph"].append(extraction.graph_seconds)
        stepped["iocs"].append(float(len(extraction.iocs)))
        stepped["relations"].append(float(len(extraction.relations)))
        stepped["execute"].append(executed)
    return seconds
