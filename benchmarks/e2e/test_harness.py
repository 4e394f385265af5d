"""Self-test of the benchmark harness (collected by the tier-1 command).

Checks the arithmetic the numbers rest on — percentiles and the
ten-beyond rule, span self time, open-loop lateness and failure
accounting, ``compare`` verdicts — and that what a run emits is exactly
what BENCHMARK.json declares.  The two in-process workloads run once at
``--scale smoke``; the HTTP workloads are exercised by the benchmark
itself, not here.
"""

from __future__ import annotations

import asyncio
import re
import time

import pytest

from benchmarks.e2e import compare, harness, load_spec, loadgen, stats
from benchmarks.e2e.spans import (Span, Tracer, child_coverage, root_time,
                                  self_time_by_name, self_times)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------ percentiles
def test_percentile_interpolates():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_ten_samples_beyond_rule():
    assert stats.is_supported(100, 90)
    assert not stats.is_supported(99, 90)
    assert stats.is_supported(200, 95) and not stats.is_supported(199, 95)
    latencies = harness.Latencies([0.001 * n for n in range(1, 151)])
    summary = latencies.summary()
    assert "p90_ms" in summary and "p95_ms" not in summary
    assert summary["samples"] == 150


def test_undisturbed_time_ignores_the_disturbed_repetitions():
    quiet = [10.0, 10.1, 10.2, 10.1, 10.0, 10.2, 10.1, 10.0, 10.1, 10.2]
    busy = quiet[:3] + [value * 1.5 for value in quiet[3:]]
    assert stats.undisturbed(busy) == pytest.approx(
        stats.undisturbed(quiet), rel=0.02)
    assert stats.median(busy) > 1.4 * stats.median(quiet)
    # A slower program moves it as much as it moves the median.
    assert stats.undisturbed([value * 1.2 for value in quiet]) == \
        pytest.approx(1.2 * stats.undisturbed(quiet))
    assert stats.undisturbed([7.0]) == 7.0
    assert stats.mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)


def test_relative_iqr_matches_the_driver():
    import statistics
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


# ------------------------------------------------------------------ spans
def _span(span_id, name, start, end, parent=None):
    return Span(span_id=span_id, name=name, start=start, end=end,
                parent=parent)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(1, "request", 0.0, 10.0),
        _span(2, "http", 1.0, 4.0, parent=1),
        _span(3, "execute", 3.0, 8.0, parent=1),      # overlaps http
        _span(4, "scan", 4.0, 6.0, parent=3),
    ]
    assert child_coverage(spans[0], spans[1:3]) == pytest.approx(7.0)
    own = self_times(spans)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(2.0)
    # Without overlap, self times add up to the root spans exactly.
    tidy = [_span(1, "request", 0.0, 10.0), _span(2, "a", 1.0, 4.0, 1),
            _span(3, "b", 4.0, 9.0, 1), _span(4, "c", 5.0, 6.0, 3)]
    assert sum(self_time_by_name(tidy).values()) == pytest.approx(
        root_time(tidy))


def test_tracer_records_parents_and_requests_only_when_enabled():
    tracer = Tracer(enabled=False)
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("request", request="r1"):
        with tracer.span("inner", rows=3) as inner:
            pass
    outer, inner_span = tracer.spans
    assert inner_span.parent == outer.span_id and outer.parent is None
    assert inner_span.request == "r1" and inner.attrs == {"rows": 3}
    assert outer.start <= inner_span.start <= inner_span.end <= outer.end


# ---------------------------------------------------------- load generator
async def _serve(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _slow_server(delay: float, fail_on: int = -1):
    """Answers 200 after ``delay``; request number ``fail_on`` gets 500."""
    count = 0

    async def handle(reader, writer):
        nonlocal count
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(re.search(rb"Content-Length: (\d+)",
                                       head).group(1))
                await reader.readexactly(length)
                await asyncio.sleep(delay)
                status = b"500 Oops" if count == fail_on else b"200 OK"
                count += 1
                writer.write(b"HTTP/1.1 " + status + b"\r\nContent-Length: "
                             b"2\r\nConnection: keep-alive\r\n\r\n{}")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
    return handle


def test_open_loop_times_from_the_due_instant_and_reports_lateness():
    delay, interval = 0.030, 0.010

    async def scenario():
        server, port = await _serve(_slow_server(delay))
        async with server:
            requests = [loadgen.Request.build("ingest", "POST", "/ingest",
                                              {"n": n}) for n in range(4)]
            return await loadgen.open_loop("127.0.0.1", port, requests,
                                           interval, lambda *_: True)
    samples = asyncio.run(scenario())
    assert [sample.ok for sample in samples] == [True] * 4
    # One connection, a 30 ms answer, a 10 ms schedule: request n can only
    # be written once n answers came back, so it slips by >= n * 20 ms.
    for n, sample in enumerate(samples):
        assert sample.lateness >= n * (delay - interval) - 0.002
        assert sample.latency == pytest.approx(
            sample.lateness + (sample.done - sample.sent))
        assert sample.latency >= delay
    assert samples[0].lateness < loadgen.LATE_AFTER
    assert loadgen.late_ratio(samples) == pytest.approx(0.75)


def test_failed_requests_stay_attempted_and_are_charged_the_timeout():
    async def scenario():
        server, port = await _serve(_slow_server(0.0, fail_on=1))
        async with server:
            rotation = [loadgen.Request.build("q", "POST", "/query",
                                              {"tbql": "x"})]
            wrong = await loadgen.sequence(
                "127.0.0.1", port, rotation, lambda *_: False)
            mixed = await loadgen.sequence(
                "127.0.0.1", port, rotation * 2, lambda *_: True)
            return wrong + mixed
    oracle_miss, refused, fine = asyncio.run(scenario())
    assert not oracle_miss.ok and oracle_miss.status == 200
    assert not refused.ok and refused.status == 500
    assert fine.ok
    for failed in (oracle_miss, refused):
        assert failed.latency >= loadgen.REQUEST_TIMEOUT
    assert fine.latency < 1.0


def test_closed_loop_stops_at_the_deadline_with_every_client_busy():
    async def scenario():
        server, port = await _serve(_slow_server(0.005))
        async with server:
            rotation = [loadgen.Request.build(f"q{n}", "POST", "/query",
                                              {"n": n}) for n in range(4)]
            start = time.perf_counter()
            samples = await loadgen.closed_loop(
                "127.0.0.1", port, rotation, 2, 0.1, lambda *_: True)
            return samples, time.perf_counter() - start
    samples, wall = asyncio.run(scenario())
    assert all(sample.ok for sample in samples)
    assert 0.1 <= wall < 1.0
    assert {sample.label for sample in samples} == {"q0", "q1", "q2", "q3"}


def test_closed_loop_think_time_paces_the_client():
    async def scenario():
        server, port = await _serve(_slow_server(0.0))
        async with server:
            rotation = [loadgen.Request.build("q", "POST", "/query",
                                              {"n": 1})]
            return await loadgen.closed_loop(
                "127.0.0.1", port, rotation, 1, 0.2, lambda *_: True,
                think=lambda: 0.05)
    samples = asyncio.run(scenario())
    # A request every 50 ms plus its round trip: at most five in 0.2 s,
    # and the think time is not part of any latency.
    assert 2 <= len(samples) <= 5
    assert all(sample.ok and sample.latency < 0.05 for sample in samples)


# ------------------------------------------------------------------- spec
def test_benchmark_json_respects_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 <= entry["bound"] <= 0.25
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])
    from benchmarks.e2e.workloads import WORKLOADS
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)


def test_driver_line_emits_exactly_the_declared_names():
    spec = load_spec()
    result = harness.Result(attempted=5, failed=0)
    result.end_to_end = {entry["name"]: 1.5 for entry in spec["end_to_end"]}
    line = harness.driver_line(spec, result, traced=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [e["name"] for e in spec["end_to_end"]]
    assert line["correct"] and line["attempted"] == 5
    result.layers = {spec["per_layer"][0]["name"]: 2.0}
    traced = harness.driver_line(spec, result, traced=True)
    assert list(traced["metrics"]) == [e["name"] for e in spec["per_layer"]]
    assert traced["metrics"][spec["per_layer"][1]["name"]]["value"] == 0.0
    result.layers["not.declared"] = 1.0
    with pytest.raises(KeyError):
        harness.driver_line(spec, result, traced=True)
    del result.end_to_end["setup_s"]
    with pytest.raises(KeyError):
        harness.driver_line(spec, result, traced=False)
    result.end_to_end["setup_s"] = 1.0
    result.fail("one wrong answer")
    assert not harness.driver_line(spec, result, traced=False)["correct"]


@pytest.mark.parametrize("workload,traced", [("bulk_ingest", False),
                                             ("oscti_hunt", True)])
def test_in_process_workloads_run_green_at_smoke_scale(workload, traced):
    spec = load_spec()
    line, artifact, tracer = harness.run_workload(
        workload, seed=13, seconds=0.5, traced=traced, scale_name="smoke",
        started=time.perf_counter())
    assert line["correct"], artifact["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    assert list(line["metrics"]) == [entry["name"] for entry in declared]
    assert artifact["claim"] is None and artifact["schema_version"] == 1
    if traced:
        assert tracer.spans
        assert line["metrics"]["budget.self_time_over_root"]["value"] == \
            pytest.approx(1.0, abs=0.05)
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


# ---------------------------------------------------------------- compare
def _runs(workload, values, failed=0):
    return {workload: [{"workload": workload, "attempted": 100,
                        "failed": failed, "correct": failed == 0,
                        "end_to_end": dict(value)} for value in values]}


def test_compare_verdicts():
    spec = {"workloads": [{"name": "w", "why": ""}],
            "end_to_end": [
                {"name": "latency_ms", "unit": "ms", "better": "lower",
                 "bound": 0.10},
                {"name": "qps", "unit": "1/s", "better": "higher",
                 "bound": 0.10}]}
    steady = [{"latency_ms": 10.0 + 0.01 * n, "qps": 100.0 + 0.1 * n}
              for n in range(5)]
    slower = [{"latency_ms": 12.0 + 0.01 * n, "qps": 99.0 + 0.1 * n}
              for n in range(5)]
    noisy = [{"latency_ms": value, "qps": 100.0}
             for value in (8.0, 10.0, 12.0, 14.0, 16.0)]

    def verdicts(parent, change):
        rows, reasons = compare.compare(spec, _runs("w", parent),
                                        _runs("w", change))
        return {row["metric"]: row["verdict"] for row in rows}, reasons

    assert verdicts(steady, steady) == ({"latency_ms": "ok", "qps": "ok"},
                                        [])
    assert verdicts(steady, slower)[0] == {"latency_ms": "regressed",
                                           "qps": "ok"}
    # Faster is never a regression; a spread wider than the bound is
    # unresolved whether or not the medians moved.
    assert verdicts(slower, steady)[0]["latency_ms"] == "ok"
    assert verdicts(steady, noisy)[0]["latency_ms"] == "unresolved"
    assert verdicts(noisy, noisy)[0]["latency_ms"] == "unresolved"
    rows, reasons = compare.compare(spec, _runs("w", steady),
                                    _runs("w", steady, failed=1))
    assert len(reasons) == 2 and "fail ratio rose" in reasons[0]


def test_compare_exit_codes(tmp_path, capsys):
    import json
    spec = load_spec()
    good = {entry["name"]: 10.0 for entry in spec["end_to_end"]}
    worse = dict(good, op_ms=20.0)
    workload = spec["workloads"][0]["name"]
    for name, values in (("a", good), ("b", worse)):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"runs": _runs(workload, [values])[workload]}))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert compare.main([a, a]) == 0
    assert compare.main([a, b]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([a]) == 2
