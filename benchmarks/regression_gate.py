"""Benchmark regression gate: small-workload smoke vs committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/regression_gate.py --check
    PYTHONPATH=src python benchmarks/regression_gate.py --write-baseline

Absolute timings do not transfer between machines, so the gate compares
*normalized* metrics: each optimized path is timed against a reference
implementation on the same machine and workload, and the
gate fails when the optimized/reference time ratio regresses by more than
``BENCH_GATE_TOLERANCE`` (default 30%) versus the ratio committed in
``benchmarks/results/baseline_small.json``.  The reference path acts as the
machine-speed normalizer:

* *ingest*    — ``DualStore.load_events`` (a clear, then the append
  path) vs the pre-batching loader kept in
  ``tests/reference/ingest_rowwise.py``;
* *fuzzy*     — ``FuzzySearcher`` vs the seed's brute-force search kept in
  ``tests/reference/fuzzy_bruteforce.py``, on the data-leak case store;
* *streaming* — the incremental append path (``DualStore.append_events``
  in batches + a final flush of the open merge runs, no segment cut) vs
  the one-shot cold load of the same events (the acceptance bar
  for live ingestion is 2x of the cold load; the gate holds the measured
  ratio near its committed baseline);
* *partitioned* — a selective time-windowed hunt on a store of sealed
  segments (segment pruning) vs the same hunt on an identically fed
  store that was never sealed (the acceptance bar at full scale is a 2x
  speedup, i.e. a ratio <= 0.5; the gate holds the smoke-scale ratio
  near its committed baseline);
* *service_http* — the asyncio HTTP front end answering a 32-client
  keep-alive query load vs the same 256 requests routed in process
  (``route`` + ``json.dumps``, one thread) over the same store; the
  ratio is the front end's cost over the service's own work, and any
  failed request raises;
* *agg_pushdown* — a single-pattern ``group by`` hunt with
  partial-aggregate pushdown (segment scans return per-segment
  group-count partials) vs the identical hunt on ``tests/reference``'s
  ``RowPathExecutor`` (row scatter + post-join aggregation; the
  acceptance bar at full scale is a 1.5x speedup);
* *obs_overhead* — the same query loop executed under a live trace
  (spans recorded at every pipeline stage) vs with tracing disabled
  (``repro.obs.trace.set_enabled(False)``, the ``REPRO_OBS=0``
  production escape hatch).

*obs_overhead* is measured and printed but never fails the gate
(``RECORD_ONLY``): its ratio moved because an unrelated change made the
traced query cheaper, not because anything a user runs got slower
(ROADMAP open item 1).

Absolute seconds are recorded in the baseline for information only.
``--only NAME`` restricts a ``--check`` run to one metric (used by CI
to verify the gate trips without paying for the whole suite).

To verify the gate actually trips, inject an artificial slowdown into the
optimized paths and expect a non-zero exit::

    REPRO_BENCH_INJECT_SLOWDOWN=2.0 PYTHONPATH=src \
        python benchmarks/regression_gate.py --check && echo GATE BROKEN
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# The package, and the reference implementations under tests/reference.
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.audit.workload import generate_benign_noise    # noqa: E402
from repro.benchmark import get_case                      # noqa: E402
from repro.benchmark.evaluation import build_case_store   # noqa: E402
from repro.benchmark.queries import build_case_queries    # noqa: E402
from repro.storage import DualStore                       # noqa: E402
from repro.tbql.fuzzy import FuzzySearcher, _forget_index  # noqa: E402
from tests.reference.fuzzy_bruteforce import \
    BruteForceFuzzySearcher                               # noqa: E402
from tests.reference.ingest_rowwise import RowwiseDualStore  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "results" / "baseline_small.json"

#: Benign sessions in the smoke workload (matches the CI benchmark smoke).
SESSIONS = int(os.environ.get("BENCH_GATE_SESSIONS", "120"))
#: Allowed relative worsening of an optimized/reference ratio.
TOLERANCE = float(os.environ.get("BENCH_GATE_TOLERANCE", "0.30"))
#: Timed rounds per path; the best round is used (noise suppression).
ROUNDS = int(os.environ.get("BENCH_GATE_ROUNDS", "3"))
#: Artificial multiplier on the optimized paths' measured time — used to
#: prove the gate fails when a real slowdown lands.
INJECTED_SLOWDOWN = float(os.environ.get("REPRO_BENCH_INJECT_SLOWDOWN",
                                         "1.0"))


def _best_of(rounds: int, run, before=None) -> float:
    """Best of ``rounds`` timings of ``run``; ``before`` runs untimed."""
    best = float("inf")
    for _ in range(rounds):
        if before is not None:
            before()
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def measure_ingest() -> dict:
    """Batched fast-path load vs the rowwise reference load."""
    events = generate_benign_noise(SESSIONS, seed=29)

    def load(store_class) -> float:
        def run() -> None:
            with store_class() as store:
                store.load_events(events)
        return _best_of(ROUNDS, run)

    optimized = load(DualStore) * INJECTED_SLOWDOWN
    reference = load(RowwiseDualStore)
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


def measure_fuzzy() -> dict:
    """Indexed fuzzy search vs the brute-force reference search."""
    case = get_case("data_leak")
    store, _truth = build_case_store(case, benign_sessions=SESSIONS)
    queries = build_case_queries(case)
    try:
        def search(searcher_class) -> float:
            # Every round is cold: the brute force builds its index per
            # search, so the indexed leg must not reuse the memoised one.
            return _best_of(ROUNDS, lambda: searcher_class(
                store).search(queries.tbql),
                before=lambda: _forget_index(store))

        optimized = search(FuzzySearcher) * INJECTED_SLOWDOWN
        reference = search(BruteForceFuzzySearcher)
    finally:
        store.close()
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


def measure_streaming() -> dict:
    """K-batch incremental append vs the one-shot cold load."""
    from operator import attrgetter
    events = generate_benign_noise(SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    batch_count = 20
    size = (len(events) + batch_count - 1) // batch_count
    batches = [events[index:index + size]
               for index in range(0, len(events), size)]

    def streamed() -> None:
        with DualStore() as store:
            for chunk in batches:
                store.append_events(chunk)
            store.flush_appends(seal_segment=False)

    def one_shot() -> None:
        with DualStore() as store:
            store.load_events(events)

    optimized = _best_of(ROUNDS, streamed) * INJECTED_SLOWDOWN
    reference = _best_of(ROUNDS, one_shot)
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


def measure_partitioned() -> dict:
    """Segment-pruned windowed hunt vs the never-sealed full filter."""
    from operator import attrgetter

    from repro.tbql.executor import TBQLExecutor

    events = generate_benign_noise(SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    segments = 8
    step = len(events) // segments + 1
    unsealed = DualStore()
    segmented = DualStore()
    try:
        for index in range(0, len(events), step):
            for store in (unsealed, segmented):
                store.append_events(events[index:index + step])
                store.flush_appends(seal_segment=store is segmented)
        cut = segmented.segment_view().sealed[0].max_end_time
        text = (f'before {cut} proc p read file f["%/etc/%"] '
                f'return distinct p, f')
        unsealed_exec = TBQLExecutor(unsealed)
        seg_exec = TBQLExecutor(segmented)

        def run_many(executor) -> None:
            # One smoke-scale execution is sub-millisecond; time a batch
            # so the measured interval dwarfs the clock jitter.
            for _ in range(10):
                executor.execute(text)

        optimized = _best_of(
            ROUNDS, lambda: run_many(seg_exec)) * INJECTED_SLOWDOWN
        reference = _best_of(ROUNDS, lambda: run_many(unsealed_exec))
        seg_exec.close()
    finally:
        unsealed.close()
        segmented.close()
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


def _segmented_with_rare_ops() -> DualStore:
    """Benign noise sealed into 8 segments plus one rare-op tail segment.

    The tail collector starts after the noise ends, so its ``delete``
    events seal into exactly one final segment — the shape the seal-time
    distinct-operation sets prune on.
    """
    from operator import attrgetter

    from repro.audit import AuditCollector, CollectorConfig
    from repro.audit.entities import Operation

    events = generate_benign_noise(SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    segments = 8
    step = len(events) // segments + 1
    store = DualStore()
    for index in range(0, len(events), step):
        store.append_events(events[index:index + step])
        store.flush_appends()
    collector = AuditCollector(CollectorConfig(
        seed=97, start_time=events[-1].start_time + 10.0))
    wiper = collector.spawn_process("/usr/bin/shred", user="mallory")
    for index in range(8):
        collector.record(wiper, Operation.DELETE,
                         collector.file(f"/home/mallory/doc-{index}.txt"))
    store.append_events(collector.events())
    store.flush_appends()
    return store


def measure_agg_pushdown() -> dict:
    """Partial-aggregate pushdown vs the row-scatter aggregation path."""
    from repro.tbql.executor import TBQLExecutor
    from tests.reference.executor_seed import RowPathExecutor

    store = _segmented_with_rare_ops()
    text = 'proc p read file f return p, count() group by p top 10'
    try:
        executor = TBQLExecutor(store)
        row_path = RowPathExecutor(store)

        def run_many(chosen) -> None:
            for _ in range(10):
                chosen.execute(text)

        optimized = _best_of(ROUNDS, lambda: run_many(executor)) * \
            INJECTED_SLOWDOWN
        reference = _best_of(ROUNDS, lambda: run_many(row_path))
        executor.close()
        row_path.close()
    finally:
        store.close()
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


def measure_service_http() -> dict:
    """HTTP front end vs the same requests routed in process.

    The asyncio server answers a 32-client keep-alive query load (result
    cache primed, so the serving path dominates); the reference sends
    the same 256 requests through ``route`` and ``json.dumps`` on one
    thread, with the same cache.  The ratio is the HTTP front end's cost
    over the service's own work on the same host.  The two sides
    alternate round by round so host noise falls on both alike.
    """
    import threading

    from benchmarks.loadgen import run_load
    from repro.service import (AsyncThreatHuntingServer, QueryService,
                               ServiceClient, route)

    events = generate_benign_noise(SESSIONS, seed=29)
    queries = [
        'proc p["%/usr/bin/ssh%"] connect ip i["10.9.%"] as e1 '
        'return distinct p, i.dstip',
        'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
        'return distinct p',
    ]
    clients, requests_per_client = 32, 8
    bodies = [{"tbql": queries[index % len(queries)]}
              for index in range(clients * requests_per_client)]

    def in_process() -> None:
        for body in bodies:
            status, payload = route(service, "POST", "/query", body)
            if status != 200:
                raise RuntimeError(
                    f"in-process request answered {status}: {payload}")
            json.dumps(payload).encode("utf-8")

    store = DualStore()
    store.load_events(events)
    service = QueryService(store)
    server = AsyncThreatHuntingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.wait_ready(10)
    host, port = server.server_address[:2]
    try:
        with ServiceClient(f"http://{host}:{port}") as client:
            for query in queries:
                client.query(query)   # prime the result cache
        run_load(host, port, queries, clients=8,
                 requests_per_client=2)   # warmup
        optimized = reference = float("inf")
        for _ in range(ROUNDS):
            result = run_load(host, port, queries, clients=clients,
                              requests_per_client=requests_per_client)
            if result.errors:
                raise RuntimeError(
                    f"HTTP load run had {result.errors} error(s): "
                    f"{result.statuses}")
            optimized = min(optimized, result.seconds)
            reference = min(reference, _best_of(1, in_process))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        store.close()
    optimized *= INJECTED_SLOWDOWN
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


def measure_obs_overhead() -> dict:
    """Traced query loop vs the identical loop with tracing disabled.

    Here "optimized" is the *instrumented* path: the ratio is the cost
    of observability, expected a hair above 1 (``RECORD_ONLY``).
    """
    from operator import attrgetter

    from repro.obs import trace
    from repro.tbql.executor import TBQLExecutor

    events = generate_benign_noise(SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    segments = 6
    step = len(events) // segments + 1
    store = DualStore()
    text = 'proc p read file f["%/etc/%"] return distinct p, f'
    try:
        for index in range(0, len(events), step):
            store.append_events(events[index:index + step])
            store.flush_appends()
        executor = TBQLExecutor(store)
        previous = trace.set_enabled(True)
        try:
            def run_traced() -> None:
                # One execution is ~1ms; time a batch so the measured
                # interval dwarfs the clock jitter.
                for _ in range(100):
                    with trace.start_trace("query"):
                        executor.execute(text)

            def run_plain() -> None:
                for _ in range(100):
                    executor.execute(text)

            run_traced()      # warm caches before any timed round
            # Interleave the two sides round by round: the ~2% span
            # cost being measured is far smaller than the clock-speed
            # drift between two sequential best-of-N blocks, so each
            # round times both sides back to back and the drift
            # cancels in the ratio.
            optimized = float("inf")
            reference = float("inf")
            for _ in range(ROUNDS):
                start = time.perf_counter()
                run_traced()
                optimized = min(optimized,
                                time.perf_counter() - start)
                trace.set_enabled(False)
                start = time.perf_counter()
                run_plain()
                reference = min(reference,
                                time.perf_counter() - start)
                trace.set_enabled(True)
            optimized *= INJECTED_SLOWDOWN
        finally:
            trace.set_enabled(previous)
            executor.close()
    finally:
        store.close()
    return {
        "optimized_seconds": optimized,
        "reference_seconds": reference,
        "ratio": optimized / reference,
    }


MEASUREMENTS = {
    "ingest": measure_ingest,
    "fuzzy": measure_fuzzy,
    "streaming": measure_streaming,
    "partitioned": measure_partitioned,
    "agg_pushdown": measure_agg_pushdown,
    "service_http": measure_service_http,
    "obs_overhead": measure_obs_overhead,
}

#: Measured and printed, never failing.  The filter tables cut the traced
#: query from 2.0 to 0.55 ms, so a fixed ~40 us span tree reads as 7-9%
#: of it and the ratio trips with no regression behind it.  ROADMAP open item 1
#: replaces it with absolute, oracle-checked ``benchmarks.e2e compare``
#: verdicts.
RECORD_ONLY = frozenset({"obs_overhead"})


def collect(only: str | None = None) -> dict:
    selected = MEASUREMENTS if only is None else {only: MEASUREMENTS[only]}
    metrics = {name: measure() for name, measure in selected.items()}
    return {
        "sessions": SESSIONS,
        "rounds": ROUNDS,
        "metrics": metrics,
    }


def write_baseline() -> int:
    current = collect()
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) +
                             "\n", encoding="utf-8")
    print(f"baseline written to {BASELINE_PATH}")
    for name, metric in current["metrics"].items():
        print(f"  {name}: ratio={metric['ratio']:.4f} "
              f"(optimized {metric['optimized_seconds']:.4f}s, "
              f"reference {metric['reference_seconds']:.4f}s)")
    return 0


def check(only: str | None = None) -> int:
    if not BASELINE_PATH.is_file():
        print(f"ERROR: no baseline at {BASELINE_PATH}; run "
              f"--write-baseline first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    current = collect(only=only)
    failures = []
    print(f"benchmark regression gate (sessions={SESSIONS}, "
          f"tolerance={TOLERANCE:.0%}"
          + (f", injected slowdown x{INJECTED_SLOWDOWN}"
             if INJECTED_SLOWDOWN != 1.0 else "") + ")")
    for name, metric in current["metrics"].items():
        recorded = baseline["metrics"].get(name)
        if recorded is None:
            print(f"  {name}: no baseline entry, skipping")
            continue
        allowed = recorded["ratio"] * (1.0 + TOLERANCE)
        if name in RECORD_ONLY:
            status = "recorded only"
        else:
            status = "ok" if metric["ratio"] <= allowed else "REGRESSION"
        print(f"  {name}: ratio {metric['ratio']:.4f} "
              f"vs baseline {recorded['ratio']:.4f} "
              f"(allowed <= {allowed:.4f}) "
              f"[{status}] — optimized {metric['optimized_seconds']:.4f}s, "
              f"reference {metric['reference_seconds']:.4f}s")
        if status == "REGRESSION":
            failures.append(name)
    if failures:
        print(f"FAIL: regression beyond {TOLERANCE:.0%} tolerance in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print("PASS: no benchmark regression beyond tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true", default=True,
                       help="compare against the committed baseline "
                            "(default)")
    group.add_argument("--write-baseline", action="store_true",
                       help="measure and (re)write the committed baseline")
    parser.add_argument("--only", choices=sorted(MEASUREMENTS),
                        help="measure a single metric (check mode only; "
                             "other baseline entries are left unchecked)")
    args = parser.parse_args(argv)
    if args.write_baseline:
        if args.only:
            parser.error("--only cannot be combined with "
                         "--write-baseline (the baseline is written "
                         "whole)")
        return write_baseline()
    return check(only=args.only)


if __name__ == "__main__":
    sys.exit(main())
