"""Serving benchmark: warm snapshot open vs cold ingest, queries/sec.

Measures the two claims of the serving subsystem on the ~100k-event benign
workload (``BENCH_SERVICE_SESSIONS`` sessions, overridable for CI smoke
runs):

* *warm restore*: ``DualStore.open`` of a saved snapshot must beat the
  cold process start — parsing the raw audit log and ingesting it
  (``repro serve --log``, what every run previously did) — by >= 5x
  (asserted at full workload scale; the snapshot skips log parsing,
  reduction, row building, and index construction entirely);
* *concurrent serving*: queries/sec through the HTTP service at 1, 4, and
  8 client threads over one shared read-only store, with the result cache
  disabled so every request executes.

The regenerated tables land in ``benchmarks/results/``
(``service_snapshot_open.txt`` and ``service_throughput.txt``).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.audit.workload import generate_benign_noise
from repro.benchmark.evaluation import format_table
from repro.service import (AsyncThreatHuntingServer, QueryService,
                           ServiceClient)
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor

from .conftest import write_result_table

#: Sessions in the synthetic workload; 3400 sessions ≈ 100k events.  CI
#: smoke runs set this low via the environment.
BENCH_SERVICE_SESSIONS = int(os.environ.get("BENCH_SERVICE_SESSIONS",
                                            "3400"))

#: Timed rounds for the open/ingest comparison (best round reported).
ROUNDS = 3

#: Requests issued per client thread at each concurrency level.
REQUESTS_PER_CLIENT = int(os.environ.get("BENCH_SERVICE_REQUESTS", "30"))

#: Query mix answered by the service: selective and unselective event
#: patterns plus a path pattern, all matching the benign workload.
SERVICE_QUERIES = [
    'proc p["%/usr/bin/firefox%"] connect ip i as e1 '
    'return distinct p, i.dstip',
    'proc p read file f["%/var/log/syslog%"] as e1 return distinct p',
    'proc p["%/usr/bin/vim%"] write file f as e1 return distinct f',
    'proc p["%/usr/bin/git%"] ~>(1~2)[read] file f as e1 '
    'return distinct p',
]


@pytest.fixture(scope="module")
def workload_events():
    return generate_benign_noise(BENCH_SERVICE_SESSIONS, seed=29)


@pytest.fixture(scope="module")
def workload_log_text(workload_events):
    """The raw audit log the cold path re-parses on every process start."""
    from repro.audit.logfmt import format_log
    return format_log(workload_events)


@pytest.fixture(scope="module")
def snapshot_dir(workload_events, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench_service") / "snapshot"
    with DualStore() as store:
        store.load_events(workload_events)
        store.save(directory)
    return directory


def test_warm_open_vs_cold_ingest(benchmark, workload_events,
                                  workload_log_text, snapshot_dir):
    """Warm snapshot open must be >= 5x faster than the cold start.

    Cold start is what ``repro serve --log`` (and every pre-snapshot run of
    the reproduction) does at process start: parse the raw audit log text,
    then ingest into both backends.  Warm start is ``DualStore.open`` on
    the snapshot directory.
    """
    from repro.audit.parser import parse_audit_log

    cold_seconds = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        with DualStore() as store:
            count = int(store.load_events(parse_audit_log(
                workload_log_text)))
        cold_seconds = min(cold_seconds, time.perf_counter() - start)
    assert count > 0

    def open_snapshot():
        start = time.perf_counter()
        store = DualStore.open(snapshot_dir)
        elapsed = time.perf_counter() - start
        return store, elapsed

    warm_seconds = float("inf")
    for _ in range(ROUNDS - 1):
        store, elapsed = open_snapshot()
        warm_seconds = min(warm_seconds, elapsed)
        store.close()
    store, elapsed = benchmark.pedantic(open_snapshot, iterations=1,
                                        rounds=1)
    warm_seconds = min(warm_seconds, elapsed)
    try:
        assert store.relational.count_events() == count
        # Spot-check identical answers before trusting the timing.
        query = SERVICE_QUERIES[0]
        with DualStore() as fresh:
            fresh.load_events(workload_events)
            expected = TBQLExecutor(fresh).execute(query).rows
        assert TBQLExecutor(store).execute(query).rows == expected
    finally:
        store.close()

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    rows = [
        {"path": "cold start (parse log + load_events)",
         "seconds": cold_seconds, "speedup": 1.0},
        {"path": "warm start (DualStore.open)", "seconds": warm_seconds,
         "speedup": speedup},
    ]
    table = format_table(rows, ["path", "seconds", "speedup"],
                         floatfmt="{:.4f}")
    write_result_table("service_snapshot_open", table)
    if BENCH_SERVICE_SESSIONS >= 1000:
        # Acceptance bar: >= 5x on the ~100k-event workload.  Small CI
        # smoke workloads are dominated by constant overheads, so the bar
        # only applies at scale.
        assert speedup >= 5.0, \
            f"warm open only {speedup:.1f}x faster than cold ingest"


def test_service_queries_per_second(benchmark, snapshot_dir):
    """Queries/sec through the HTTP API at 1, 4, and 8 client threads."""
    store = DualStore.open(snapshot_dir)
    service = QueryService(store, result_cache_size=0)
    server = AsyncThreatHuntingServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.wait_ready(10)
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"

    expected = {
        query: ServiceClient(base_url).query(query)["result"]["rows"]
        for query in SERVICE_QUERIES
    }

    def client_run(worker: int) -> None:
        client = ServiceClient(base_url)
        for index in range(REQUESTS_PER_CLIENT):
            query = SERVICE_QUERIES[(worker + index) % len(SERVICE_QUERIES)]
            response = client.query(query)
            assert response["result"]["rows"] == expected[query]

    def measure(clients: int) -> dict:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            list(pool.map(client_run, range(clients)))
        elapsed = time.perf_counter() - start
        requests = clients * REQUESTS_PER_CLIENT
        return {"clients": clients, "requests": requests,
                "seconds": elapsed, "queries_per_sec": requests / elapsed}

    rows = [measure(1)]
    rows.extend(measure(clients) for clients in (4, 8))
    benchmark.pedantic(lambda: measure(1), iterations=1, rounds=1)
    table = format_table(rows, ["clients", "requests", "seconds",
                                "queries_per_sec"], floatfmt="{:.4f}")
    write_result_table("service_throughput", table)

    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    store.close()
    for row in rows:
        assert row["queries_per_sec"] > 0
