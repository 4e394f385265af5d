"""Ingestion benchmark: the batched fast path vs the retained references.

Times ``DualStore.load_events`` on a synthetic ~100k-event benign workload
(`BENCH_INGEST_SESSIONS` sessions, overridable via the environment for CI
smoke runs) for three loaders:

* ``batched``  — the fast path: fused streaming-reduction/build pass,
  multi-row relational inserts under a deferred index rebuild, bulk graph
  insertion;
* ``rowwise``  — the retained in-tree reference (row-at-a-time entity
  inserts, item-wise graph construction) used by the equivalence tests;
* ``seed``     — a frozen copy of the seed revision's loader, including its
  ``dataclasses.replace``-per-merge reduction, kept here so the speedup is
  measured against the implementation this PR replaced.

The regenerated table (``benchmarks/results/ingestion.txt``) reports
wall-clock seconds per loader plus the speedup of the batched path, and the
equivalence of all three loaders' stored data is asserted on every run.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace as dataclass_replace

import pytest

from repro.audit.entities import (EntityType, FileEntity, ProcessEntity,
                                  reset_id_counters)
from repro.audit.reduction import ReductionStats
from repro.audit.workload import generate_benign_noise
from repro.benchmark.evaluation import format_table
from repro.storage import DualStore
from repro.storage.graph.graphdb import PropertyGraph
from repro.storage.relational.schema import ENTITY_COLUMNS, EVENT_COLUMNS

from .conftest import write_result_table

#: Sessions in the synthetic workload; 3400 sessions ≈ 100k events.  CI
#: smoke runs set this low via the environment.
BENCH_INGEST_SESSIONS = int(os.environ.get("BENCH_INGEST_SESSIONS", "3400"))

#: Timed rounds per loader in the comparison table.
ROUNDS = 3


@pytest.fixture(scope="module")
def workload_events():
    return generate_benign_noise(BENCH_INGEST_SESSIONS, seed=29)


# ---------------------------------------------------------------------------
# frozen seed loader (pre-batching revision), the benchmark baseline
# ---------------------------------------------------------------------------


def _seed_unique_key(entity):
    """The seed's per-access entity key: a fresh tuple every call (the
    current entities cache this; the frozen baseline must not)."""
    if isinstance(entity, FileEntity):
        return (EntityType.FILE, entity.path)
    if isinstance(entity, ProcessEntity):
        return (EntityType.PROCESS, entity.exename, entity.pid)
    return (EntityType.NETWORK, entity.srcip, entity.srcport, entity.dstip,
            entity.dstport, entity.protocol)


def _seed_event_attributes(event):
    """The seed's ``SystemEvent.attributes``: a fresh dict per call (with
    today's keys — the loader-equivalence tests compare edge properties)."""
    return {
        "operation": event.operation.value,
        "start_time": event.start_time,
        "end_time": event.end_time,
        "duration": event.duration,
        "data_amount": event.data_amount,
        "failure_code": event.failure_code,
        "host": event.host,
        "category": event.category.value,
    }


def _seed_entity_row(entity_id, entity):
    """The seed's dict-comprehension entity row builder."""
    row = {column: None for column in ENTITY_COLUMNS}
    row["id"] = entity_id
    row["type"] = entity.entity_type.value
    if isinstance(entity, FileEntity):
        row.update(name=entity.name, path=entity.path, user=entity.user,
                   grp=entity.group)
    elif isinstance(entity, ProcessEntity):
        row.update(name=entity.exename, exename=entity.exename,
                   pid=entity.pid, user=entity.user, grp=entity.group,
                   cmdline=entity.cmdline or entity.exename)
    else:
        row.update(name=entity.dstip, srcip=entity.srcip,
                   srcport=entity.srcport, dstip=entity.dstip,
                   dstport=entity.dstport, protocol=entity.protocol)
    return tuple(row[column] for column in ENTITY_COLUMNS)


def _seed_mergeable(earlier, later, threshold):
    """The seed's ``mergeable``: recomputes all four entity keys per check."""
    if _seed_unique_key(earlier.subject) != _seed_unique_key(later.subject):
        return False
    if _seed_unique_key(earlier.obj) != _seed_unique_key(later.obj):
        return False
    if earlier.operation is not later.operation:
        return False
    gap = later.start_time - earlier.end_time
    return 0 <= gap <= threshold


def _seed_reduce_events(events, threshold):
    """The seed's batch reduction, frozen: uncached keys (rebuilt both for
    the run lookup and inside every ``mergeable`` check) and one
    ``dataclasses.replace`` per absorbed event (the current code caches the
    keys and accumulates run state instead)."""
    ordered = sorted(events, key=lambda event: (event.start_time,
                                                event.event_id))
    reduced = []
    open_events: dict[tuple, int] = {}
    merged_count = 0
    for event in ordered:
        key = (_seed_unique_key(event.subject), _seed_unique_key(event.obj),
               event.operation)
        index = open_events.get(key)
        if index is not None and _seed_mergeable(reduced[index], event,
                                                 threshold):
            earlier = reduced[index]
            reduced[index] = dataclass_replace(
                earlier, end_time=event.end_time,
                data_amount=earlier.data_amount + event.data_amount)
            merged_count += 1
            continue
        open_events[key] = len(reduced)
        reduced.append(event)
    stats = ReductionStats(input_events=len(ordered),
                           output_events=len(reduced),
                           merged_events=merged_count)
    return reduced, stats


def seed_load_events(store: DualStore, events) -> int:
    """The seed revision's ``DualStore.load_events``, frozen.

    Batch reduction with per-merge ``replace``, a row-at-a-time relational
    load (one ``INSERT`` statement per new entity, uncached keys and
    attribute dicts), and item-wise graph construction — the loaders this
    PR's batched path replaced.  Reaches into the store's connection the
    way the seed's own store did; benchmark-only code.
    """
    event_list = list(events)
    if store.reduce:
        event_list, stats = _seed_reduce_events(event_list,
                                                store.merge_threshold)
        store.last_reduction = stats

    relational = store.relational
    relational.clear()
    connection = relational._connection
    entity_ids: dict[tuple, int] = {}
    entity_placeholders = ", ".join("?" for _ in ENTITY_COLUMNS)
    event_rows = []
    for event_index, event in enumerate(event_list, start=1):
        endpoint_ids = []
        for entity in (event.subject, event.obj):
            key = _seed_unique_key(entity)
            entity_id = entity_ids.get(key)
            if entity_id is None:
                entity_id = len(entity_ids) + 1
                entity_ids[key] = entity_id
                connection.execute(
                    f"INSERT INTO entities ({', '.join(ENTITY_COLUMNS)}) "
                    f"VALUES ({entity_placeholders})",
                    _seed_entity_row(entity_id, entity))
            endpoint_ids.append(entity_id)
        event_rows.append((event_index, endpoint_ids[0], endpoint_ids[1],
                           event.operation.value, event.category.value,
                           event.start_time, event.end_time, event.duration,
                           event.data_amount, event.failure_code,
                           event.host))
    if event_rows:
        event_placeholders = ", ".join("?" for _ in EVENT_COLUMNS)
        connection.executemany(
            f"INSERT INTO events ({', '.join(EVENT_COLUMNS)}) "
            f"VALUES ({event_placeholders})", event_rows)
    connection.commit()
    relational.adopt_entity_ids(entity_ids, len(event_rows) + 1)

    graph = PropertyGraph()
    node_ids: dict[tuple, int] = {}
    for event in event_list:
        endpoints = []
        for entity in (event.subject, event.obj):
            key = _seed_unique_key(entity)
            node_id = node_ids.get(key)
            if node_id is None:
                node_id = graph.add_node(entity.entity_type.value,
                                         entity.attributes())
                node_ids[key] = node_id
            endpoints.append(node_id)
        graph.add_edge(endpoints[0], endpoints[1], "EVENT",
                       _seed_event_attributes(event))
    store.graph.graph = graph
    store._events = event_list
    return len(event_list)


_LOADERS = {
    "batched": lambda store, events: int(
        store.load_events(events, strategy="batched")),
    "rowwise": lambda store, events: int(
        store.load_events(events, strategy="rowwise")),
    "seed": seed_load_events,
}


# ---------------------------------------------------------------------------
# pytest-benchmark timings per loader
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("loader", ["batched", "rowwise"])
def test_ingestion_load(benchmark, workload_events, loader):
    store = DualStore()
    count = benchmark.pedantic(
        lambda: _LOADERS[loader](store, workload_events),
        iterations=1, rounds=ROUNDS, warmup_rounds=1)
    assert count > 0
    store.close()


def _fresh_workload():
    """A deterministic workload with *fresh* objects and reset id counters.

    Resetting the global id counters before regenerating with a fixed seed
    makes every stream field-for-field identical, so the loaders' stored
    data can be compared across runs — while each loader still measures the
    cold-cache cost of a first-time ingest, the real-world scenario (the
    seed revision recomputed entity keys and attribute dicts on every
    access; the current code computes them once per object).
    """
    reset_id_counters()
    return generate_benign_noise(BENCH_INGEST_SESSIONS, seed=29)


def test_ingestion_speedup_table():
    """Regenerate the loader comparison table and check the speedup.

    Each loader round ingests a freshly generated (cold) copy of the same
    deterministic workload; the best round per loader is reported.
    """
    timings: dict[str, float] = {}
    counts: dict[str, int] = {}
    tables: dict[str, tuple] = {}
    events_in = 0
    for name, loader in _LOADERS.items():
        store = DualStore()
        samples = []
        for _ in range(ROUNDS):
            events = _fresh_workload()
            events_in = len(events)
            start = time.perf_counter()
            counts[name] = loader(store, events)
            samples.append(time.perf_counter() - start)
        timings[name] = min(samples)
        tables[name] = (
            tuple(tuple(row.values()) for row in store.execute_sql(
                "SELECT * FROM entities ORDER BY id")),
            tuple(tuple(row.values()) for row in store.execute_sql(
                "SELECT * FROM events ORDER BY id")),
            store.graph.num_nodes(), store.graph.num_edges())
        store.close()

    # All three loaders store identical data.
    assert counts["batched"] == counts["rowwise"] == counts["seed"]
    assert tables["batched"] == tables["rowwise"] == tables["seed"]

    rows = [{
        "loader": name,
        "events_in": events_in,
        "events_stored": counts[name],
        "seconds": timings[name],
        "speedup_vs_batched": timings[name] / timings["batched"],
    } for name in ("seed", "rowwise", "batched")]
    table = format_table(rows, ["loader", "events_in", "events_stored",
                                "seconds", "speedup_vs_batched"],
                         floatfmt="{:.3f}")
    write_result_table("ingestion", table)

    if BENCH_INGEST_SESSIONS >= 1000:
        # Timing-order assertions only run at scale: on the tiny CI smoke
        # workload the loaders are tens of milliseconds apart and scheduler
        # noise could flip them.
        assert timings["batched"] <= timings["rowwise"]
        assert timings["batched"] <= timings["seed"]
        # At the ~100k-event scale the fast path must beat the frozen seed
        # loader by a wide margin (measured ~2.4x cold end to end on the
        # reference hardware, bounded by the SQLite insert floor; the floor
        # below is a CI-noise-tolerant bound).
        assert timings["seed"] / timings["batched"] >= 1.6


def test_ingestion_stage_breakdown(workload_events):
    """Record the batched path's per-stage statistics."""
    store = DualStore()
    stats = store.load_events(workload_events)
    rows = [{"stage": stage, "seconds": seconds}
            for stage, seconds in stats.seconds.items()]
    rows.append({"stage": "total(sum)", "seconds": stats.total_seconds})
    table = format_table(rows, ["stage", "seconds"], floatfmt="{:.4f}")
    write_result_table("ingestion_stages", table)
    assert stats.relational_batches >= 1
    assert stats.events == store.statistics()["relational_events"]
    store.close()
