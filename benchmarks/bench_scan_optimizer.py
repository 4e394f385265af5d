"""Scan-optimizer benchmark: stats pruning, partial-aggregate pushdown,
and the case-report joins against giant SQL.

Two measurements on the benign workload (``BENCH_SCAN_OPT_SESSIONS``
sessions; 3400 ≈ 100k raw events) sealed into
``BENCH_SCAN_OPT_SEGMENTS`` segments, plus one rare-operation attack
tail sealed into its own segment:

* *stats pruning* — a selective hunt for the rare operation (with a
  prefix-``LIKE`` artifact filter the dictionary path binary-searches)
  with the optimizer on vs the same hunt under ``tests/reference``'s
  ``optimizers_disabled()`` (no statistics pruning, per-row filter
  closures instead of truth tables).  The
  rare operation occurs in exactly one segment, so seal-time distinct
  sets prove every benign segment empty and the scan touches one
  segment instead of all of them.  The acceptance bar is a **>= 2x**
  speedup at full workload scale (asserted there, recorded
  everywhere); rows must be identical (asserted always).
* *aggregate pushdown* — a group-by hunt over the dominant operation
  with partial-aggregate pushdown vs ``tests/reference``'s
  ``RowPathExecutor``.
  Segment scans return per-segment ``(group key, count)`` partials and
  keep their row selections ungathered instead of building every
  matched event; the peak memory of one execute, under
  ``tracemalloc``, must be **lower** (asserted
  always) and the acceptance bar is a **>= 1.5x** end-to-end speedup
  at full workload scale (asserted there, recorded everywhere); rows
  and matched events must be identical (asserted always).

A third measurement puts RQ4's direction in the result tables: the
TBQL synthesized from the 18 case reports (``%contains%`` filters that
no statistic can prune), with the attack traces replayed inside the
benign history —

* *case-report joins* — all 18 queries through the default segmented,
  scheduled path (first pass on freshly sealed segments, i.e. every
  filter table built, then repeated passes that reuse the per-segment
  memo) vs one giant SQL statement each on the never-sealed store.  Rows
  must be identical (asserted always); the ratios are recorded, not
  asserted — which side wins is the finding.

Tables land in ``benchmarks/results/scan_optimizer_pruning.txt``,
``scan_optimizer_pushdown.txt`` and ``scan_optimizer_case_joins.txt``.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from operator import attrgetter

import pytest

from repro.audit import AuditCollector, CollectorConfig
from repro.audit.entities import Operation
from repro.audit.workload import generate_benign_noise
from repro.benchmark import ALL_CASES, CaseBuilder
from repro.benchmark.evaluation import format_table
from repro.hunting import ThreatRaptor
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query
from tests.reference.executor_seed import RowPathExecutor
from tests.reference.scan_unoptimized import optimizers_disabled

from .conftest import write_result_table

#: Sessions in the synthetic workload; 3400 sessions ≈ 100k events.
BENCH_SCAN_OPT_SESSIONS = int(os.environ.get(
    "BENCH_SCAN_OPT_SESSIONS", "3400"))
#: Sealed segments the benign history is partitioned into (the attack
#: tail adds one more).
BENCH_SCAN_OPT_SEGMENTS = int(os.environ.get(
    "BENCH_SCAN_OPT_SEGMENTS", "16"))
#: Timed rounds (best round reported).
ROUNDS = 5

#: Full-scale acceptance bars (smoke runs only record).
MIN_STATS_PRUNING_SPEEDUP = 2.0
MIN_PUSHDOWN_SPEEDUP = 1.5
FULL_SCALE_SESSIONS = 2000

#: The rare-operation hunt: ``delete`` never occurs in the benign
#: workload, and the prefix filter exercises the binary-searched
#: dictionary range.
SELECTIVE_QUERY = 'proc p delete file f["/home/%"] return p, f'
#: The group-by hunt over the dominant benign operation.
GROUP_QUERY = 'proc p read file f return p, count() group by p top 10'

def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _attack_tail(after: float) -> list:
    """A short rare-operation session sealed after the benign history."""
    collector = AuditCollector(CollectorConfig(seed=97,
                                               start_time=after + 10.0))
    wiper = collector.spawn_process("/usr/bin/shred", user="mallory")
    for index in range(8):
        collector.record(wiper, Operation.DELETE,
                         collector.file(f"/home/mallory/doc-{index}.txt"))
    return collector.events()


def _store_pair(batches):
    """Never-sealed + sealed stores fed identically (same flushes)."""
    unsealed = DualStore()
    seg = DualStore()
    for batch in batches:
        for store in (unsealed, seg):
            store.append_events(batch)
            store.flush_appends(seal_segment=store is seg)
    return unsealed, seg


def _equal_batches(events, count):
    events.sort(key=attrgetter("start_time", "event_id"))
    step = len(events) // count + 1
    return [events[index:index + step]
            for index in range(0, len(events), step)]


@pytest.fixture(scope="module")
def stores():
    batches = _equal_batches(
        generate_benign_noise(BENCH_SCAN_OPT_SESSIONS, seed=31),
        BENCH_SCAN_OPT_SEGMENTS)
    batches.append(_attack_tail(batches[-1][-1].start_time))
    unsealed, seg = _store_pair(batches)
    yield unsealed, seg
    unsealed.close()
    seg.close()


def test_stats_pruning_speedup(stores):
    unsealed, seg = stores
    segments = len(seg.segment_view().sealed)
    unsealed_exec = TBQLExecutor(unsealed)
    seg_exec = TBQLExecutor(seg)

    expected = unsealed_exec.execute(SELECTIVE_QUERY)
    optimized_result = seg_exec.execute(SELECTIVE_QUERY)
    assert optimized_result.rows == expected.rows
    assert optimized_result.matched_events == expected.matched_events
    step = optimized_result.plan[0]
    # The rare operation lives in exactly one segment; the distinct
    # sets prove every other segment empty before any scan task runs.
    assert step.segments_pruned_by_stats >= segments - 2
    assert step.segments_scanned <= 2

    optimized = _best_of(ROUNDS,
                         lambda: seg_exec.execute(SELECTIVE_QUERY))
    with optimizers_disabled():
        unoptimized_result = seg_exec.execute(SELECTIVE_QUERY)
        assert unoptimized_result.rows == expected.rows
        assert unoptimized_result.plan[0].segments_pruned_by_stats == 0
        reference = _best_of(ROUNDS,
                             lambda: seg_exec.execute(SELECTIVE_QUERY))
    seg_exec.close()
    speedup = reference / optimized

    rows = [
        {"optimizer": "off (scan every segment)", "seconds": reference,
         "segments scanned": segments, "speedup": 1.0},
        {"optimizer": f"on ({step.segments_scanned} scanned / "
                      f"{step.segments_pruned_by_stats} stats-pruned)",
         "seconds": optimized,
         "segments scanned": step.segments_scanned, "speedup": speedup},
    ]
    table = format_table(rows, floatfmt="{:.6f}")
    header = (f"Rare-operation hunt via seal-time statistics "
              f"({BENCH_SCAN_OPT_SESSIONS} sessions, {segments} "
              f"segments, best of {ROUNDS}):")
    print("\n" + header + "\n" + table)
    write_result_table("scan_optimizer_pruning", header + "\n" + table)

    if BENCH_SCAN_OPT_SESSIONS >= FULL_SCALE_SESSIONS:
        assert speedup >= MIN_STATS_PRUNING_SPEEDUP, (
            f"stats pruning speedup {speedup:.2f}x below the "
            f"{MIN_STATS_PRUNING_SPEEDUP}x acceptance bar")


def _peak_bytes(run) -> int:
    """Peak traced allocation while ``run()`` executes, its result
    held as a caller holds it."""
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
        del result
        return peak
    finally:
        tracemalloc.stop()


def test_aggregate_pushdown_speedup_and_bytes(stores):
    unsealed, seg = stores
    unsealed_exec = TBQLExecutor(unsealed)
    seg_exec = TBQLExecutor(seg)

    expected = unsealed_exec.execute(GROUP_QUERY)
    optimized_result = seg_exec.execute(GROUP_QUERY)
    assert optimized_result.plan[0].aggregate_pushdown
    assert optimized_result.rows == expected.rows
    assert optimized_result.matched_events == expected.matched_events

    optimized = _best_of(ROUNDS, lambda: seg_exec.execute(GROUP_QUERY))
    row_path = RowPathExecutor(seg)
    unoptimized_result = row_path.execute(GROUP_QUERY)
    assert not unoptimized_result.plan[0].aggregate_pushdown
    assert unoptimized_result.rows == expected.rows
    assert unoptimized_result.matched_events == expected.matched_events
    reference = _best_of(ROUNDS, lambda: row_path.execute(GROUP_QUERY))
    # Memory of one answer, caches warm: the pushdown keeps per-segment
    # group counts and row selections, the row path builds every
    # matched event and joined row before aggregating.
    agg_bytes = _peak_bytes(lambda: seg_exec.execute(GROUP_QUERY))
    row_bytes = _peak_bytes(lambda: row_path.execute(GROUP_QUERY))
    seg_exec.close()
    row_path.close()
    speedup = reference / optimized
    sealed = seg.segment_view().sealed
    assert agg_bytes < row_bytes, (
        f"pushdown execute peak ({agg_bytes} B) not below the row "
        f"path's ({row_bytes} B)")

    rows = [
        {"path": "row scatter + post-join aggregate",
         "seconds": reference, "execute peak KiB": row_bytes / 1024.0,
         "speedup": 1.0},
        {"path": "partial-aggregate pushdown", "seconds": optimized,
         "execute peak KiB": agg_bytes / 1024.0, "speedup": speedup},
    ]
    table = format_table(rows, floatfmt="{:.6f}")
    header = (f"Group-by hunt via partial-aggregate pushdown "
              f"({BENCH_SCAN_OPT_SESSIONS} sessions, {len(sealed)} "
              f"segments, best of {ROUNDS}; peak under tracemalloc):")
    print("\n" + header + "\n" + table)
    write_result_table("scan_optimizer_pushdown", header + "\n" + table)

    if BENCH_SCAN_OPT_SESSIONS >= FULL_SCALE_SESSIONS:
        assert speedup >= MIN_PUSHDOWN_SPEEDUP, (
            f"aggregate pushdown speedup {speedup:.2f}x below the "
            f"{MIN_PUSHDOWN_SPEEDUP}x acceptance bar")


def _giant_sql_rows(executor, resolved):
    """The single-statement answer in the executor's row shape (giant
    SQL names columns ``entity_attribute`` and leaves ``distinct`` to
    the caller)."""
    rows = [{(key if key == "count" else key.replace("_", ".", 1)): value
             for key, value in row.items()}
            for row in executor.execute_giant_sql(resolved)]
    if resolved.distinct:
        rows = list({repr(row): row for row in rows}.values())
    return rows


def test_case_report_joins_vs_giant_sql():
    """RQ4 on the hunts the paper is about: scheduled TBQL on the
    default segmented path vs one giant SQL statement per query."""
    events = generate_benign_noise(BENCH_SCAN_OPT_SESSIONS, seed=31)
    first, last = events[0].start_time, events[-1].end_time
    for index, case in enumerate(ALL_CASES):
        offset = first + (last - first) * (index + 0.5) / len(ALL_CASES)
        events += CaseBuilder(start_time=offset).build(
            case, benign_sessions=0).events
    batches = _equal_batches(events, BENCH_SCAN_OPT_SEGMENTS)
    unsealed, seg = _store_pair(batches)
    raptor = ThreatRaptor()
    queries = [resolve_query(parse_tbql(raptor.synthesize(
        raptor.extract(case.description)).text)) for case in ALL_CASES]
    patterns = sum(len(query.patterns) for query in queries)
    unsealed_exec = TBQLExecutor(unsealed)
    seg_exec = TBQLExecutor(seg)
    try:
        start = time.perf_counter()
        answers = [seg_exec.execute(query).rows for query in queries]
        first_pass = time.perf_counter() - start
        expected = [_giant_sql_rows(unsealed_exec, query) for query in queries]
        assert answers == expected
        assert sum(map(len, expected)) > 0
        repeated = _best_of(ROUNDS, lambda: [seg_exec.execute(query)
                                             for query in queries])
        giant = _best_of(ROUNDS, lambda: [
            unsealed_exec.execute_giant_sql(query) for query in queries])
    finally:
        seg_exec.close()
        unsealed.close()
        seg.close()

    rows = [
        {"path": "giant SQL, never-sealed store", "seconds": giant,
         "vs giant SQL": 1.0},
        {"path": "segmented default path, first pass (tables built)",
         "seconds": first_pass, "vs giant SQL": first_pass / giant},
        {"path": "segmented default path, repeated (memo reused)",
         "seconds": repeated, "vs giant SQL": repeated / giant},
    ]
    table = format_table(rows, floatfmt="{:.6f}")
    header = (f"Case-report joins (%contains%), {len(queries)} queries / "
              f"{patterns} patterns ({BENCH_SCAN_OPT_SESSIONS} sessions, "
              f"{len(batches)} segments; repeated and giant SQL best of "
              f"{ROUNDS}, first pass once):")
    print("\n" + header + "\n" + table)
    write_result_table("scan_optimizer_case_joins", header + "\n" + table)
