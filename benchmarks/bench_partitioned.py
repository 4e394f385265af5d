"""Partitioned-storage benchmark: segment pruning.

On the benign workload (``BENCH_PARTITIONED_SESSIONS`` sessions; 3400 ≈
100k raw events, overridable for CI smoke runs), with the history
sealed into ``BENCH_PARTITIONED_SEGMENTS`` segments: a selective
time-windowed hunt (``before T`` plus an artifact filter, the dominant
shape of the paper's Table 8 corpus) on the sealed store vs the
identically fed store that was never sealed.  The window covers one
segment, so the planner skips the other ``N-1`` via manifest time bounds
while the never-sealed store filters the whole history.  The acceptance
bar is a **>= 2x** speedup at full workload scale (asserted there,
recorded everywhere).

The table lands in ``benchmarks/results/partitioned_pruning.txt``.
"""

from __future__ import annotations

import os
import time
from operator import attrgetter

import pytest

from repro.audit.workload import generate_benign_noise
from repro.benchmark.evaluation import format_table
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor

from .conftest import write_result_table

#: Sessions in the synthetic workload; 3400 sessions ≈ 100k events.
BENCH_PARTITIONED_SESSIONS = int(os.environ.get(
    "BENCH_PARTITIONED_SESSIONS", "3400"))
#: Sealed segments the history is partitioned into.
BENCH_PARTITIONED_SEGMENTS = int(os.environ.get(
    "BENCH_PARTITIONED_SEGMENTS", "16"))
#: Timed rounds (best round reported).
ROUNDS = 5

#: The full-scale acceptance bar: a windowed hunt on the sealed store
#: at least this much faster than on the never-sealed store.
MIN_PRUNING_SPEEDUP = 2.0
#: Workload size at which the bar is asserted (smoke runs only record).
FULL_SCALE_SESSIONS = 2000


def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def stores():
    """Never-sealed + sealed stores fed identically (same flushes)."""
    events = generate_benign_noise(BENCH_PARTITIONED_SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    unsealed = DualStore()
    seg = DualStore()
    step = len(events) // BENCH_PARTITIONED_SEGMENTS + 1
    for index in range(0, len(events), step):
        batch = events[index:index + step]
        for store in (unsealed, seg):
            store.append_events(batch)
            store.flush_appends(seal_segment=store is seg)
    yield unsealed, seg
    unsealed.close()
    seg.close()


def test_partitioned_pruning_speedup(stores):
    unsealed, seg = stores
    segments = seg.segment_view().sealed
    # Window a selective hunt to the first segment's time span: the
    # window predicate is `end_time <= T` (no index on end_time) and the
    # artifact filter is a LIKE (no index either), so the tail scan pays
    # a history-wide scan while the planner prunes to one segment.
    cut = segments[0].max_end_time
    text = (f'before {cut} proc p read file f["%/etc/%"] '
            f'return distinct p, f')

    unsealed_exec = TBQLExecutor(unsealed)
    seg_exec = TBQLExecutor(seg)
    expected = unsealed_exec.execute(text)
    got = seg_exec.execute(text)
    assert got.rows == expected.rows
    assert got.matched_events == expected.matched_events
    scanned = got.plan[0].segments_scanned
    pruned = got.plan[0].segments_pruned
    assert scanned + pruned == len(segments)
    assert pruned >= len(segments) - 2     # the window spans ~1 segment

    unsealed_seconds = _best_of(ROUNDS, lambda: unsealed_exec.execute(text))
    seg_seconds = _best_of(ROUNDS, lambda: seg_exec.execute(text))
    speedup = unsealed_seconds / seg_seconds

    rows = [
        {"store": "never sealed (full-history filter)",
         "seconds": unsealed_seconds, "segments scanned": len(segments),
         "speedup": 1.0},
        {"store": f"sealed ({scanned} scanned / {pruned} pruned)",
         "seconds": seg_seconds, "segments scanned": scanned,
         "speedup": speedup},
    ]
    table = format_table(rows, floatfmt="{:.6f}")
    header = (f"Time-windowed hunt via segment pruning "
              f"({BENCH_PARTITIONED_SESSIONS} sessions, "
              f"{len(segments)} segments, best of {ROUNDS}):")
    print("\n" + header + "\n" + table)
    write_result_table("partitioned_pruning", header + "\n" + table)

    if BENCH_PARTITIONED_SESSIONS >= FULL_SCALE_SESSIONS:
        assert speedup >= MIN_PRUNING_SPEEDUP, (
            f"segment pruning speedup {speedup:.2f}x below the "
            f"{MIN_PRUNING_SPEEDUP}x acceptance bar")
