"""Partitioned-storage benchmark: segment pruning + scatter-gather.

Two measurements on the benign workload (``BENCH_PARTITIONED_SESSIONS``
sessions; 3400 ≈ 100k raw events, overridable for CI smoke runs), with
the history sealed into ``BENCH_PARTITIONED_SEGMENTS`` segments:

* *segment pruning* — a selective time-windowed hunt (``before T``
  plus an artifact filter, the dominant shape of the paper's Table 8
  corpus) on the segmented store vs the identically fed monolithic
  store.  The window covers one segment, so the planner skips the
  other ``N-1`` via manifest time bounds while the monolith filters
  the whole history.  The acceptance bar is a **>= 2x** speedup at
  full workload scale (asserted there, recorded everywhere).
* *scatter-gather* — an unwindowed hunt fanned out across the sealed
  segments at 1/2/4 worker processes.  Wall-clock gains need physical
  cores (recorded always, asserted never — CI machines vary); the
  rows must be identical at every worker count (asserted always).

Tables land in ``benchmarks/results/partitioned_pruning.txt`` and
``partitioned_scatter.txt``.
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

#: The full-scale acceptance bar: a windowed hunt on the segmented
#: store at least this much faster than on the monolithic store.
MIN_PRUNING_SPEEDUP = 2.0
#: Workload size at which the bar is asserted (smoke runs only record).
FULL_SCALE_SESSIONS = 2000

#: The unwindowed hunt used for the scatter-gather measurement.
BROAD_QUERY = 'proc p read file f return distinct p'


def _best_of(rounds, run):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def stores():
    """Monolithic + segmented stores fed identically (same seals)."""
    events = generate_benign_noise(BENCH_PARTITIONED_SESSIONS, seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    mono = DualStore(retain_events=False)
    seg = DualStore(retain_events=False, layout="segmented")
    step = len(events) // BENCH_PARTITIONED_SEGMENTS + 1
    for index in range(0, len(events), step):
        batch = events[index:index + step]
        for store in (mono, seg):
            store.append_events(batch)
            store.flush_appends()
    yield mono, seg
    mono.close()
    seg.close()


def test_partitioned_pruning_speedup(stores):
    mono, seg = stores
    segments = seg.segment_view().sealed
    # Window a selective hunt to the first segment's time span: the
    # window predicate is `end_time <= T` (no index on end_time) and the
    # artifact filter is a LIKE (no index either), so the monolith pays
    # a history-wide scan while the planner prunes to one segment.
    cut = segments[0].max_end_time
    text = (f'before {cut} proc p read file f["%/etc/%"] '
            f'return distinct p, f')

    mono_exec = TBQLExecutor(mono)
    seg_exec = TBQLExecutor(seg)
    expected = mono_exec.execute(text)
    got = seg_exec.execute(text)
    assert got.rows == expected.rows
    assert got.matched_events == expected.matched_events
    scanned = got.plan[0].segments_scanned
    pruned = got.plan[0].segments_pruned
    assert scanned + pruned == len(segments)
    assert pruned >= len(segments) - 2     # the window spans ~1 segment

    mono_seconds = _best_of(ROUNDS, lambda: mono_exec.execute(text))
    seg_seconds = _best_of(ROUNDS, lambda: seg_exec.execute(text))
    seg_exec.close()
    speedup = mono_seconds / seg_seconds

    rows = [
        {"store": "monolithic (full-history filter)",
         "seconds": mono_seconds, "segments scanned": len(segments),
         "speedup": 1.0},
        {"store": f"segmented ({scanned} scanned / {pruned} pruned)",
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


def test_partitioned_scatter_gather(stores):
    _mono, seg = stores
    segments = len(seg.segment_view().sealed)
    rows = []
    reference_rows = None
    serial_seconds = None
    for workers in (1, 2, 4):
        executor = TBQLExecutor(seg, workers=workers)
        result = executor.execute(BROAD_QUERY)
        if reference_rows is None:
            reference_rows = result.rows
        else:
            # Identical results at every worker count, by construction.
            assert result.rows == reference_rows
        seconds = _best_of(ROUNDS,
                           lambda: executor.execute(BROAD_QUERY))
        executor.close()
        if serial_seconds is None:
            serial_seconds = seconds
        rows.append({"workers": workers, "seconds": seconds,
                     "vs serial": serial_seconds / seconds,
                     "result rows": len(reference_rows)})
    table = format_table(rows, floatfmt="{:.6f}")
    header = (f"Scatter-gather over {segments} segments "
              f"({BENCH_PARTITIONED_SESSIONS} sessions, "
              f"{os.cpu_count()} cpu(s), best of {ROUNDS}):")
    print("\n" + header + "\n" + table)
    write_result_table("partitioned_scatter", header + "\n" + table)
