"""The dataset every workload runs on, built from ``--seed`` in set-up.

Benign background noise plus the attack traces of all 18 evaluation
cases, replayed at evenly spaced offsets inside the noise time span,
rendered to auditd-style text and parsed back (so the stored events are
what a user's log file would give), appended in equal batches with a
seal after each, and saved as a snapshot.  Nothing is cached across
invocations: set-up time is part of what the benchmark reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import sut


@dataclass(frozen=True)
class Scale:
    name: str
    sessions: int
    segments: int


#: ``full`` is what BENCHMARK.json records; ``smoke`` exists only for the
#: self-test.  1600 sessions is ~44k raw / ~21k stored events: its set-up
#: (7-10 s) plus a 20 s run fits the driver's budget of 92 runs in 3420 s
#: on a 2-core sandbox with a fifth to spare for a busy host.
SCALES = {
    "full": Scale("full", sessions=1600, segments=16),
    "smoke": Scale("smoke", sessions=120, segments=4),
}


@dataclass
class Dataset:
    seed: int
    scale: Scale
    log_text: str
    lines: list[str]
    parsed: list[Any]
    time_span: tuple[float, float]
    #: Seconds per set-up stage (generate, format, parse, ingest, save).
    stage_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def raw_events(self) -> int:
        return len(self.lines)

    def batches(self) -> list[list[Any]]:
        """The parsed events cut into ``scale.segments`` equal batches."""
        return equal_batches(self.parsed, self.scale.segments)


def equal_batches(items: list[Any], count: int) -> list[list[Any]]:
    step = -(-len(items) // count)
    return [items[start:start + step]
            for start in range(0, len(items), step)]


#: Epoch second at which the dataset starts.
START_TIME = 1_523_400_000.0


def build_events(sessions: int, seed: int,
                 start_time: float = START_TIME) -> list[Any]:
    """Noise plus the 18 attack traces, ordered as a log would be."""
    noise = sut.generate_benign_noise(sessions, seed, start_time)
    first, last = noise[0].start_time, noise[-1].end_time
    events = list(noise)
    cases = sut.ALL_CASES
    for index, case in enumerate(cases):
        offset = first + (last - first) * (index + 0.5) / len(cases)
        events += sut.CaseBuilder(start_time=offset).build(
            case, benign_sessions=0).events
    events.sort(key=lambda event: (event.start_time, event.event_id))
    return events


def build_dataset(scale: Scale, seed: int) -> Dataset:
    seconds: dict[str, float] = {}
    start = time.perf_counter()
    events = build_events(scale.sessions, seed)
    seconds["generate"] = time.perf_counter() - start
    start = time.perf_counter()
    log_text = sut.format_log(events)
    seconds["format"] = time.perf_counter() - start
    start = time.perf_counter()
    parsed = sut.parse_audit_log(log_text)
    seconds["parse"] = time.perf_counter() - start
    return Dataset(seed=seed, scale=scale, log_text=log_text,
                   lines=log_text.splitlines(), parsed=parsed,
                   time_span=(events[0].start_time, events[-1].end_time),
                   stage_seconds=seconds)


@dataclass
class Snapshot:
    path: Path
    bytes_on_disk: int
    stored_events: int


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def ingest_segmented(batches: list[list[Any]]) -> Any:
    """A segmented store with one sealed segment per batch."""
    store = sut.DualStore(layout="segmented")
    for batch in batches:
        store.append_events(batch)
        store.flush_appends()
    return store


def build_snapshot(dataset: Dataset, work_dir: Path) -> Snapshot:
    """Ingest the dataset the way ``bulk_ingest`` does and save it."""
    start = time.perf_counter()
    store = ingest_segmented(dataset.batches())
    dataset.stage_seconds["ingest"] = time.perf_counter() - start
    start = time.perf_counter()
    path = work_dir / "snapshot"
    manifest = store.save(path)
    store.close()
    dataset.stage_seconds["save"] = time.perf_counter() - start
    return Snapshot(path=path, bytes_on_disk=directory_bytes(path),
                    stored_events=manifest["relational_events"])
