"""What the workloads share: set-up, the result record, emission.

One invocation runs one workload: build the dataset from the seed, ingest
it into a snapshot, build the oracle, let the workload set itself up
(``setup_s`` ends at its first timed operation), measure for
``--seconds``, check every answer, and report.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import shutil
import subprocess
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator, Optional

from . import SCHEMA_VERSION, dataset as datasets, load_spec, stats
from .oracle import (GOLDEN_SEED, Oracle, golden_mismatches, store_golden)
from .spans import Tracer
from .sut import REPO_ROOT

PACKAGE_DIR = Path(__file__).resolve().parent
WORK_ROOT = PACKAGE_DIR / ".work"


@contextmanager
def work_directory() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed on exit.

    ``tempfile`` is pointed at it too, so the private segment directory
    of every writable store lands inside the checkout as well.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)


@dataclass
class Context:
    """Everything a workload needs; built once per invocation."""

    seed: int
    seconds: float
    traced: bool
    scale: datasets.Scale
    work_dir: Path
    started: float
    dataset: datasets.Dataset
    snapshot: datasets.Snapshot
    tracer: Tracer
    rng: random.Random
    setup_s: float = 0.0

    @cached_property
    def oracle(self) -> Oracle:
        """The oracle over the whole dataset, built on first use (inside
        set-up: every workload that needs it asks before it starts
        timing)."""
        return Oracle(self.dataset.batches())

    def setup_done(self) -> None:
        """Called by the workload right before its first timed operation.

        The benchmark's own long-lived objects (the dataset, the oracle)
        are moved out of the collector's reach first, so that a full
        collection during the timed part costs what the system's objects
        cost, not what the benchmark's do.
        """
        gc.collect()
        gc.freeze()
        self.setup_s = time.perf_counter() - self.started


@dataclass
class Latencies:
    """Latency samples (seconds) of one operation and their summary."""

    seconds: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.seconds.append(value)

    def __len__(self) -> int:
        return len(self.seconds)

    def ms(self, q: float) -> float:
        return stats.percentile(self.seconds, q) * 1000.0

    def summary(self) -> dict[str, Any]:
        """Median plus every percentile the sample count supports."""
        count = len(self.seconds)
        out: dict[str, Any] = {"samples": count}
        if count:
            out["p50_ms"] = self.ms(50)
            for q in (90.0, 95.0, 99.0):
                if stats.is_supported(count, q):
                    out[f"p{q:g}_ms"] = self.ms(q)
        return out


@dataclass
class Result:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: The workload-dependent end-to-end values; the harness adds
    #: ``setup_s``.  Keys are the names in BENCHMARK.json.
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Sample counts beside the end-to-end values.
    samples: dict[str, int] = field(default_factory=dict)
    #: The workload's own user-visible figures under their own names.
    detail: dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics (traced run only).
    layers: dict[str, float] = field(default_factory=dict)
    #: Values that must repeat exactly for the golden seed.
    exact: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    timed_seconds: float = 0.0

    def fail(self, message: str, count: int = 1) -> None:
        """Charge ``count`` attempted operations as failed."""
        self.failed += count
        self.problem(message)

    def problem(self, message: str) -> None:
        """Record something wrong with the run as a whole."""
        if len(self.problems) < 20:
            self.problems.append(message)


def machine_info() -> dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_rev": rev}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale_name: str, started: float,
                 update_golden: bool = False) -> tuple[dict, dict, Tracer]:
    """Run one workload; returns (driver line, artifact, tracer)."""
    from .workloads import WORKLOADS
    workload = WORKLOADS[name]
    scale = datasets.SCALES[scale_name]
    spec = load_spec()
    with work_directory() as work_dir:
        data = datasets.build_dataset(scale, seed)
        snapshot = datasets.build_snapshot(data, work_dir)
        context = Context(
            seed=seed, seconds=seconds, traced=traced,
            scale=scale, work_dir=work_dir, started=started, dataset=data,
            snapshot=snapshot, tracer=Tracer(enabled=False),
            rng=random.Random(seed))
        try:
            result: Result = workload(context)
        finally:
            oracle = vars(context).get("oracle")     # built on first use
            if oracle is not None:
                oracle.close()
    exact = dict(result.exact)
    if oracle is not None:
        exact.update({f"oracle.{label}": value
                      for label, value in oracle.digests.items()})
    # The golden values belong to the run BENCHMARK.json describes: an
    # untraced run of the golden seed for run_seconds (the number of live
    # batches, for one, follows from the run length).
    if seed == GOLDEN_SEED and not traced and \
            seconds == spec["run_seconds"]:
        if update_golden:
            store_golden(scale.name, name, exact)
        else:
            for key in golden_mismatches(scale.name, name, exact):
                result.problem(f"golden mismatch for seed {seed}: {key}")
    result.end_to_end["setup_s"] = context.setup_s
    line = driver_line(spec, result, traced)
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "workload": name, "seed": seed, "scale": scale.name,
        "seconds": seconds, "traced": traced,
        "machine": machine_info(),
        "dataset": {"raw_events": data.raw_events,
                    "stored_events": snapshot.stored_events,
                    "snapshot_bytes": snapshot.bytes_on_disk,
                    "segments": scale.segments,
                    "setup_stage_seconds": data.stage_seconds},
        "timed_seconds": result.timed_seconds,
        "attempted": result.attempted, "failed": result.failed,
        "correct": line["correct"], "problems": result.problems,
        "end_to_end": {} if traced else result.end_to_end,
        "samples": result.samples, "detail": result.detail,
        "per_layer": line["metrics"] if traced else {},
        "exact": exact,
        "claim": None,
    }
    return line, artifact, context.tracer


def driver_line(spec: dict, result: Result, traced: bool) -> dict:
    """The one JSON object the driver reads from the last stdout line."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    source = result.layers if traced else result.end_to_end
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name in source:
            value = float(source[name])
        elif traced:
            value = 0.0          # a layer this workload does not reach
        else:
            raise KeyError(f"workload did not report {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    unknown = sorted(set(source) - {entry["name"] for entry in declared})
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    attempted = max(1, result.attempted)
    return {"correct": result.failed == 0 and not result.problems,
            "attempted": attempted, "failed": result.failed,
            "metrics": metrics}


def print_table(name: str, line: dict, artifact: dict) -> None:
    """Every metric by name with its unit (human-readable, not parsed)."""
    print(f"== {name}  seed={artifact['seed']} scale={artifact['scale']} "
          f"traced={artifact['traced']}  attempted={line['attempted']} "
          f"failed={line['failed']} correct={line['correct']}  "
          f"timed={artifact['timed_seconds']:.2f}s")
    for metric, entry in line["metrics"].items():
        if artifact["traced"] and entry["value"] == 0.0:
            continue             # a layer this workload does not reach
        count = artifact["samples"].get(metric)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {metric:48s} {entry['value']:>14.4f} {entry['unit']}"
              f"{suffix}")
    for key, value in sorted(artifact["detail"].items()):
        print(f"  . {key:46s} {value}")
    for problem in artifact["problems"]:
        print(f"  ! {problem}")


Walls = dict[bool, list[float]]


def alternating_passes(context: Context, walls: Walls,
                       max_spans: Optional[int] = None,
                       begin: Optional[float] = None,
                       seconds: Optional[float] = None) -> Iterator[int]:
    """Yield pass numbers until another pass would not fit ``seconds``
    (by default ``--seconds``; counted from ``begin``, by default from
    the first pass).

    A traced run makes at least two passes and alternates the tracer off
    and on (off first); ``walls`` collects each pass's wall time under
    the tracer state it ran with, for :func:`overhead_ratio`.  Beyond
    ``max_spans`` recorded spans the tracer stays off.
    """
    tracer = context.tracer
    if begin is None:
        begin = time.perf_counter()
    if seconds is None:
        seconds = context.seconds
    index = 0
    while True:
        longest = max((wall for group in walls.values() for wall in group),
                      default=0.0)
        if index >= (2 if context.traced else 1) and \
                time.perf_counter() - begin + longest > seconds:
            break
        tracer.enabled = context.traced and index % 2 == 1 and \
            (max_spans is None or len(tracer.spans) < max_spans)
        start = time.perf_counter()
        try:
            yield index
        finally:
            walls[tracer.enabled].append(time.perf_counter() - start)
            tracer.enabled = False
        index += 1


def overhead_ratio(walls: Walls) -> float:
    """Traced over untraced wall time of otherwise identical passes."""
    if not walls[True] or not walls[False]:
        return 0.0
    return stats.median(walls[True]) / stats.median(walls[False])
