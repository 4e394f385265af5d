"""Scatter-gather scanning of sealed store segments.

The segmented dual store partitions the event history into immutable
segment files (:mod:`repro.storage.segments`); per-pattern candidate
retrieval then becomes a scatter-gather stage: one scan task per
surviving segment, with the per-segment rows merged (and re-sorted)
before the global hash join.

Two task shapes flow through the same scanner, both evaluated against
the segment's memory-mapped ``events.col`` columns — workers share the
payload's read-only pages through the OS page cache instead of
materializing and pickling per-row tuples:

* :class:`~repro.tbql.colscan.ColumnarTask` — a
  :class:`~repro.tbql.colscan.PatternSpec`; the worker returns one packed
  tuple of machine-typed byte strings, which the gather side re-inflates
  via :func:`~repro.tbql.colscan.unpack_rows`.
* :class:`~repro.tbql.colscan.AggregateTask` — the same row selection
  counted per group key (:meth:`SegmentScanner.scan_results` only — its
  payload is per-segment group counts, not mergeable rows).

:class:`SegmentScanner` owns the execution strategy:

* ``workers > 1`` — a lazily created :mod:`multiprocessing` pool fans
  the segment scans out across worker processes.  Segments are
  immutable, so workers share nothing with the parent but a file path;
  this sidesteps the GIL entirely (the ROADMAP's "truly parallel
  backend work").
* ``workers == 1`` (or pool creation fails — restricted platforms,
  missing semaphores) — the scans run serially in-process through the
  exact same task function, so results are identical by construction.
  Pool-creation failure is logged as a warning and surfaced via
  :attr:`SegmentScanner.pool_fallback` (visible in ``GET /stats`` and
  ``repro query --explain``).

Columnar segment mappings are cached process-wide.  Segment paths are
never reused by the store (the segment name counter is monotonic), so a
cached mapping can never see stale data.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..obs.metrics import get_registry
from ..obs.trace import current_span
from .colscan import (AggregateTask, ColumnarTask, last_filter_table_counts,
                      scan_segment_aggregate, scan_segment_columnar,
                      unpack_rows)

logger = logging.getLogger(__name__)

# Pool-creation failure is worth exactly one warning per process — every
# scanner after the first would otherwise repeat it on every query.
_pool_warning_emitted = False

#: Any scatter task the scanner accepts.
ScanTask = Union[ColumnarTask, AggregateTask]


def run_scan_task(task: ScanTask) -> Any:
    """Worker entry point dispatching on the task shape."""
    if isinstance(task, ColumnarTask):
        return scan_segment_columnar(task)
    return scan_segment_aggregate(task)


@lru_cache(maxsize=4096)
def _segment_name(path: str) -> str:
    """The segment a payload file belongs to: ``events.col`` sits
    inside the segment directory, whose name is the segment's
    identity.  Cached, because a traced query asks
    once per segment and pattern and ``pathlib`` takes longer to answer
    than the rest of the span's bookkeeping."""
    return Path(path).parent.name


def run_scan_task_traced(task: ScanTask
                         ) -> tuple[Any, float, dict[str, Any]]:
    """Worker entry that also times the scan for span attachment.

    Worker processes cannot share the parent's trace context, so the
    span travels as plain data piggybacked on the payload — ``(result,
    duration_ms, attributes)`` — and the gather side grafts it into
    the live trace tree.  Row results are byte-identical to
    :func:`run_scan_task`.
    """
    start = time.perf_counter()
    result = run_scan_task(task)
    duration_ms = (time.perf_counter() - start) * 1000.0
    strategy = "columnar" if isinstance(task, ColumnarTask) else "aggregate"
    hit, built = last_filter_table_counts()
    attributes = {"segment": _segment_name(task.path), "strategy": strategy,
                  "rows": result[0], "filter_tables_hit": hit,
                  "filter_tables_built": built}
    return result, duration_ms, attributes


class SegmentScanner:
    """Runs segment-scan tasks, in parallel when workers allow it.

    The process pool is created lazily on the first multi-segment scan
    and reused for the scanner's lifetime; creation failure downgrades
    to the serial path permanently (graceful fallback, never an error,
    but logged and flagged via :attr:`pool_fallback`).  ``scan``
    preserves task order, so gathered results are deterministic
    regardless of worker count.
    """

    def __init__(self, workers: int = 1) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers}")
        self.workers = workers
        self._pool: Optional[Any] = None
        self._pool_failed = False
        self._lock = threading.Lock()

    @property
    def parallel(self) -> bool:
        """Whether scans may actually fan out across processes."""
        return self.workers > 1 and not self._pool_failed

    @property
    def pool_fallback(self) -> bool:
        """True once pool creation failed and scans run serially."""
        return self._pool_failed

    def _ensure_pool(self) -> Optional[Any]:
        global _pool_warning_emitted
        with self._lock:
            if self._pool is None and not self._pool_failed:
                try:
                    methods = multiprocessing.get_all_start_methods()
                    # Fork shares the parent's imports for free; spawn
                    # works too (the task functions are importable and
                    # light) but pays an interpreter start per worker.
                    method = "fork" if "fork" in methods else None
                    context = multiprocessing.get_context(method)
                    self._pool = context.Pool(processes=self.workers)
                except (OSError, ValueError, ImportError) as exc:
                    self._pool_failed = True
                    get_registry().counter(
                        "repro_scatter_pool_failures_total",
                        "Scatter pool creations that failed and "
                        "downgraded the scanner to serial scans.").inc()
                    if not _pool_warning_emitted:
                        _pool_warning_emitted = True
                        logger.warning(
                            "scatter-gather pool creation failed "
                            "(%s: %s); falling back to serial "
                            "in-process segment scans",
                            type(exc).__name__, exc)
            return self._pool

    @staticmethod
    def _gather(results: Sequence[Any]) -> list[dict[str, Any]]:
        rows: list[dict[str, Any]] = []
        for result in results:
            rows.extend(unpack_rows(result))
        return rows

    def scan(self, tasks: Sequence[ScanTask]) -> list[dict[str, Any]]:
        """Execute every task; returns the concatenated rows in task
        order."""
        if not tasks:
            return []
        span = current_span()
        if self.workers > 1 and len(tasks) > 1:
            pool = self._ensure_pool()
            if pool is not None:
                if span is not None:
                    return self._gather_traced(
                        pool.map(run_scan_task_traced, tasks), span)
                return self._gather(pool.map(run_scan_task, tasks))
            get_registry().counter(
                "repro_scatter_fallback_scans_total",
                "Multi-segment scans forced onto the serial path "
                "because the worker pool is unavailable.").inc()
        if span is not None:
            return self._gather_traced(
                [run_scan_task_traced(task) for task in tasks], span)
        return self._gather([run_scan_task(task) for task in tasks])

    def scan_results(self, tasks: Sequence[ScanTask]) -> list[Any]:
        """Execute every task; returns the raw per-task payloads in
        task order (no row gathering — aggregate pushdown merges the
        per-segment partials itself).  Pool/serial/traced behavior
        mirrors :meth:`scan` exactly.
        """
        if not tasks:
            return []
        span = current_span()
        if self.workers > 1 and len(tasks) > 1:
            pool = self._ensure_pool()
            if pool is not None:
                if span is not None:
                    return self._payloads_traced(
                        pool.map(run_scan_task_traced, tasks), span)
                return pool.map(run_scan_task, tasks)
            get_registry().counter(
                "repro_scatter_fallback_scans_total",
                "Multi-segment scans forced onto the serial path "
                "because the worker pool is unavailable.").inc()
        if span is not None:
            return self._payloads_traced(
                [run_scan_task_traced(task) for task in tasks], span)
        return [run_scan_task(task) for task in tasks]

    @staticmethod
    def _payloads_traced(
            results: Sequence[tuple[Any, float, dict[str, Any]]],
            span: Any) -> list[Any]:
        payloads = []
        for payload, duration_ms, attributes in results:
            span.attach("segment_scan", duration_ms, attributes)
            payloads.append(payload)
        return payloads

    @staticmethod
    def _gather_traced(
            results: Sequence[tuple[Any, float, dict[str, Any]]],
            span: Any) -> list[dict[str, Any]]:
        return SegmentScanner._gather(
            SegmentScanner._payloads_traced(results, span))

    def close(self) -> None:
        """Tear the worker pool down (idempotent)."""
        with self._lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


__all__ = ["ScanTask", "SegmentScanner", "run_scan_task",
           "run_scan_task_traced"]
