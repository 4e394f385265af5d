"""Data reduction: merging excessive system events (Section III-B).

The OS finishes one logical read/write by distributing data across many
system calls, so audit logs contain long runs of near-identical events between
the same entity pair.  ThreatRaptor merges two events ``e1`` (earlier) and
``e2`` (later) when:

* same subject entity, same object entity, same operation type, and
* ``0 <= e2.start_time - e1.end_time <= threshold``

The merged event keeps ``e1.start_time``, takes ``e2.end_time``, and sums the
data amounts.  The paper chose a threshold of one second.

:func:`reduce_events` is the batch pass over a whole list; the store's
write path applies the same rule incrementally, batch by batch, and
stores the same rows (``_BuildBatches.consume_reducing`` in
:mod:`repro.storage.dualstore`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .entities import SystemEvent

#: Threshold (seconds) chosen by the paper after experimentation.
DEFAULT_MERGE_THRESHOLD = 1.0


@dataclass
class ReductionStats:
    """Statistics about one reduction pass."""

    input_events: int
    output_events: int
    merged_events: int

    @property
    def reduction_ratio(self) -> float:
        """Input/output ratio; 1.0 means nothing was merged."""
        if self.output_events == 0:
            return 1.0
        return self.input_events / self.output_events

    @property
    def events_removed(self) -> int:
        return self.input_events - self.output_events


def mergeable(earlier: SystemEvent, later: SystemEvent,
              threshold: float = DEFAULT_MERGE_THRESHOLD) -> bool:
    """Return whether ``later`` can be merged into ``earlier``.

    The check follows the criteria of Section III-B exactly; in particular a
    negative gap (overlapping or out-of-order events) is not mergeable.
    """
    if earlier.subject.unique_key != later.subject.unique_key:
        return False
    if earlier.obj.unique_key != later.obj.unique_key:
        return False
    if earlier.operation is not later.operation:
        return False
    gap = later.start_time - earlier.end_time
    return 0 <= gap <= threshold


def reduce_events(events: list[SystemEvent],
                  threshold: float = DEFAULT_MERGE_THRESHOLD
                  ) -> tuple[list[SystemEvent], ReductionStats]:
    """Merge excessive events and return (reduced events, statistics).

    Events are processed in start-time order.  Merging is greedy and
    transitive within a run: a run of ``n`` mergeable events collapses into a
    single event spanning the whole run.
    """
    if threshold < 0:
        raise ValueError("merge threshold must be non-negative")
    ordered = sorted(events, key=lambda event: (event.start_time,
                                                event.event_id))
    reduced: list[SystemEvent] = []
    # Track the currently-open merged event per (subject, object, operation)
    # key so that interleaved streams from different entity pairs still merge.
    open_events: dict[tuple, int] = {}
    merged_count = 0
    for event in ordered:
        key = (event.subject.unique_key, event.obj.unique_key,
               event.operation)
        index = open_events.get(key)
        if index is not None and mergeable(reduced[index], event, threshold):
            reduced[index] = reduced[index].merged_with(event)
            merged_count += 1
            continue
        open_events[key] = len(reduced)
        reduced.append(event)
    stats = ReductionStats(input_events=len(ordered),
                           output_events=len(reduced),
                           merged_events=merged_count)
    return reduced, stats


def sweep_thresholds(events: list[SystemEvent],
                     thresholds: list[float]) -> dict[float, ReductionStats]:
    """Run the reduction for several thresholds (ablation of Section III-B)."""
    return {threshold: reduce_events(events, threshold)[1]
            for threshold in thresholds}


__all__ = [
    "DEFAULT_MERGE_THRESHOLD",
    "ReductionStats",
    "mergeable",
    "reduce_events",
    "sweep_thresholds",
]
