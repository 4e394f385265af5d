"""Unit and property-based tests for data reduction (Section III-B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.collector import AuditCollector, CollectorConfig
from repro.audit.entities import (FileEntity, Operation, ProcessEntity,
                                  SystemEvent)
from repro.audit.reduction import (DEFAULT_MERGE_THRESHOLD, mergeable,
                                   reduce_events, sweep_thresholds)
from repro.storage import DualStore


def _event(start, end, operation=Operation.READ, pid=1, path="/tmp/a",
           data=10):
    return SystemEvent(subject=ProcessEntity(exename="/bin/cat", pid=pid),
                       operation=operation,
                       obj=FileEntity(path=path),
                       start_time=start, end_time=end, data_amount=data)


class TestMergeable:
    def test_same_pair_within_threshold(self):
        assert mergeable(_event(0.0, 1.0), _event(1.5, 2.0))

    def test_gap_exactly_threshold(self):
        assert mergeable(_event(0.0, 1.0), _event(2.0, 2.5))

    def test_gap_above_threshold(self):
        assert not mergeable(_event(0.0, 1.0), _event(2.1, 2.5))

    def test_negative_gap_not_mergeable(self):
        assert not mergeable(_event(0.0, 2.0), _event(1.0, 3.0))

    def test_different_operation_not_mergeable(self):
        assert not mergeable(_event(0.0, 1.0),
                             _event(1.1, 1.2, operation=Operation.WRITE))

    def test_different_subject_not_mergeable(self):
        assert not mergeable(_event(0.0, 1.0), _event(1.1, 1.2, pid=2))

    def test_different_object_not_mergeable(self):
        assert not mergeable(_event(0.0, 1.0),
                             _event(1.1, 1.2, path="/tmp/b"))


class TestReduceEvents:
    def test_burst_collapses_to_single_event(self):
        burst = [_event(i * 0.1, i * 0.1 + 0.05) for i in range(10)]
        reduced, stats = reduce_events(burst)
        assert len(reduced) == 1
        assert stats.merged_events == 9
        assert stats.reduction_ratio == pytest.approx(10.0)
        assert reduced[0].data_amount == 100
        assert reduced[0].start_time == pytest.approx(0.0)
        assert reduced[0].end_time == pytest.approx(0.95)

    def test_interleaved_pairs_merge_independently(self):
        events = []
        for i in range(5):
            events.append(_event(i * 0.2, i * 0.2 + 0.01, path="/tmp/a"))
            events.append(_event(i * 0.2 + 0.05, i * 0.2 + 0.06,
                                 path="/tmp/b"))
        reduced, _stats = reduce_events(events)
        assert len(reduced) == 2

    def test_gap_larger_than_threshold_keeps_events(self):
        events = [_event(0.0, 0.1), _event(10.0, 10.1)]
        reduced, stats = reduce_events(events)
        assert len(reduced) == 2
        assert stats.merged_events == 0

    def test_empty_input(self):
        reduced, stats = reduce_events([])
        assert reduced == []
        assert stats.reduction_ratio == 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            reduce_events([], threshold=-1.0)

    def test_collector_bursts_are_reduced(self):
        collector = AuditCollector(CollectorConfig())
        tar = collector.spawn_process("/bin/tar")
        collector.read_file(tar, "/etc/passwd", burst=8)
        reduced, stats = reduce_events(collector.events())
        assert len(reduced) == 1
        assert stats.input_events == 8

    def test_sweep_thresholds_monotone(self):
        events = [_event(i * 0.6, i * 0.6 + 0.1) for i in range(10)]
        results = sweep_thresholds(events, [0.0, 0.5, 1.0, 5.0])
        outputs = [results[t].output_events for t in [0.0, 0.5, 1.0, 5.0]]
        assert outputs == sorted(outputs, reverse=True)

    def test_default_threshold_is_one_second(self):
        assert DEFAULT_MERGE_THRESHOLD == 1.0


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

event_strategy = st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False),   # start
    st.floats(min_value=0, max_value=5, allow_nan=False),     # duration
    st.sampled_from([Operation.READ, Operation.WRITE]),
    st.integers(min_value=1, max_value=3),                    # pid
    st.sampled_from(["/tmp/a", "/tmp/b"]),
    st.integers(min_value=0, max_value=100),                  # bytes
).map(lambda args: _event(args[0], args[0] + args[1], args[2], args[3],
                          args[4], args[5]))


class TestReductionProperties:
    @given(st.lists(event_strategy, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_never_increases_events_and_preserves_bytes(self, events):
        reduced, stats = reduce_events(events)
        assert len(reduced) <= len(events)
        assert stats.input_events == len(events)
        assert stats.output_events == len(reduced)
        assert sum(e.data_amount for e in reduced) == \
            sum(e.data_amount for e in events)

    @given(st.lists(event_strategy, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, events):
        reduced, _ = reduce_events(events)
        reduced_again, stats = reduce_events(reduced)
        assert len(reduced_again) == len(reduced)
        assert stats.merged_events == 0

    @given(st.lists(event_strategy, max_size=40),
           st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_preserves_entity_pairs(self, events, threshold):
        reduced, _ = reduce_events(events, threshold)
        original_pairs = {(e.subject.unique_key, e.obj.unique_key,
                           e.operation) for e in events}
        reduced_pairs = {(e.subject.unique_key, e.obj.unique_key,
                          e.operation) for e in reduced}
        assert original_pairs == reduced_pairs

    @given(st.lists(event_strategy, max_size=40),
           st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
           st.lists(st.integers(min_value=0, max_value=40), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_streaming_equals_batch(self, events, threshold, cuts):
        """The store's batch-by-batch reduction stores what the batch
        pass returns.

        Randomized interleaved streams across several entity pairs,
        sorted, cut at random batch boundaries and merged at a random
        threshold: same events, same order, same statistics.
        """
        batch, batch_stats = reduce_events(events, threshold)
        ordered = sorted(events, key=lambda e: (e.start_time, e.event_id))
        bounds = [0, *sorted(min(cut, len(ordered)) for cut in cuts),
                  len(ordered)]
        store = DualStore(merge_threshold=threshold)
        try:
            for start, end in zip(bounds, bounds[1:]):
                store.append_events(ordered[start:end])
            store.flush_appends(seal_segment=False)
            stored = [tuple(row.values()) for row in store.execute_sql(
                "SELECT s.pid, o.path, e.operation, e.start_time, "
                "e.end_time, e.data_amount FROM events e JOIN entities s "
                "ON s.id = e.subject_id JOIN entities o ON o.id = "
                "e.object_id ORDER BY e.id")]
            reduction = store.last_reduction
        finally:
            store.close()
        assert stored == [(e.subject.pid, e.obj.path, e.operation.value,
                           e.start_time, e.end_time, e.data_amount)
                          for e in batch]
        assert reduction == batch_stats

    def test_store_keeps_a_run_open_while_its_gap_merges(self):
        """A run closes when the merge test fails, not when
        ``end + threshold`` rounds below the next start: here it does,
        yet ``start - end`` equals the threshold and merges."""
        end, threshold, start = (0.9204938554384978, 4.406169294610777,
                                 5.326663150049275)
        assert end + threshold < start and start - end <= threshold
        events = [_event(0.5, end), _event(start, start + 0.1, pid=2),
                  _event(start, start + 0.1)]
        _batch, batch_stats = reduce_events(events, threshold)
        assert batch_stats.merged_events == 1
        store = DualStore(merge_threshold=threshold)
        try:
            store.load_events(events)
            assert store.last_reduction == batch_stats
        finally:
            store.close()

    @given(st.lists(event_strategy, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_zero_threshold_only_merges_touching_events(self, events):
        reduced, _ = reduce_events(events, threshold=0.0)
        # With threshold 0, merged spans only join events with no gap, so
        # every reduced event's span is covered by original events.
        for event in reduced:
            covering = [e for e in events
                        if e.subject.unique_key == event.subject.unique_key
                        and e.obj.unique_key == event.obj.unique_key
                        and e.operation == event.operation]
            assert any(e.start_time == event.start_time for e in covering)
            assert any(e.end_time == event.end_time for e in covering)
