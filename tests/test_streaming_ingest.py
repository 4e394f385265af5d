"""Equivalence tests for the incremental (streaming) ingestion path.

The flagship guarantee: appending a log in K batches yields backends — and
therefore TBQL results — *byte-identical* to a one-shot ``load_events`` of
the full log.  Merge runs that span batch boundaries must keep merging,
entity/event ids must continue seamlessly, and ``data_version`` must bump
per stored batch so the caches above invalidate.
"""

from __future__ import annotations

import json
from operator import attrgetter

import pytest

from repro.audit import AuditCollector, CollectorConfig, generate_benign_noise
from repro.audit.entities import FileEntity, Operation, ProcessEntity, \
    SystemEvent
from repro.errors import StorageError
from repro.service import result_payload
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor
from repro.tbql.paths import adjacency

from .test_path_adjacency import _assert_fresh
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


def _ordered(events):
    return sorted(events, key=attrgetter("start_time", "event_id"))


def _chunks(items, count):
    size = (len(items) + count - 1) // count
    return [items[index:index + size] for index in range(0, len(items),
                                                         size)]


def _assert_stores_identical(left: DualStore, right: DualStore) -> None:
    for sql in ("SELECT * FROM entities ORDER BY id",
                "SELECT * FROM events ORDER BY id"):
        assert left.execute_sql(sql) == right.execute_sql(sql)
    assert adjacency(left).out_edges == adjacency(right).out_edges


@pytest.fixture(scope="module")
def stream_events(data_leak_events):
    """The data-leak corpus events in stream (event-time) order."""
    return _ordered(data_leak_events)


@pytest.fixture(scope="module")
def one_shot(stream_events):
    store = DualStore()
    store.load_events(list(stream_events))
    yield store
    store.close()


class TestBatchedAppendEquivalence:
    @pytest.mark.parametrize("batches", [1, 2, 5, 9])
    def test_backends_identical_to_one_shot(self, stream_events, one_shot,
                                            batches):
        with DualStore() as streamed:
            for chunk in _chunks(stream_events, batches):
                streamed.append_events(chunk)
            streamed.flush_appends()
            _assert_stores_identical(one_shot, streamed)
            assert one_shot.last_reduction.merged_events == \
                streamed.last_reduction.merged_events

    @pytest.mark.parametrize("batches", [3, 7])
    def test_tbql_results_byte_identical(self, stream_events, one_shot,
                                         batches):
        with DualStore() as streamed:
            for chunk in _chunks(stream_events, batches):
                streamed.append_events(chunk)
            # Unsealed, as the one-shot load: the plans compare too.
            streamed.flush_appends(seal_segment=False)
            reference = TBQLExecutor(one_shot)
            live = TBQLExecutor(streamed)
            for text in EQUIVALENCE_CORPUS:
                expected = json.dumps(
                    result_payload(reference.execute(text)), sort_keys=True)
                actual = json.dumps(
                    result_payload(live.execute(text)), sort_keys=True)
                assert actual == expected, text

    def test_merge_run_spans_batch_boundary(self):
        # Six mergeable reads split 3/3 across two appends must collapse
        # into ONE stored event, exactly as the one-shot load merges them.
        proc = ProcessEntity(exename="/bin/cat", pid=10)
        target = FileEntity(path="/tmp/data")
        events = [
            SystemEvent(subject=proc, operation=Operation.READ, obj=target,
                        start_time=100.0 + 0.1 * index,
                        end_time=100.05 + 0.1 * index, data_amount=10)
            for index in range(6)
        ]
        with DualStore() as one, DualStore() as streamed:
            one.load_events(list(events))
            streamed.append_events(events[:3])
            assert streamed.relational.count_events() == 0  # still open
            streamed.append_events(events[3:])
            streamed.flush_appends()
            _assert_stores_identical(one, streamed)
            rows = streamed.execute_sql("SELECT * FROM events")
            assert len(rows) == 1
            assert rows[0]["data_amount"] == 60

    def test_append_after_one_shot_load_continues_ids(self, stream_events):
        half = len(stream_events) // 2
        with DualStore() as store:
            store.load_events(stream_events[:half])
            loaded_entities = store.relational.count_entities()
            adjacency(store)
            store.append_events(stream_events[half:])
            store.flush_appends()
            # The adjacency extends across the seam.
            assert store.relational.count_entities() >= loaded_entities
            _assert_fresh(store)

    def test_append_without_reduction(self, stream_events):
        with DualStore(reduce=False) as one, \
                DualStore(reduce=False) as streamed:
            one.load_events(list(stream_events))
            for chunk in _chunks(list(stream_events), 4):
                streamed.append_events(chunk)
            streamed.flush_appends()
            _assert_stores_identical(one, streamed)


class TestAppendBookkeeping:
    def test_data_version_bumps_per_stored_batch(self, stream_events):
        with DualStore() as store:
            before = store.data_version
            store.append_events(stream_events[:20])
            store.append_events(stream_events[20:40])
            store.flush_appends()
            # Every call that stored rows (entities and/or events) bumps.
            assert store.data_version > before
            versions = store.data_version
            store.append_events([])
            assert store.data_version == versions   # empty batch: no bump

    def test_append_stats_report_delta(self, stream_events):
        with DualStore() as store:
            stats = store.append_events(stream_events[:30])
            assert stats.input_events == 30
            assert int(stats) == stats.events
            sealed = store.flush_appends()
            assert int(stats) + int(sealed) <= 30
            assert store.pending_appends == 0

    def test_read_only_snapshot_rejects_append(self, stream_events,
                                               tmp_path):
        with DualStore() as store:
            store.load_events(stream_events[:40])
            store.save(tmp_path / "snap")
        reopened = DualStore.open(tmp_path / "snap")
        try:
            with pytest.raises(StorageError):
                reopened.append_events(stream_events[40:50])
        finally:
            reopened.close()

    def test_save_seals_open_runs(self, stream_events, tmp_path):
        with DualStore() as store:
            store.append_events(stream_events)
            pending = store.pending_appends
            assert pending > 0
            store.save(tmp_path / "sealed")
            assert store.pending_appends == 0
        reopened = DualStore.open(tmp_path / "sealed")
        try:
            _assert_fresh(reopened)
        finally:
            reopened.close()


class TestWritableReopen:
    def test_reopen_resumes_data_version_and_ids(self, stream_events,
                                                 tmp_path):
        with DualStore() as store:
            store.append_events(stream_events[:60])
            store.flush_appends()
            saved_version = store.data_version
            saved_max = store.max_event_id
            store.save(tmp_path / "ckpt")
        writable = DualStore.open(tmp_path / "ckpt", read_only=False)
        try:
            assert writable.read_only is False
            assert writable.data_version == saved_version
            assert writable.max_event_id == saved_max
            adjacency(writable)
            stats = writable.append_events(stream_events[60:])
            writable.flush_appends()
            assert writable.data_version > saved_version
            assert int(stats) >= 0
            # The adjacency extends by the appended rows.
            _assert_fresh(writable)
        finally:
            writable.close()

    def test_reopened_store_matches_uninterrupted_stream(self, tmp_path):
        # Stop-and-resume around a snapshot equals the uninterrupted run
        # when no merge run spans the checkpoint (time gap > threshold).
        collector = AuditCollector(CollectorConfig(seed=21))
        shell = collector.spawn_process("/bin/bash")
        collector.read_file(shell, "/etc/hosts", burst=2)
        collector.advance(30.0)
        first = _ordered(collector.events())
        collector.write_file(shell, "/tmp/out", burst=2)
        full = _ordered(collector.events())
        second = full[len(first):]

        with DualStore() as uninterrupted:
            uninterrupted.load_events(list(full))
            with DualStore() as original:
                original.append_events(first)
                original.save(tmp_path / "resume")
            resumed = DualStore.open(tmp_path / "resume", read_only=False)
            try:
                resumed.append_events(second)
                resumed.flush_appends()
                _assert_stores_identical(uninterrupted, resumed)
            finally:
                resumed.close()

    def test_reopen_never_mutates_snapshot(self, stream_events, tmp_path):
        with DualStore() as store:
            saved_count = int(store.load_events(stream_events[:40]))
            store.save(tmp_path / "frozen")
        manifest_before = (tmp_path / "frozen" /
                           "manifest.json").read_bytes()
        writable = DualStore.open(tmp_path / "frozen", read_only=False)
        try:
            writable.append_events(stream_events[40:60])
            writable.flush_appends()
            assert writable.relational.count_events() > saved_count
        finally:
            writable.close()
        # The snapshot directory is untouched by the writable session.
        again = DualStore.open(tmp_path / "frozen")
        try:
            assert again.relational.count_events() == saved_count
        finally:
            again.close()
        assert (tmp_path / "frozen" /
                "manifest.json").read_bytes() == manifest_before


def test_mixed_noise_streaming_equivalence():
    """Benign-noise workload: 6-batch append equals one-shot load."""
    events = _ordered(generate_benign_noise(25, seed=31))
    with DualStore() as one, DualStore() as streamed:
        one.load_events(list(events))
        for chunk in _chunks(events, 6):
            streamed.append_events(chunk)
        streamed.flush_appends()
        _assert_stores_identical(one, streamed)
