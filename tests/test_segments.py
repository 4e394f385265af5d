"""Segmented store tests: sealing, pruning, compaction, snapshots, CLI.

The segmented layout partitions the event history into immutable
time-bounded segments; these tests pin the structural invariants (event
ids partition contiguously, segment files are standalone, manifests
carry the real time bounds), the pruning rule (conservative w.r.t. the
compiled window predicate), compaction, the v2 snapshot format (plus
backward-compatible v1 opens), the service surface (``GET /stats``
segments section), and the CLI satellites.
"""

from __future__ import annotations

import json
from operator import attrgetter
from pathlib import Path

import pytest

from repro.audit.workload import generate_benign_noise
from repro.errors import StorageError
from repro.obs.metrics import get_registry
from repro.storage import DualStore
from repro.storage.dualstore import (SNAPSHOT_FORMAT_VERSION,
                                     SNAPSHOT_MANIFEST,
                                     SNAPSHOT_SEGMENTS_DIR)
from repro.storage.columnar import ColumnarSegment
from repro.storage.segments import SegmentInfo, plan_compaction
from repro.tbql.executor import TBQLExecutor

from .conftest import assert_exact_entity_blocks

QUERY = 'proc p read file f return distinct p'


def _events(sessions: int = 25, seed: int = 7):
    events = generate_benign_noise(sessions, seed=seed)
    events.sort(key=attrgetter("start_time", "event_id"))
    return events


def _build_pair(events, batches: int = 5):
    """Monolithic + segmented stores fed identically (same seals)."""
    mono = DualStore()
    seg = DualStore(layout="segmented")
    step = len(events) // batches + 1
    for index in range(0, len(events), step):
        for store in (mono, seg):
            store.append_events(events[index:index + step])
            store.flush_appends()
    return mono, seg


@pytest.fixture()
def store_pair():
    mono, seg = _build_pair(_events())
    yield mono, seg
    mono.close()
    seg.close()


class TestSealing:
    def test_flush_appends_seals_contiguous_segments(self, store_pair):
        mono, seg = store_pair
        view = seg.segment_view()
        assert view is not None
        assert len(view.sealed) == 5
        assert view.sealed[0].first_event_id == 1
        for left, right in zip(view.sealed, view.sealed[1:]):
            assert right.first_event_id == left.last_event_id + 1
        assert view.sealed_events == seg.relational.count_events()
        assert view.active_events == 0
        assert view.active_first_event_id == \
            view.sealed[-1].last_event_id + 1
        # Backends hold the same data as the identically fed monolith.
        assert seg.relational.count_events() == \
            mono.relational.count_events()
        assert seg.graph.num_edges() == mono.graph.num_edges()

    def test_segment_files_are_standalone(self, store_pair):
        _mono, seg = store_pair
        for info in seg.segment_view().sealed:
            payload = ColumnarSegment(info.columnar_path)
            try:
                ids = list(payload.column("event.id"))
                assert ids == list(range(info.first_event_id,
                                         info.last_event_id + 1))
                assert payload.event_count == info.event_count
                starts = payload.column("event.start_time")
                ends = payload.column("event.end_time")
                assert (min(starts), max(starts), min(ends), max(ends)) == \
                    (info.min_start_time, info.max_start_time,
                     info.min_end_time, info.max_end_time)
            finally:
                payload.close()
            # A segment is these two files and nothing else.
            assert {entry.name for entry in
                    Path(info.directory).iterdir()} == \
                {"events.col", "segment.json"}
            assert json.loads(Path(info.manifest_path).read_text(
                encoding="utf-8")) == info.as_manifest_entry()

    def test_entity_blocks_hold_referenced_rows_only(self, store_pair):
        _mono, seg = store_pair
        counts = assert_exact_entity_blocks(seg)
        stats = seg.segment_stats()
        assert [entry["entity_rows"] for entry in stats["segments"]] == \
            counts
        # Later segments reference a subset of the growing entity
        # table; none carries the table itself.
        total = seg.relational.count_entities()
        assert all(0 < count < total for count in counts)

    def test_monolithic_store_has_no_view(self, store_pair):
        mono, _seg = store_pair
        assert mono.segment_view() is None
        with pytest.raises(StorageError):
            mono.seal_active_segment()
        with pytest.raises(StorageError):
            mono.compact()

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            DualStore(layout="sharded")

    def test_empty_flush_seals_nothing(self):
        with DualStore(layout="segmented") as store:
            assert store.flush_appends().seconds == {}
            assert store.segment_view() is None
            assert store.seal_active_segment() is None

    def test_flush_reports_seal_stages(self):
        """A flush that seals times the seal's steps next to its own;
        appends and unsealed flushes report theirs unchanged."""
        own = {"reduce", "build", "relational", "graph"}
        seal = {"seal_columnar", "seal_stats"}
        events = _events(sessions=4, seed=5)
        with DualStore(layout="segmented") as store:
            assert set(store.append_events(events).seconds) == own
            stats = store.flush_appends()
            assert set(stats.seconds) == own | seal
            assert all(stats.seconds[stage] > 0.0 for stage in seal)
            assert stats.total_seconds == \
                pytest.approx(sum(stats.seconds.values()))
            store.append_events(_events(sessions=2, seed=6))
            assert set(store.flush_appends(seal_segment=False).seconds) \
                == own
        with DualStore() as mono:
            mono.append_events(events)
            assert set(mono.flush_appends().seconds) == own
        scrape = get_registry().render()
        for stage in seal:
            assert ('repro_ingest_stage_seconds_count{stage="%s"}' % stage
                    ) in scrape

    def test_reload_drops_old_segments(self, store_pair):
        _mono, seg = store_pair
        old = seg.segment_view().sealed
        events = _events(sessions=5, seed=13)
        seg.load_events(events)
        assert seg.segment_view() is None       # all data active again
        seg.flush_appends()
        view = seg.segment_view()
        assert len(view.sealed) == 1
        assert view.sealed[0].first_event_id == 1
        # Old segment files are gone and names were not reused.
        assert view.sealed[0].name not in {info.name for info in old}
        for info in old:
            assert not Path(info.directory).exists()


class TestSealPolicy:
    def test_request_seals_do_not_cut_segments(self):
        """POST /ingest-style seals flush merge runs but must not
        produce one tiny segment per request; only the seal_every
        policy (and snapshot saves) cuts segments."""
        from repro.streaming import DetectionEngine
        events = _events(sessions=6, seed=21)
        step = len(events) // 6 + 1
        store = DualStore(layout="segmented", retain_events=False)
        engine = DetectionEngine(store, seal_every=0)
        for index in range(0, len(events), step):
            engine.process_batch(events[index:index + step], seal=True)
        assert store.segment_stats()["sealed_segments"] == 0
        assert engine.seals == 0
        store.close()

    def test_seal_every_policy_cuts_segments(self):
        from repro.streaming import DetectionEngine
        events = _events(sessions=6, seed=21)
        step = len(events) // 6 + 1
        store = DualStore(layout="segmented", retain_events=False)
        engine = DetectionEngine(store, seal_every=2)
        for index in range(0, len(events), step):
            engine.process_batch(events[index:index + step], seal=True)
        assert store.segment_stats()["sealed_segments"] == 3
        assert engine.seals == 3
        assert engine.stats()["sealed_segments"] == 3
        store.close()


class TestPruning:
    def test_overlap_rule_matches_sql_predicate(self):
        info = SegmentInfo(
            name="seg-000001", directory="/tmp/none", first_event_id=1,
            last_event_id=10, event_count=10, first_new_entity_id=1,
            last_new_entity_id=5, new_entity_count=5,
            min_start_time=100.0, max_start_time=200.0,
            min_end_time=105.0, max_end_time=210.0)
        assert info.overlaps_window(None)
        assert info.overlaps_window((None, None))
        # start_time >= earliest: scannable while max_start >= earliest.
        assert info.overlaps_window((200.0, None))
        assert not info.overlaps_window((200.1, None))
        # end_time <= latest: scannable while min_end <= latest.
        assert info.overlaps_window((None, 105.0))
        assert not info.overlaps_window((None, 104.9))
        assert info.overlaps_window((150.0, 180.0))
        assert not info.overlaps_window((300.0, 400.0))

    def test_windowed_query_prunes_and_matches(self, store_pair):
        mono, seg = store_pair
        events = seg.segment_view().sealed
        cut = events[0].max_end_time
        text = f'before {cut} proc p read file f return distinct p'
        mono_exec = TBQLExecutor(mono)
        seg_exec = TBQLExecutor(seg)
        expected = mono_exec.execute(text)
        got = seg_exec.execute(text)
        assert got.rows == expected.rows
        assert got.matched_events == expected.matched_events
        step = got.plan[0]
        assert step.segments_scanned is not None
        assert step.segments_scanned < len(events)
        assert step.segments_scanned + step.segments_pruned == len(events)
        # Monolithic plans carry no segment counts.
        assert expected.plan[0].segments_scanned is None
        assert "segments_scanned" in step.as_dict()
        seg_exec.close()

    def test_disjoint_window_scans_nothing(self, store_pair):
        _mono, seg = store_pair
        horizon = seg.segment_view().sealed[-1].max_end_time + 1000.0
        executor = TBQLExecutor(seg)
        result = executor.execute(
            f'after {horizon} proc p read file f return p')
        assert result.rows == []
        assert result.plan[0].segments_scanned == 0
        assert result.plan[0].segments_pruned == 5
        executor.close()

    def test_active_tail_is_scanned(self, store_pair):
        mono, seg = store_pair
        extra = _events(sessions=3, seed=99)
        for store in (mono, seg):
            store.append_events(extra)
            store._flush_stream() if store is seg else \
                store.flush_appends()
        # seg: appended events stored but NOT sealed (no flush_appends).
        view = seg.segment_view()
        assert view.active_events > 0
        expected = TBQLExecutor(mono).execute(QUERY)
        executor = TBQLExecutor(seg)
        got = executor.execute(QUERY)
        assert got.rows == expected.rows
        assert got.matched_events == expected.matched_events
        executor.close()


class TestCompaction:
    def test_plan_compaction_groups_adjacent_small_runs(self):
        def info(name, count):
            return SegmentInfo(
                name=name, directory="/tmp/none", first_event_id=0,
                last_event_id=0, event_count=count, first_new_entity_id=0,
                last_new_entity_id=-1, new_entity_count=0,
                min_start_time=0.0, max_start_time=0.0, min_end_time=0.0,
                max_end_time=0.0)
        small = [info(f"s{i}", 10) for i in range(4)]
        big = info("big", 100)
        runs = plan_compaction([small[0], small[1], big, small[2],
                                small[3]], min_events=50)
        assert [[m.name for m in run] for run in runs] == \
            [["s0", "s1"], ["s2", "s3"]]
        # A lone small segment between barriers is left alone.
        assert plan_compaction([small[0], big], min_events=50) == []
        # Runs close as soon as they reach the threshold.
        runs = plan_compaction(small, min_events=20)
        assert [[m.name for m in run] for run in runs] == \
            [["s0", "s1"], ["s2", "s3"]]

    def test_compact_preserves_results(self, store_pair):
        mono, seg = store_pair
        expected = TBQLExecutor(mono).execute(QUERY)
        old = seg.segment_view().sealed
        report = seg.compact(min_events=10 ** 9)
        assert report["segments_after"] == 1
        view = seg.segment_view()
        merged = view.sealed[0]
        assert merged.first_event_id == 1
        assert merged.last_event_id == old[-1].last_event_id
        assert merged.event_count == sum(i.event_count for i in old)
        assert merged.min_start_time == min(i.min_start_time for i in old)
        assert merged.max_end_time == max(i.max_end_time for i in old)
        for info in old:
            assert not Path(info.directory).exists()
        executor = TBQLExecutor(seg)
        got = executor.execute(QUERY)
        assert got.rows == expected.rows
        assert got.matched_events == expected.matched_events
        executor.close()
        assert assert_exact_entity_blocks(seg) == \
            [seg.relational.count_entities()]

    @pytest.mark.parametrize("use_numpy", ["1", "0"])
    def test_compacted_and_sealed_payloads_resolve_ids_once(
            self, monkeypatch, use_numpy):
        """A compacted store and its uncompacted twin scan through the
        same cached per-segment entity-row index: each payload resolves
        its events' entity ids once, however many scans follow."""
        monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", use_numpy)
        resolved: dict[str, list] = {}
        cached = ColumnarSegment.entity_rows

        def spy(segment):
            rows = cached(segment)
            resolved.setdefault(segment.path, []).append(rows)
            return rows

        monkeypatch.setattr(ColumnarSegment, "entity_rows", spy)
        events = _events()
        _mono, sealed = _build_pair(events)
        _mono2, compacted = _build_pair(events)
        compacted.compact(min_events=100)
        assert 1 < len(compacted.segment_view().sealed) < \
            len(sealed.segment_view().sealed)
        texts = (QUERY, 'proc p["%bash%"] write file f return p, f',
                 'proc p read file f return p, count() group by p')
        try:
            answers = []
            for store in (sealed, compacted):
                paths = [info.columnar_path
                         for info in store.segment_view().sealed]
                for path in paths:
                    resolved.pop(path, None)     # the seals' own reads
                executor = TBQLExecutor(store)
                try:
                    answers.append([executor.execute(text).rows
                                    for text in texts * 2])
                finally:
                    executor.close()
                for path in paths:
                    calls = resolved[path]
                    assert len(calls) >= len(texts) * 2
                    assert all(rows is calls[0] for rows in calls)
            assert answers[0] == answers[1]
        finally:
            for store in (_mono, sealed, _mono2, compacted):
                store.close()


class TestSnapshotV2:
    def test_roundtrip_segmented(self, store_pair, tmp_path):
        mono, seg = store_pair
        snapshot = tmp_path / "snap"
        manifest = seg.save(snapshot)
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["layout"] == "segmented"
        assert len(manifest["segments"]) == 5
        assert (snapshot / SNAPSHOT_SEGMENTS_DIR / "seg-000001" /
                "events.col").is_file()
        expected = TBQLExecutor(mono).execute(QUERY)
        with DualStore.open(snapshot) as reopened:
            assert reopened.layout == "segmented"
            assert reopened.read_only
            view = reopened.segment_view()
            assert len(view.sealed) == 5
            got = TBQLExecutor(reopened).execute(QUERY)
            assert got.rows == expected.rows
            assert got.matched_events == expected.matched_events
            with pytest.raises(StorageError):
                reopened.compact()

    def test_writable_reopen_appends_new_segments(self, store_pair,
                                                  tmp_path):
        _mono, seg = store_pair
        snapshot = tmp_path / "snap"
        seg.save(snapshot)
        extra = _events(sessions=3, seed=42)
        with DualStore.open(snapshot, read_only=False) as writable:
            assert writable.layout == "segmented"
            before = len(writable.segment_view().sealed)
            writable.append_events(extra)
            writable.flush_appends()
            view = writable.segment_view()
            assert len(view.sealed) == before + 1
            # New segments land in the store's own home, not the
            # snapshot directory (which stays immutable).
            new_home = Path(view.sealed[-1].directory)
            assert not new_home.is_relative_to(snapshot.resolve())
            assert_exact_entity_blocks(writable)
        assert not (snapshot / SNAPSHOT_SEGMENTS_DIR /
                    view.sealed[-1].name).exists()

    def test_monolithic_snapshot_has_no_segments(self, store_pair,
                                                 tmp_path):
        mono, _seg = store_pair
        snapshot = tmp_path / "snap"
        manifest = mono.save(snapshot)
        assert manifest["layout"] == "monolithic"
        assert "segments" not in manifest
        with DualStore.open(snapshot) as reopened:
            assert reopened.layout == "monolithic"
            assert reopened.segment_view() is None

    def test_v1_manifest_still_opens(self, store_pair, tmp_path):
        mono, _seg = store_pair
        snapshot = tmp_path / "snap"
        mono.save(snapshot)
        manifest_path = snapshot / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 1
        del manifest["layout"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        expected = TBQLExecutor(mono).execute(QUERY)
        with DualStore.open(snapshot) as reopened:
            assert reopened.layout == "monolithic"
            assert reopened.segment_view() is None
            got = TBQLExecutor(reopened).execute(QUERY)
            assert got.rows == expected.rows

    def test_corrupt_segment_coverage_rejected(self, store_pair,
                                               tmp_path):
        _mono, seg = store_pair
        snapshot = tmp_path / "snap"
        seg.save(snapshot)
        manifest_path = snapshot / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["segments"] = manifest["segments"][:-1]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StorageError):
            DualStore.open(snapshot)

    def test_explicit_segment_dir_is_kept(self, tmp_path):
        home = tmp_path / "segments-home"
        events = _events(sessions=4, seed=3)
        with DualStore(layout="segmented", segment_dir=home) as store:
            store.append_events(events)
            store.flush_appends()
            assert len(store.segment_view().sealed) == 1
        # Caller-provided directories survive close().
        assert home.is_dir()
        assert any(home.iterdir())


class TestExecutorClose:
    def test_close_is_idempotent(self, store_pair):
        _mono, seg = store_pair
        executor = TBQLExecutor(seg)
        before = executor.execute(QUERY)
        executor.close()
        executor.close()
        assert executor.execute(QUERY).rows == before.rows


class TestCLI:
    def test_ingest_empty_log_exits_zero(self, tmp_path, capsys):
        from repro.cli import main
        log = tmp_path / "empty.log"
        log.write_text("   \n\n", encoding="utf-8")
        assert main(["ingest", "--log", str(log), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "ingested 0 events" in out
        assert "reduction ratio" not in out

    def test_segments_and_compact_commands(self, tmp_path, capsys):
        from repro.audit.logfmt import format_log
        from repro.cli import main
        log = tmp_path / "audit.log"
        log.write_text(format_log(_events(sessions=12, seed=3)),
                       encoding="utf-8")
        snap = tmp_path / "snap"
        assert main(["snapshot", "--log", str(log), "--out", str(snap),
                     "--layout", "segmented", "--segment-events",
                     "100"]) == 0
        assert main(["segments", "--snapshot", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "layout: segmented" in out
        assert "seg-000001" in out
        assert "ent rows" in out and "graph KiB" not in out
        out2 = tmp_path / "snap2"
        assert main(["compact", "--snapshot", str(snap), "--out",
                     str(out2), "--min-events", "100000"]) == 0
        assert main(["segments", "--snapshot", str(out2)]) == 0
        assert "sealed segments: 1" in capsys.readouterr().out

    def test_query_snapshot_explain(self, tmp_path, capsys):
        from repro.audit.logfmt import format_log
        from repro.cli import main
        log = tmp_path / "audit.log"
        log.write_text(format_log(_events(sessions=12, seed=3)),
                       encoding="utf-8")
        snap = tmp_path / "snap"
        main(["snapshot", "--log", str(log), "--out", str(snap),
              "--layout", "segmented", "--segment-events", "100"])
        capsys.readouterr()
        code = main(["query", "--snapshot", str(snap), "--explain",
                     "--tbql", QUERY])
        assert code == 0
        assert "scanned" in capsys.readouterr().out
