"""Segment tests: sealing, pruning, compaction, snapshots, CLI.

A store seals its event history into immutable time-bounded segments
plus an unsealed tail; these tests pin the structural invariants (event
ids partition contiguously, segment files are standalone, manifests
carry the real time bounds), the pruning rule (conservative w.r.t. the
compiled window predicate), compaction, the v2 snapshot format (plus
backward-compatible v1 opens), the service surface (``GET /stats``
segments section), and the CLI satellites.  The reference each sealed
store is checked against is the same data never sealed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
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
from repro.tbql.parser import parse_tbql
from repro.tbql.paths import adjacency
from repro.tbql.semantics import resolve_query

from .conftest import assert_exact_entity_blocks

QUERY = 'proc p read file f return distinct p'


def _events(sessions: int = 25, seed: int = 7):
    events = generate_benign_noise(sessions, seed=seed)
    events.sort(key=attrgetter("start_time", "event_id"))
    return events


def _build_pair(events, batches: int = 5):
    """Never-sealed + sealed stores fed identically (same flushes)."""
    unsealed = DualStore()
    seg = DualStore()
    step = len(events) // batches + 1
    for index in range(0, len(events), step):
        for store in (unsealed, seg):
            store.append_events(events[index:index + step])
            store.flush_appends(seal_segment=store is seg)
    return unsealed, seg


@pytest.fixture()
def store_pair():
    unsealed, seg = _build_pair(_events())
    yield unsealed, seg
    unsealed.close()
    seg.close()


class TestSealing:
    def test_flush_appends_seals_contiguous_segments(self, store_pair):
        unsealed, seg = store_pair
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
        # Backends hold the same data as the identically fed store that
        # never sealed.
        assert seg.relational.count_events() == \
            unsealed.relational.count_events()
        assert adjacency(seg).out_edges == adjacency(unsealed).out_edges

    def test_segment_files_are_standalone(self, store_pair):
        _unsealed, seg = store_pair
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
        _unsealed, seg = store_pair
        counts = assert_exact_entity_blocks(seg)
        stats = seg.segment_stats()
        assert [entry["entity_rows"] for entry in stats["segments"]] == \
            counts
        # Later segments reference a subset of the growing entity
        # table; none carries the table itself.
        total = seg.relational.count_entities()
        assert all(0 < count < total for count in counts)

    def test_never_sealed_store_is_all_tail(self, store_pair):
        unsealed, seg = store_pair
        view = unsealed.segment_view()
        assert view.sealed == ()
        assert view.active_first_event_id == 1
        assert view.active_events == unsealed.relational.count_events()
        assert unsealed.compact()["merged_runs"] == 0
        info = unsealed.seal_active_segment()
        assert (info.first_event_id, info.last_event_id) == \
            (1, seg.max_event_id)
        assert unsealed.segment_view().active_events == 0

    @pytest.mark.parametrize("layout", ["monolithic", "segmented"])
    def test_layout_keyword_is_deprecated_and_ignored(self, layout):
        events = _events(sessions=4, seed=5)
        with pytest.warns(DeprecationWarning, match="layout"):
            store = DualStore(layout=layout)
        with store, DualStore() as default:
            for each in (store, default):
                each.append_events(events)
                each.flush_appends()
            assert [(info.first_event_id, info.last_event_id)
                    for info in store.segment_view().sealed] == \
                [(info.first_event_id, info.last_event_id)
                 for info in default.segment_view().sealed] == \
                [(1, default.max_event_id)]

    def test_empty_flush_seals_nothing(self):
        with DualStore() as store:
            assert store.flush_appends().seconds == {}
            assert store.segment_view().sealed == ()
            assert store.seal_active_segment() is None

    def test_flush_reports_seal_stages(self):
        """A flush that seals times the seal's steps next to its own;
        appends and unsealed flushes report theirs unchanged."""
        own = {"reduce", "build", "relational"}
        seal = {"seal_columnar", "seal_stats"}
        events = _events(sessions=4, seed=5)
        with DualStore() as store:
            assert set(store.append_events(events).seconds) == own
            stats = store.flush_appends()
            assert set(stats.seconds) == own | seal
            assert all(stats.seconds[stage] > 0.0 for stage in seal)
            assert stats.total_seconds == \
                pytest.approx(sum(stats.seconds.values()))
            store.append_events(_events(sessions=2, seed=6))
            assert set(store.flush_appends(seal_segment=False).seconds) \
                == own
        scrape = get_registry().render()
        for stage in seal:
            assert ('repro_ingest_stage_seconds_count{stage="%s"}' % stage
                    ) in scrape

    def test_restored_tail_seals_what_appends_seal(self, tmp_path):
        """A load buffers its tail's columns as an append does.  A
        snapshot saved before its first seal restores its history as a
        tail without that buffer; its seal reads the rows back and writes
        the payload an append-fed seal packs from buffered columns."""
        events = _events(sessions=4, seed=5)
        snap = tmp_path / "snap"
        with DualStore() as loaded:
            loaded.load_events(events)
            assert len(loaded._active_columns) == loaded.max_event_id
            loaded.save(snap)
        # What a manifest written before the first seal lists: nothing.
        shutil.rmtree(snap / SNAPSHOT_SEGMENTS_DIR)
        manifest = json.loads((snap / SNAPSHOT_MANIFEST).read_text())
        manifest["segments"] = []
        (snap / SNAPSHOT_MANIFEST).write_text(json.dumps(manifest))
        with DualStore.open(snap, read_only=False) as restored, \
                DualStore() as appended:
            assert restored._active_columns is None
            appended.append_events(events)
            appended.flush_appends(seal_segment=False)
            assert len(appended._active_columns) == \
                appended.max_event_id
            infos = [store.seal_active_segment()
                     for store in (restored, appended)]
            assert infos[0].event_count == appended.max_event_id
            first, second = (dataclasses.replace(info, name="",
                                                 directory="")
                             for info in infos)
            assert first == second
            assert Path(infos[0].columnar_path).read_bytes() == \
                Path(infos[1].columnar_path).read_bytes()

    def test_reload_drops_old_segments(self, store_pair):
        _unsealed, seg = store_pair
        old = seg.segment_view().sealed
        events = _events(sessions=5, seed=13)
        seg.load_events(events)
        assert seg.segment_view().sealed == ()       # all data active again
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
        store = DualStore()
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
        store = DualStore()
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
        unsealed, seg = store_pair
        events = seg.segment_view().sealed
        cut = events[0].max_end_time
        text = f'before {cut} proc p read file f return distinct p'
        unsealed_exec = TBQLExecutor(unsealed)
        seg_exec = TBQLExecutor(seg)
        expected = unsealed_exec.execute(text)
        got = seg_exec.execute(text)
        assert got.rows == expected.rows
        assert got.matched_events == expected.matched_events
        step = got.plan[0]
        assert step.segments_scanned is not None
        assert step.segments_scanned < len(events)
        assert step.segments_scanned + step.segments_pruned == len(events)
        # A never-sealed store has no segments to scan or prune.
        assert expected.plan[0].segments_scanned == 0
        assert expected.plan[0].segments_pruned == 0
        assert "segments_scanned" in step.as_dict()
        seg_exec.close()

    def test_disjoint_window_scans_nothing(self, store_pair):
        _unsealed, seg = store_pair
        horizon = seg.segment_view().sealed[-1].max_end_time + 1000.0
        executor = TBQLExecutor(seg)
        result = executor.execute(
            f'after {horizon} proc p read file f return p')
        assert result.rows == []
        assert result.plan[0].segments_scanned == 0
        assert result.plan[0].segments_pruned == 5
        executor.close()

    def test_active_tail_is_scanned(self, store_pair):
        unsealed, seg = store_pair
        extra = _events(sessions=3, seed=99)
        for store in (unsealed, seg):
            store.append_events(extra)
            store.flush_appends(seal_segment=False)
        # seg: appended events stored but NOT sealed.
        view = seg.segment_view()
        assert view.active_events > 0
        expected = TBQLExecutor(unsealed).execute(QUERY)
        executor = TBQLExecutor(seg)
        got = executor.execute(QUERY)
        assert got.rows == expected.rows
        assert got.matched_events == expected.matched_events
        executor.close()

    def test_tail_sql_renders_its_floor_only_past_the_first_event(
            self, store_pair, monkeypatch):
        """The one SQL leg reads from a floor event id; from the first
        id it renders no ``e.id >= ?``, so a never-sealed store and the
        gate's history legs emit the statement a whole-store scan
        always emitted."""
        unsealed, seg = store_pair
        statements: list[tuple[str, tuple]] = []
        for store in (unsealed, seg):
            select = store.relational.select_tuples
            monkeypatch.setattr(
                store.relational, "select_tuples",
                lambda sql, params=(), select=select: (
                    statements.append((sql, tuple(params))),
                    select(sql, params))[1])
        resolved = resolve_query(parse_tbql(QUERY))
        TBQLExecutor(unsealed).execute(resolved)
        assert len(statements) == 1 and "e.id >=" not in statements[0][0]
        seg.append_events(_events(sessions=2, seed=17))
        seg.flush_appends(seal_segment=False)
        statements.clear()
        TBQLExecutor(seg).execute(resolved)
        floor = seg.segment_view().active_first_event_id
        [(sql, params)] = statements
        assert sql.rstrip().endswith("ORDER BY e.start_time, e.id") and \
            "e.id >= ?" in sql and params[-1] == floor
        for store, high_water in ((unsealed, 0), (seg, floor - 1)):
            statements.clear()
            TBQLExecutor(store).matches_since(resolved, high_water + 1)
            [(sql, params)] = statements
            assert ("e.id >= ?" in sql) == (high_water > 0)


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
        unsealed, seg = store_pair
        expected = TBQLExecutor(unsealed).execute(QUERY)
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

    def test_compacted_and_sealed_payloads_resolve_ids_once(
            self, monkeypatch):
        """A compacted store and its uncompacted twin scan through the
        same cached per-segment entity-row index: each payload resolves
        its events' entity ids once, however many scans follow."""
        resolved: dict[str, list] = {}
        cached = ColumnarSegment.entity_rows

        def spy(segment):
            rows = cached(segment)
            resolved.setdefault(segment.path, []).append(rows)
            return rows

        monkeypatch.setattr(ColumnarSegment, "entity_rows", spy)
        events = _events()
        _unsealed, sealed = _build_pair(events)
        _unsealed2, compacted = _build_pair(events)
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
            for store in (_unsealed, sealed, _unsealed2, compacted):
                store.close()


class TestSnapshotV2:
    def test_roundtrip_segmented(self, store_pair, tmp_path):
        unsealed, seg = store_pair
        snapshot = tmp_path / "snap"
        manifest = seg.save(snapshot)
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert "layout" not in manifest
        assert len(manifest["segments"]) == 5
        assert (snapshot / SNAPSHOT_SEGMENTS_DIR / "seg-000001" /
                "events.col").is_file()
        expected = TBQLExecutor(unsealed).execute(QUERY)
        with DualStore.open(snapshot) as reopened:
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
        _unsealed, seg = store_pair
        snapshot = tmp_path / "snap"
        seg.save(snapshot)
        extra = _events(sessions=3, seed=42)
        with DualStore.open(snapshot, read_only=False) as writable:
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

    def test_saving_an_unsealed_store_seals_its_tail(self, store_pair,
                                                     tmp_path):
        unsealed, _seg = store_pair
        snapshot = tmp_path / "snap"
        expected = TBQLExecutor(unsealed).execute(QUERY)
        manifest = unsealed.save(snapshot)
        assert "layout" not in manifest
        [entry] = manifest["segments"]
        assert entry["event_count"] == manifest["relational_events"]
        with DualStore.open(snapshot) as reopened:
            view = reopened.segment_view()
            assert len(view.sealed) == 1 and view.active_events == 0
            got = TBQLExecutor(reopened).execute(QUERY)
            assert got.rows == expected.rows
            assert got.matched_events == expected.matched_events

    def test_v1_manifest_still_opens(self, store_pair, tmp_path):
        unsealed, _seg = store_pair
        snapshot = tmp_path / "snap"
        unsealed.save(snapshot)
        manifest_path = snapshot / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = 1
        del manifest["segments"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        shutil.rmtree(snapshot / SNAPSHOT_SEGMENTS_DIR)
        expected = TBQLExecutor(unsealed).execute(QUERY)
        with DualStore.open(snapshot) as reopened:
            view = reopened.segment_view()
            assert view.sealed == ()
            assert view.active_events == reopened.relational.count_events()
            got = TBQLExecutor(reopened).execute(QUERY)
            assert got.rows == expected.rows

    def test_corrupt_segment_coverage_rejected(self, store_pair,
                                               tmp_path):
        _unsealed, seg = store_pair
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
        with DualStore(segment_dir=home) as store:
            store.append_events(events)
            store.flush_appends()
            assert len(store.segment_view().sealed) == 1
        # Caller-provided directories survive close().
        assert home.is_dir()
        assert any(home.iterdir())


class TestExecutorClose:
    def test_close_is_idempotent(self, store_pair):
        _unsealed, seg = store_pair
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
                     "--segment-events", "100"]) == 0
        assert main(["segments", "--snapshot", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "tail events: 0" in out
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
              "--segment-events", "100"])
        capsys.readouterr()
        code = main(["query", "--snapshot", str(snap), "--explain",
                     "--tbql", QUERY])
        assert code == 0
        assert "scanned" in capsys.readouterr().out
