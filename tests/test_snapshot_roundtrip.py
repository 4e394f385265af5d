"""Snapshot round-trip tests: ingest -> save -> open -> identical results.

The persistence contract of the serving subsystem: a store reopened from a
snapshot directory must answer the full TBQL equivalence corpus with results
identical to the freshly ingested store it was saved from, expose the same
statistics, and refuse mutation (read-only reader connections).
"""

from __future__ import annotations

import json
import shutil
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import StorageError
from repro.storage import DualStore
from repro.storage.dualstore import SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MANIFEST
from repro.storage.relational import RelationalStore
from repro.tbql.executor import TBQLExecutor
from repro.tbql.paths import adjacency

from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


@pytest.fixture(scope="module")
def snapshot_dir(data_leak_events, tmp_path_factory):
    """A snapshot directory saved from a freshly ingested store."""
    directory = tmp_path_factory.mktemp("snapshots") / "data_leak"
    with DualStore() as store:
        store.load_events(data_leak_events)
        store.save(directory)
    return directory


@pytest.fixture(scope="module")
def reopened_store(snapshot_dir):
    store = DualStore.open(snapshot_dir)
    yield store
    store.close()


class TestRoundTrip:
    @pytest.mark.parametrize("text", EQUIVALENCE_CORPUS)
    def test_corpus_results_identical(self, data_leak_store, reopened_store,
                                      text):
        fresh = TBQLExecutor(data_leak_store).execute(text)
        warm = TBQLExecutor(reopened_store).execute(text)
        assert warm.rows == fresh.rows
        assert warm.matched_events == fresh.matched_events
        assert warm.per_pattern_matches == fresh.per_pattern_matches

    def test_counts_survive_round_trip(self, data_leak_store,
                                       reopened_store):
        fresh = data_leak_store.statistics()
        warm = reopened_store.statistics()
        for key in ("relational_entities", "relational_events"):
            assert warm[key] == fresh[key]
        assert adjacency(reopened_store).out_edges == \
            adjacency(data_leak_store).out_edges

    def test_manifest_contents(self, snapshot_dir, reopened_store):
        manifest = json.loads(
            (snapshot_dir / SNAPSHOT_MANIFEST).read_text(encoding="utf-8"))
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert manifest["relational_events"] == \
            reopened_store.relational.count_events()
        assert "graph_nodes" not in manifest

    def test_concurrent_reads_match_serial(self, reopened_store):
        executor = TBQLExecutor(reopened_store)
        serial = {text: executor.execute(text).rows
                  for text in EQUIVALENCE_CORPUS}

        def run(index):
            text = EQUIVALENCE_CORPUS[index % len(EQUIVALENCE_CORPUS)]
            return text, executor.execute(text).rows

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(run, range(4 * len(EQUIVALENCE_CORPUS))))
        for text, rows in outcomes:
            assert rows == serial[text]


class TestReadOnly:
    def test_load_events_refused(self, reopened_store, data_leak_events):
        with pytest.raises(StorageError, match="read-only"):
            reopened_store.load_events(data_leak_events)

    def test_relational_mutation_refused(self, reopened_store):
        with pytest.raises(StorageError, match="read-only"):
            reopened_store.relational.clear()
        with pytest.raises(StorageError, match="read-only"):
            reopened_store.relational.append_rows([], [(1,) * 11])

    def test_read_only_flags(self, data_leak_store, reopened_store):
        assert reopened_store.read_only
        assert reopened_store.relational.read_only
        assert not data_leak_store.read_only

    def test_read_only_requires_a_file(self):
        with pytest.raises(StorageError, match="on-disk"):
            RelationalStore(None, read_only=True)


class TestSnapshotValidation:
    def test_open_rejects_missing_manifest(self, tmp_path):
        empty = tmp_path / "not_a_snapshot"
        empty.mkdir()
        with pytest.raises(StorageError, match="not a dual-store snapshot"):
            DualStore.open(empty)

    def test_open_rejects_newer_format_version(self, snapshot_dir, tmp_path):
        copy = tmp_path / "newer"
        shutil.copytree(snapshot_dir, copy)
        manifest_path = copy / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StorageError, match="unsupported snapshot"):
            DualStore.open(copy)

    def test_open_rejects_count_mismatch(self, snapshot_dir, tmp_path):
        copy = tmp_path / "tampered"
        shutil.copytree(snapshot_dir, copy)
        manifest_path = copy / SNAPSHOT_MANIFEST
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["relational_events"] += 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(StorageError, match="corrupt"):
            DualStore.open(copy)


class TestLifecycle:
    def test_snapshot_files_deletable_after_close(self, data_leak_events,
                                                  tmp_path):
        directory = tmp_path / "snap"
        with DualStore() as store:
            store.load_events(data_leak_events)
            store.save(directory)
        with DualStore.open(directory) as reopened:
            assert reopened.relational.count_events() > 0
        # Every connection is closed; CI can remove the directory.
        shutil.rmtree(directory)
        assert not directory.exists()

    def test_save_overwrites_previous_snapshot(self, tmp_path,
                                               data_leak_events):
        directory = tmp_path / "snap"
        with DualStore() as store:
            store.load_events(data_leak_events)
            store.save(directory)
            first = json.loads((directory / SNAPSHOT_MANIFEST).read_text(
                encoding="utf-8"))
            store.save(directory)
        second = json.loads((directory / SNAPSHOT_MANIFEST).read_text(
            encoding="utf-8"))
        assert second["relational_events"] == first["relational_events"]
        with DualStore.open(directory) as reopened:
            assert reopened.relational.count_events() == \
                first["relational_events"]

    def test_snapshot_holds_no_graph_file(self, snapshot_dir):
        assert sorted(path.name for path in snapshot_dir.iterdir()
                      if path.is_file() and "sqlite-" not in path.name) == \
            [SNAPSHOT_MANIFEST, "relational.sqlite"]

    def test_cli_snapshot_command(self, tmp_path, capsys):
        from repro.audit.collector import AuditCollector, CollectorConfig
        from repro.audit.logfmt import format_log
        from repro.cli import main

        collector = AuditCollector(CollectorConfig(seed=3))
        proc = collector.spawn_process("/bin/tar")
        collector.read_file(proc, "/etc/passwd")
        log_path = tmp_path / "audit.log"
        log_path.write_text(format_log(collector.events()),
                            encoding="utf-8")
        out_dir = tmp_path / "snap"
        assert main(["snapshot", "--log", str(log_path),
                     "--out", str(out_dir)]) == 0
        assert "snapshot written" in capsys.readouterr().out
        with DualStore.open(out_dir) as store:
            assert store.relational.count_events() > 0
