"""Equivalence and pushdown tests for the rewritten TBQL join engine.

The hash join must produce bit-identical results (rows, matched events,
DISTINCT semantics, ordering) to the seed's backtracking join, which is kept
as the reference implementation in ``tests/reference/executor_seed.py``.
The corpus below covers multi-pattern queries with shared entities,
``with`` temporal and attribute clauses, DISTINCT, variable-length path
patterns, disconnected patterns, and empty results.
"""

from __future__ import annotations

import pytest

from repro.audit.entities import (FileEntity, NetworkEntity, Operation,
                                  ProcessEntity, SystemEvent)
from repro.storage import DualStore
from repro.storage.relational import RelationalStore
from repro.tbql.executor import (MAX_CANDIDATE_PUSHDOWN, PlanStep,
                                 TBQLExecutor, _canonical_key, _display_name)
from repro.tbql.paths import adjacency

from .conftest import DATA_LEAK_EDGES
from .reference.executor_seed import BacktrackingJoinExecutor

#: Multi-pattern TBQL corpus executed through both join strategies.
EQUIVALENCE_CORPUS = [
    # shared entity across two patterns
    'proc p["%/bin/tar%"] read file f as e1 '
    'proc p write file g as e2 return p, f, g',
    # three-pattern chain through a shared file entity
    'proc p write file shared["%/tmp/upload.tar%"] as e1 '
    'proc q["%/bin/bzip2%"] read file shared as e2 '
    'proc q write file out as e3 return p, q, out',
    # temporal before
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
    'proc q["%/usr/bin/curl%"] connect ip i as e2 '
    'with e1 before e2 return p, q, i.dstip',
    # temporal after (reversed, empty result expected)
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
    'proc q["%/usr/bin/curl%"] connect ip i as e2 '
    'with e1 after e2 return p, q',
    # attribute relation
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
    'proc q["%/bin/tar%"] write file g as e2 '
    'with p.pid = q.pid return p.pid, q.pid, g',
    # attribute relation, negative operator
    'proc p["%/bin/tar%"] read file f as e1 '
    'proc q["%/bin/bzip2%"] read file g as e2 '
    'with p.pid != q.pid return distinct p, q',
    # DISTINCT collapse vs raw duplicates (same query, no distinct)
    'proc p["%/bin/tar%"] read || write file f as e1 '
    'proc p read file g as e2 return distinct p',
    'proc p["%/bin/tar%"] read || write file f as e1 '
    'proc p read file g as e2 return p',
    # variable-length path pattern mixed with an event pattern
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
    'proc q["%/usr/bin/curl%"] ~>(1~2)[connect] ip i as e2 '
    'return distinct p, i.dstip',
    # disconnected patterns (cross product, kept small by the filters)
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
    'proc q["%/usr/bin/gpg%"] write file g as e2 return p, q, g',
    # no match at all
    'proc p["%/bin/nonexistent%"] read file f as e1 '
    'proc p write file g as e2 return p, f, g',
    # --- TBQL v2 operators (appended: earlier [:N] slices stay stable) ---
    # sequence operator (unbounded gap)
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
    'then proc q["%/usr/bin/curl%"] connect ip i return p, q, i.dstip',
    # bounded sequence with a tight gap
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
    'then[1 sec] proc q["%/usr/bin/curl%"] connect ip i return p, q',
    # absence pattern that holds (tar never connects)
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
    'and not proc p connect ip i return p',
    # absence pattern that vetoes every row (curl does connect)
    'proc p["%/usr/bin/curl%"] read file f '
    'and not proc p connect ip i return p, f',
    # absence expressed as a graph path pattern
    'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
    'and not proc p ~>(1~2)[connect] ip i return p',
    # aggregation: top-N noisy processes
    'proc p read file f return p, count() group by p top 5',
    # aggregation with implicit grouping and a sequence
    'proc p read file f then proc p write file g '
    'return p.exename, count()',
    # a [min-max] gap whose lower bound drops the writes closest to e2
    'proc p read || write file f["%upload%"] as e1 '
    'proc q["%/usr/bin/curl%"] connect ip i as e2 '
    'with e1 before[1-300 sec] e2 return distinct p, f',
]


def _execute_both(store, text, use_scheduler=True):
    hash_result = TBQLExecutor(store,
                               use_scheduler=use_scheduler).execute(text)
    reference = BacktrackingJoinExecutor(
        store, use_scheduler=use_scheduler).execute(text)
    return hash_result, reference


class TestJoinEquivalence:
    @pytest.mark.parametrize("text", EQUIVALENCE_CORPUS)
    def test_hash_join_matches_backtracking(self, data_leak_store, text):
        hash_result, reference = _execute_both(data_leak_store, text)
        assert hash_result.rows == reference.rows
        assert hash_result.matched_events == reference.matched_events

    @pytest.mark.parametrize("text", EQUIVALENCE_CORPUS)
    def test_equivalence_without_scheduler(self, data_leak_store, text):
        hash_result, reference = _execute_both(data_leak_store, text,
                                               use_scheduler=False)
        assert hash_result.rows == reference.rows
        assert hash_result.matched_events == reference.matched_events

    def test_gap_lower_bound_matches_giant_sql(self, data_leak_store):
        text = EQUIVALENCE_CORPUS[-1]
        executor = TBQLExecutor(data_leak_store)
        rows = executor.execute(text).rows
        giant = [{key.replace("_", ".", 1): value
                  for key, value in row.items()}
                 for row in executor.execute_giant_sql(text)]
        assert sorted(map(repr, rows)) == \
            sorted(map(repr, {repr(row): row for row in giant}.values()))
        unbounded = executor.execute(text.replace("[1-300 sec]", "")).rows
        assert 0 < len(rows) < len(unbounded)

    def test_figure2_query_both_strategies(self, data_leak_store,
                                           data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        text = synthesize_tbql(data_leak_extraction.graph).text
        hash_result, reference = _execute_both(data_leak_store, text)
        assert hash_result.rows == reference.rows
        assert hash_result.matched_events == reference.matched_events
        assert hash_result.matched_event_signatures == set(DATA_LEAK_EDGES)


class TestStructuredPlan:
    def test_plan_steps_compare_as_pattern_ids(self, data_leak_store):
        result = TBQLExecutor(data_leak_store).execute(
            'proc p["%/bin/tar%"] read file f as e1 '
            'proc p write file g as e2 return p')
        assert all(isinstance(step, PlanStep) for step in result.plan)
        assert all(isinstance(step, str) for step in result.plan)
        assert sorted(result.plan) == ["e1", "e2"]
        assert " -> ".join(result.plan) in ("e1 -> e2", "e2 -> e1")

    def test_plan_records_candidates_and_rows(self, data_leak_store):
        result = TBQLExecutor(data_leak_store).execute(
            'proc p read file f as e1 '
            'proc p["%/bin/tar%"] read file g["%/etc/passwd%"] as e2 '
            'return distinct p, f, g')
        by_id = {step.pattern_id: step for step in result.plan}
        # The selective pattern runs first, unconstrained.
        assert result.plan[0] == "e2"
        assert by_id["e2"].subject_candidates is None
        assert by_id["e2"].backend == "sql"
        # The unselective pattern receives the candidate restriction and is
        # pruned at the data-query level, not post-hoc.
        assert by_id["e1"].pushed_subject
        assert by_id["e1"].subject_candidates == 1
        assert by_id["e1"].rows_in < 5
        assert by_id["e1"].rows_out == by_id["e1"].rows_in
        for step in result.plan:
            stats = step.as_dict()
            assert stats["pattern_id"] == str(step)
            assert "execute" in stats["seconds"]
        assert result.join_seconds >= 0.0

    def test_empty_candidates_short_circuit(self, data_leak_store):
        result = TBQLExecutor(data_leak_store).execute(
            'proc p["%/bin/nonexistent%"] read file f as e1 '
            'proc p write file g as e2 return p')
        by_id = {step.pattern_id: step for step in result.plan}
        assert by_id["e1"].rows_in == 0
        # Once p's candidate set is empty the second data query is skipped.
        assert by_id["e2"].rows_in == 0
        assert by_id["e2"].hydration_queries == 0
        assert result.rows == []


class TestBatchedHydration:
    def test_one_hydration_query_per_sql_pattern(self, data_leak_store,
                                                 monkeypatch):
        executor = TBQLExecutor(data_leak_store)
        hydrations = []
        original = RelationalStore.execute

        def counting_execute(self, sql, params=()):
            if "FROM entities WHERE id IN" in sql:
                hydrations.append(sql)
            return original(self, sql, params)

        monkeypatch.setattr(RelationalStore, "execute", counting_execute)
        result = executor.execute(
            'proc p["%/bin/tar%"] read file f as e1 '
            'proc q["%/bin/bzip2%"] read file g as e2 '
            'proc r["%/usr/bin/gpg%"] write file h as e3 return p, q, r')
        sql_steps = [step for step in result.plan if step.backend == "sql"]
        assert len(sql_steps) == 3
        # At most one entity-hydration query per pattern — never per row.
        assert len(hydrations) <= len(sql_steps)
        assert sum(step.hydration_queries for step in result.plan) == \
            len(hydrations)

    def test_entity_by_ids_batches_and_skips_missing(self):
        dual = DualStore()
        tar = ProcessEntity(exename="/bin/tar", pid=7)
        passwd = FileEntity(path="/etc/passwd")
        dual.load_events([SystemEvent(subject=tar, operation=Operation.READ,
                                      obj=passwd, start_time=1.0,
                                      end_time=1.5)])
        store = dual.relational
        rows, statements = store.entity_by_ids([1, 2, 2, 999])
        assert set(rows) == {1, 2}
        assert statements == 1
        assert rows[1]["exename"] == "/bin/tar"
        assert rows[2]["path"] == "/etc/passwd"
        assert store.entity_by_ids([]) == ({}, 0)
        dual.close()

    def test_entity_by_ids_chunks_large_inputs(self, monkeypatch):
        dual = DualStore()
        tar = ProcessEntity(exename="/bin/tar", pid=7)
        passwd = FileEntity(path="/etc/passwd")
        dual.load_events([SystemEvent(subject=tar, operation=Operation.READ,
                                      obj=passwd, start_time=1.0,
                                      end_time=1.5)])
        store = dual.relational
        monkeypatch.setattr(RelationalStore, "BATCH_CHUNK_SIZE", 1)
        statements = []
        original = RelationalStore.execute

        def counting_execute(self, sql, params=()):
            statements.append(sql)
            return original(self, sql, params)

        monkeypatch.setattr(RelationalStore, "execute", counting_execute)
        rows, issued = store.entity_by_ids([1, 2])
        assert set(rows) == {1, 2}
        assert len(statements) == 2
        assert issued == 2
        dual.close()


class TestPathCandidatePushdown:
    def test_path_pattern_receives_candidates(self, data_leak_store):
        result = TBQLExecutor(data_leak_store).execute(
            'proc p["%/usr/bin/curl%"] read file f["%/tmp/upload%"] as e1 '
            'proc p ~>(1~2)[connect] ip i as e2 return distinct p, i.dstip')
        by_id = {step.pattern_id: step for step in result.plan}
        # The event pattern is more selective, so it runs first and its
        # bindings pick the path's start subjects.
        assert result.plan[0] == "e1"
        assert by_id["e2"].backend == "path"
        assert by_id["e2"].pushed_subject
        assert result.rows == [{"p.exename": "/usr/bin/curl",
                                "i.dstip": "192.168.29.128"}]

    def test_oversized_candidate_sets_not_pushed(self, data_leak_store,
                                                 monkeypatch):
        monkeypatch.setattr("repro.tbql.executor.MAX_CANDIDATE_PUSHDOWN", 0)
        assert MAX_CANDIDATE_PUSHDOWN > 0  # module constant itself untouched
        result = TBQLExecutor(data_leak_store).execute(
            'proc p read file f as e1 '
            'proc p["%/bin/tar%"] read file g["%/etc/passwd%"] as e2 '
            'return distinct p, f, g')
        by_id = {step.pattern_id: step for step in result.plan}
        # Pushdown disabled: the key post-filter still prunes correctly.
        assert not by_id["e1"].pushed_subject
        assert by_id["e1"].rows_in > by_id["e1"].rows_out
        assert len(result.rows) >= 1


class TestKeyNormalization:
    def test_file_key_and_display_share_precedence(self):
        path_only = {"type": "file", "path": "/etc/passwd", "name": None}
        name_only = {"type": "file", "path": None, "name": "/etc/passwd"}
        both = {"type": "file", "path": "/etc/passwd", "name": "passwd"}
        assert _canonical_key(path_only) == _canonical_key(name_only)
        assert _display_name(path_only) == _display_name(name_only)
        # path wins over name in both functions (path is the unique key).
        assert _canonical_key(both) == "file:/etc/passwd"
        assert _display_name(both) == "/etc/passwd"

    def test_reload_keeps_id_spaces_aligned(self):
        """A second load_events must not leave stale ids behind.

        The graph backend once rebuilt on every load while the relational
        one accumulated, so pushed-down id allowlists pointed at the wrong
        nodes after a reload; DualStore.load_events clears the relational
        store, and the path adjacency is rebuilt from the new rows.
        """
        store = DualStore(reduce=False)
        first = [SystemEvent(subject=ProcessEntity(exename=f"/bin/p{i}",
                                                   pid=100 + i),
                             operation=Operation.READ,
                             obj=FileEntity(path=f"/tmp/f{i}"),
                             start_time=float(i), end_time=float(i) + 0.5)
                 for i in range(4)]
        store.load_events(first)
        curl = ProcessEntity(exename="/usr/bin/curl2", pid=9)
        upload = FileEntity(path="/tmp/upload")
        store.load_events([
            SystemEvent(subject=curl, operation=Operation.READ, obj=upload,
                        start_time=1.0, end_time=1.5),
            SystemEvent(subject=curl, operation=Operation.CONNECT,
                        obj=NetworkEntity(srcip="10.0.0.2", srcport=40000,
                                          dstip="10.0.0.1", dstport=443),
                        start_time=2.0, end_time=2.5),
        ])
        assert adjacency(store).high_water == \
            store.relational.count_events() == 2
        result = TBQLExecutor(store).execute(
            'proc p["%curl2%"] read file f as e1 '
            'proc p ~>(1~2)[connect] ip i as e2 return distinct p, i.dstip')
        assert result.rows == [{"p.exename": "/usr/bin/curl2",
                                "i.dstip": "10.0.0.1"}]
        store.close()

    def test_epoch_zero_timestamps_survive_path_matches(self):
        store = DualStore(reduce=False)
        tar = ProcessEntity(exename="/bin/tar", pid=7)
        passwd = FileEntity(path="/etc/passwd")
        upload = FileEntity(path="/tmp/upload.tar")
        store.load_events([
            SystemEvent(subject=tar, operation=Operation.READ, obj=passwd,
                        start_time=0.0, end_time=0.0),
            SystemEvent(subject=tar, operation=Operation.WRITE, obj=upload,
                        start_time=5.0, end_time=6.0),
        ])
        result = TBQLExecutor(store).execute(
            'proc p ->[read] file f as e1 '
            'proc p ->[write] file g as e2 '
            'with e1 before e2 return p, f, g')
        # The epoch-0 read must not be treated as "missing timestamp": the
        # before-relation orders it ahead of the write and the row survives.
        assert result.rows == [{"p.exename": "/bin/tar",
                                "f.name": "/etc/passwd",
                                "g.name": "/tmp/upload.tar"}]
        read_events = [event for event in result.matched_events
                       if event["operation"] == "read"]
        assert read_events[0]["start_time"] == 0.0
        store.close()
