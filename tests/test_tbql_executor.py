"""Tests for the scheduler and the exact execution engine."""

import pytest

from repro.audit.entities import (FileEntity, Operation, ProcessEntity,
                                  SystemEvent)
from repro.errors import TBQLSemanticError
from repro.storage import DualStore
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.scheduler import naive_schedule, pruning_score, schedule
from repro.tbql.semantics import resolve_query

from .conftest import DATA_LEAK_EDGES


def resolve(text):
    return resolve_query(parse_tbql(text))


class TestPruningScore:
    def test_more_constraints_higher_score(self):
        resolved = resolve('proc p["%a%"] read file f["%b%"] as e1 '
                           'proc q read file g as e2 return p')
        constrained, unconstrained = resolved.patterns
        assert pruning_score(constrained) > pruning_score(unconstrained)

    def test_shorter_path_higher_score(self):
        resolved = resolve('proc p["%a%"] ~>(1~2)[read] file f["%b%"] as e1 '
                           'proc q["%a%"] ~>(1~8)[read] file g["%b%"] as e2 '
                           'return p')
        short, long = resolved.patterns
        assert pruning_score(short) > pruning_score(long)

    def test_path_pattern_scores_below_equivalent_event_pattern(self):
        resolved = resolve('proc p["%a%"] read file f["%b%"] as e1 '
                           'proc q["%a%"] ~>(1~4)[read] file g["%b%"] as e2 '
                           'return p')
        event_pattern, path_pattern = resolved.patterns
        assert pruning_score(event_pattern) > pruning_score(path_pattern)


class TestSchedule:
    def test_starts_with_most_selective_pattern(self):
        resolved = resolve('proc p read file f as e1 '
                           'proc p["%tar%"] read file g["%passwd%"] as e2 '
                           'return p')
        steps = schedule(resolved)
        assert steps[0].pattern.pattern_id == "e2"

    def test_prefers_connected_patterns(self):
        resolved = resolve(
            'proc a["%x%"] read file f["%y%"] as e1 '          # selective
            'proc a read file g as e2 '                        # shares a
            'proc b["%z%"] write file h as e3 return a')       # disconnected
        steps = schedule(resolved)
        order = [step.pattern.pattern_id for step in steps]
        assert order[0] == "e1"
        assert order.index("e2") < order.index("e3") or \
            pruning_score(resolved.patterns[2]) >= \
            pruning_score(resolved.patterns[1])

    def test_all_patterns_scheduled_exactly_once(self, data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        resolved = resolve(synthesize_tbql(data_leak_extraction.graph).text)
        steps = schedule(resolved)
        assert sorted(s.pattern.pattern_id for s in steps) == \
            sorted(p.pattern_id for p in resolved.patterns)

    def test_bound_entities_accumulate(self):
        resolved = resolve('proc p["%a%"] read file f["%b%"] as e1 '
                           'proc p write file g as e2 return p')
        steps = schedule(resolved)
        assert steps[0].bound_entities == frozenset()
        assert "p" in steps[1].bound_entities

    def test_naive_schedule_keeps_declaration_order(self):
        resolved = resolve('proc p read file f as e1 '
                           'proc p["%tar%"] read file g["%x%"] as e2 '
                           'return p')
        steps = naive_schedule(resolved)
        assert [s.pattern.pattern_id for s in steps] == ["e1", "e2"]


class TestExecutor:
    def test_single_pattern_query(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] return p, f')
        assert result.rows == [{"p.exename": "/bin/tar",
                                "f.name": "/etc/passwd"}]
        assert result.matched_event_signatures == {
            ("/bin/tar", "read", "/etc/passwd")}

    def test_figure2_query_finds_all_steps(self, data_leak_store,
                                           data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            synthesize_tbql(data_leak_extraction.graph).text)
        assert len(result.rows) == 1
        assert result.matched_event_signatures == set(DATA_LEAK_EDGES)
        assert result.elapsed_seconds > 0
        assert len(result.plan) == 8

    def test_operation_disjunction(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p["%/bin/tar%"] read || write file f return distinct '
            'f.name')
        names = {row["f.name"] for row in result.rows}
        assert names == {"/etc/passwd", "/tmp/upload.tar"}

    def test_temporal_constraint_filters_rows(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        # Reversed order: curl connects *after* tar reads, so requiring the
        # opposite order must produce no joined rows.
        result = executor.execute(
            'proc p["%/usr/bin/curl%"] connect ip i["192.168.29.128"] as e1 '
            'proc q["%/bin/tar%"] read file f["%/etc/passwd%"] as e2 '
            'with e1 before e2 return p, q')
        assert result.rows == []

    def test_attribute_relation(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
            'proc q["%/bin/tar%"] write file g["%/tmp/upload.tar%"] as e2 '
            'with p.pid = q.pid return distinct p.pid, q.pid')
        assert len(result.rows) == 1
        assert result.rows[0]["p.pid"] == result.rows[0]["q.pid"]

    def test_entity_id_reuse_requires_same_entity(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p write file shared["%/tmp/upload.tar%"] as e1 '
            'proc q["%/bin/bzip2%"] read file shared as e2 '
            'return distinct p, q')
        assert result.rows == [{"p.exename": "/bin/tar",
                                "q.exename": "/bin/bzip2"}]

    def test_variable_length_path_pattern(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p["%/bin/tar%"] ~>(1~3)[write] file f return distinct '
            'f.name')
        names = {row["f.name"] for row in result.rows}
        # The only outgoing write flow from /bin/tar ends at /tmp/upload.tar;
        # the path syntax must not invent flows through passive file nodes.
        assert names == {"/tmp/upload.tar"}

    def test_length1_path_pattern_equivalent_to_event_pattern(
            self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        event_rows = executor.execute(
            'proc p["%/bin/bzip2%"] read file f return distinct f.name').rows
        path_rows = executor.execute(
            'proc p["%/bin/bzip2%"] ->[read] file f return distinct '
            'f.name').rows
        assert {r["f.name"] for r in event_rows} == \
            {r["f.name"] for r in path_rows}

    def test_no_match_returns_empty(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p["%/bin/nonexistent%"] read file f return p')
        assert result.rows == []
        assert result.matched_events == []

    def test_mixed_pattern_query(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
            'proc q["%/usr/bin/curl%"] ~>(1~2)[connect] ip i as e2 '
            'return distinct p, i.dstip')
        assert result.rows == [{"p.exename": "/bin/tar",
                                "i.dstip": "192.168.29.128"}]

    def test_global_time_window_excludes_everything(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        result = executor.execute(
            'from "1970-01-01" to "1970-01-02" '
            'proc p["%/bin/tar%"] read file f return p')
        assert result.rows == []

    def test_unscheduled_executor_same_results(self, data_leak_store,
                                               data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        text = synthesize_tbql(data_leak_extraction.graph).text
        scheduled = TBQLExecutor(data_leak_store, use_scheduler=True)
        unscheduled = TBQLExecutor(data_leak_store, use_scheduler=False)
        assert scheduled.execute(text).rows == unscheduled.execute(text).rows

    def test_distinct_deduplicates_rows(self, data_leak_store):
        executor = TBQLExecutor(data_leak_store)
        distinct = executor.execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'return distinct p')
        assert len(distinct.rows) == 1

    def test_giant_sql_baseline_agrees(self, data_leak_store,
                                       data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        text = synthesize_tbql(data_leak_extraction.graph).text
        executor = TBQLExecutor(data_leak_store)
        rows = executor.execute_giant_sql(text)
        assert len(rows) == 1
        assert rows[0]["p1_exename"] == "/bin/tar"

    def test_giant_sql_of_the_path_variant_agrees(self, data_leak_store,
                                                  data_leak_extraction):
        from repro.tbql.synthesis import SynthesisPlan, TBQLSynthesizer
        plan = SynthesisPlan(use_path_patterns=True, fuzzy_paths=False,
                             temporal_order=False)
        text = TBQLSynthesizer(plan).synthesize(
            data_leak_extraction.graph).text
        executor = TBQLExecutor(data_leak_store)
        rows = executor.execute_giant_sql(text)
        assert len(rows) == 1
        assert rows[0]["i1_dstip"] == "192.168.29.128"
        assert list(rows[0].values()) == \
            list(executor.execute(text).rows[0].values())


class _ClearingExecutor(TBQLExecutor):
    """Another thread's ``data_version`` bump, simulated: the shared
    entity cache (attributes, join keys, display names) is emptied right
    after every hydration returns."""

    def _hydrate_entities(self, entity_ids):
        hydrated = super()._hydrate_entities(entity_ids)
        self._entity_cache.clear()
        return hydrated


class TestEntityCacheRace:
    @pytest.mark.parametrize("text", [
        'proc p["%/bin/tar%"] read file f as e1 '
        'proc p write file g as e2 return p, f, g',
        'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
        'and not proc p connect ip i return p',
        'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
        'then proc q["%/usr/bin/curl%"] connect ip i return p, q, i.dstip',
    ], ids=["join", "negation", "then"])
    def test_a_cleared_cache_changes_no_answer(self, data_leak_store, text):
        want = TBQLExecutor(data_leak_store).execute(text)
        got = _ClearingExecutor(data_leak_store).execute(text)
        assert want.rows and want.joined_events
        assert (got.rows, got.matched_events, got.joined_events,
                got.per_pattern_matches) == \
            (want.rows, want.matched_events, want.joined_events,
             want.per_pattern_matches)


class TestGapBounds:
    """``with e1 before[min-max unit] e2`` bounds the gap on both sides."""

    @pytest.fixture(scope="class")
    def sixty_second_store(self):
        tar = ProcessEntity(exename="/bin/tar", pid=7)
        store = DualStore(reduce=False)
        store.load_events([
            SystemEvent(subject=tar, operation=Operation.READ,
                        obj=FileEntity(path="/etc/passwd"),
                        start_time=1000.0, end_time=1000.5),
            SystemEvent(subject=tar, operation=Operation.WRITE,
                        obj=FileEntity(path="/tmp/upload.tar"),
                        start_time=1060.5, end_time=1061.0),
        ])
        yield store
        store.close()

    @pytest.mark.parametrize("relation, expected", [
        ("e1 before[30-300 sec] e2", 1),
        ("e1 before[120-300 sec] e2", 0),
        ("e1 before[0-30 sec] e2", 0),
        ("e2 after[2-5 min] e1", 0),
        ("e2 after[1-2 min] e1", 1),        # both bounds are inclusive
        ("e1 within[30-90 sec] e2", 1),
        ("e1 within[61-90 sec] e2", 0),
    ])
    def test_executor_and_giant_sql_honour_both_bounds(
            self, sixty_second_store, relation, expected):
        text = ('proc p["%/bin/tar%"] read file f as e1 '
                'proc p write file g as e2 '
                f'with {relation} return p, f, g')
        executor = TBQLExecutor(sixty_second_store)
        assert len(executor.execute(text).rows) == expected
        assert len(executor.execute_giant_sql(text)) == expected

    def test_minimum_above_maximum_rejected(self):
        with pytest.raises(TBQLSemanticError, match="minimum"):
            resolve('proc p read file f as e1 proc p write file g as e2 '
                    'with e1 before[10-5 min] e2 return p')
