"""Statistics-driven pruning, dictionary scans, and aggregate pushdown.

Covers the scan-optimizer stack end to end: seal-time segment statistics
(zone maps, distinct sets, entity-type presence), the conservative
pruning contract (property-based: a stats-pruned segment never holds a
row the reference scan returns), dictionary-accelerated string
predicates (sorted string table + binary-searched prefix ranges),
partial-aggregate pushdown equivalence, backward compatibility with
pre-stats v3 and v2 snapshots, and the observability surfaces
(``/stats`` pruning totals, ``repro_tbql_segments_pruned_total``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from operator import attrgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.storage import DualStore
from repro.storage.columnar import ColumnarSegment, ascii_lower
from repro.storage.segments import (STATS_DISTINCT_COLUMNS,
                                    STATS_NUMERIC_COLUMNS, SegmentStats)
from repro.tbql.ast import (AttributeComparison, BooleanFilter,
                            MembershipFilter)
from repro.tbql.colscan import PatternSpec, scan_columnar
from repro.tbql.executor import TBQLExecutor
from repro.tbql.pruning import prune_by_stats, segment_may_match
from repro.tbql.semantics import resolve_query
from repro.tbql.parser import parse_tbql

from .conftest import record_data_leak_attack, snapshot_files
from .promtext import parse_prometheus_text
from .reference.executor_seed import RowPathExecutor, ScanAggregationExecutor
from .reference.scan_unoptimized import (dictionary_disabled,
                                         optimizers_disabled,
                                         stats_pruning_disabled)
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

#: Queries exercising the optimizer paths: selective predicates that
#: prune segments, LIKE/IN shapes the dictionary path accelerates, and
#: aggregations the pushdown distributes.
OPTIMIZER_CORPUS = [
    'proc p connect ip i return p, i.dstip',
    'proc p["%/bin/tar%"] read file f return p, f',
    'proc p["%gpg%"] write file f return p, f',
    'proc p read file f return p, count() group by p top 5',
    'proc p write file f return f, count() group by f top 3',
    'proc p read || write file f return count()',
]


def _corpus_events():
    collector = AuditCollector(CollectorConfig(seed=11))
    record_data_leak_attack(collector)
    events = collector.events() + generate_benign_noise(num_sessions=10,
                                                        seed=29)
    events.sort(key=attrgetter("start_time", "event_id"))
    return events


def _build_pair(batch_size=40):
    """(monolithic, segmented) stores fed identical batches/seals."""
    events = _corpus_events()
    mono = DualStore()
    seg = DualStore(layout="segmented")
    for index in range(0, len(events), batch_size):
        batch = events[index:index + batch_size]
        for store in (mono, seg):
            store.append_events(batch)
            store.flush_appends()
    return mono, seg


@pytest.fixture(scope="module")
def store_pair():
    mono, seg = _build_pair()
    yield mono, seg
    mono.close()
    seg.close()


# ---------------------------------------------------------------------------
# seal-time statistics
# ---------------------------------------------------------------------------


class TestSealTimeStats:
    def test_every_sealed_segment_carries_stats(self, store_pair):
        _mono, seg = store_pair
        view = seg.segment_view()
        assert view.sealed
        for info in view.sealed:
            assert isinstance(info.stats, SegmentStats)

    def test_stats_describe_the_stored_rows_exactly(self, store_pair):
        _mono, seg = store_pair
        for info in seg.segment_view().sealed:
            segment = ColumnarSegment(info.columnar_path)
            try:
                for column in STATS_NUMERIC_COLUMNS:
                    values = list(segment.column(f"event.{column}"))
                    assert info.stats.numeric[column] == \
                        (min(values), max(values))
                strings = segment.strings
                for column in STATS_DISTINCT_COLUMNS:
                    stored = {strings[code] for code
                              in set(segment.column(f"event.{column}"))
                              if code != 0}
                    assert set(info.stats.distinct[column]) == stored
            finally:
                segment.close()
            assert info.stats.subject_types
            assert info.stats.object_types

    def test_stats_survive_snapshot_roundtrip(self, store_pair, tmp_path):
        _mono, seg = store_pair
        before = [info.stats for info in seg.segment_view().sealed]
        seg.save(tmp_path / "snap")
        with DualStore.open(tmp_path / "snap") as reopened:
            after = [info.stats for info in reopened.segment_view().sealed]
        assert after == before

    def test_compaction_recomputes_stats_for_merged_segments(self):
        _mono, seg = _build_pair(batch_size=25)
        try:
            assert len(seg.segment_view().sealed) > 2
            seg.compact(min_events=10_000)
            merged = seg.segment_view().sealed
            assert len(merged) == 1
            stats = merged[0].stats
            assert isinstance(stats, SegmentStats)
            assert set(stats.numeric) == set(STATS_NUMERIC_COLUMNS)
        finally:
            _mono.close()
            seg.close()

    def test_stats_entry_parser_is_tolerant(self):
        assert SegmentStats.from_entry(None) is None
        assert SegmentStats.from_entry("garbage") is None
        assert SegmentStats.from_entry({"version": 999}) is None
        assert SegmentStats.from_entry({"version": 1,
                                        "numeric": "nope"}) is None
        entry = SegmentStats(numeric={"duration": (1.0, 2.0)},
                             distinct={"operation": ("read",)},
                             subject_types=("proc",),
                             object_types=("file",)).as_entry()
        assert SegmentStats.from_entry(
            json.loads(json.dumps(entry))) is not None


# ---------------------------------------------------------------------------
# conservativeness: pruned => provably empty (property-based)
# ---------------------------------------------------------------------------

_COMPARISON_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
_OPERATION_VALUES = ("read", "write", "connect", "spawn", "recv", "exec")
_HOST_VALUES = ("host-0", "host-1", "HOST-0", "workstation-9",
                "host%", "%-0", "h_st-0", "")

_host_filter = st.builds(
    AttributeComparison, st.just("host"),
    st.sampled_from(_COMPARISON_OPERATORS), st.sampled_from(_HOST_VALUES))
_operation_filter = st.builds(
    AttributeComparison, st.just("operation"),
    st.sampled_from(("=", "!=")), st.sampled_from(_OPERATION_VALUES))
_numeric_filter = st.builds(
    AttributeComparison,
    st.sampled_from(("duration", "data_amount", "failure_code")),
    st.sampled_from(_COMPARISON_OPERATORS),
    st.one_of(st.integers(min_value=-2, max_value=1 << 32),
              st.floats(min_value=-10.0, max_value=1e10,
                        allow_nan=False)))
_membership_filter = st.builds(
    MembershipFilter, st.just("operation"),
    st.lists(st.sampled_from(_OPERATION_VALUES), min_size=1,
             max_size=3).map(tuple),
    st.booleans())
_leaf_filter = st.one_of(_host_filter, _operation_filter,
                         _numeric_filter, _membership_filter)
_pattern_filter = st.one_of(
    st.none(), _leaf_filter,
    st.builds(BooleanFilter, st.sampled_from(("&&", "||")),
              st.tuples(_leaf_filter, _leaf_filter)))

_spec = st.builds(
    PatternSpec,
    subject_type=st.sampled_from(("proc", "file", "ip")),
    object_type=st.sampled_from(("proc", "file", "ip")),
    operations=st.one_of(
        st.none(),
        st.lists(st.sampled_from(_OPERATION_VALUES), min_size=1,
                 max_size=3).map(lambda ops: tuple(sorted(set(ops))))),
    subject_filter=st.none(),
    object_filter=st.none(),
    pattern_filter=_pattern_filter,
    window=st.none(),
    subject_candidates=st.none(),
    object_candidates=st.none(),
    min_event_id=st.none())


class TestConservativePruning:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=_spec)
    def test_pruned_segment_never_holds_a_matching_row(self, store_pair,
                                                       spec):
        """The contract stats pruning rests on: ``segment_may_match``
        returning False must imply the real scan returns zero rows."""
        _mono, seg = store_pair
        for info in seg.segment_view().sealed:
            if segment_may_match(info.stats, spec):
                continue
            segment = ColumnarSegment(info.columnar_path)
            try:
                assert scan_columnar(segment, spec) == []
            finally:
                segment.close()

    def test_unpruned_reference_scans_every_segment(self, store_pair):
        _mono, seg = store_pair
        sealed = seg.segment_view().sealed
        impossible = PatternSpec(
            subject_type="proc", object_type="file",
            operations=("no-such-operation",), subject_filter=None,
            object_filter=None, pattern_filter=None, window=None,
            subject_candidates=None, object_candidates=None)
        survivors, pruned = prune_by_stats(list(sealed), impossible)
        assert pruned == len(sealed) and not survivors
        text = 'proc p delete file f return p, f'
        pruned_result = TBQLExecutor(seg).execute(text)
        with stats_pruning_disabled():
            unpruned = TBQLExecutor(seg).execute(text)
        assert pruned_result.plan[0].segments_pruned_by_stats > 0
        assert unpruned.plan[0].segments_pruned_by_stats == 0
        assert unpruned.plan[0].segments_scanned == len(sealed)
        assert unpruned.rows == pruned_result.rows
        assert unpruned.matched_events == pruned_result.matched_events

    def test_stats_less_segments_always_survive(self, store_pair):
        _mono, seg = store_pair
        sealed = seg.segment_view().sealed
        impossible = PatternSpec(
            subject_type="proc", object_type="file",
            operations=("no-such-operation",), subject_filter=None,
            object_filter=None, pattern_filter=None, window=None,
            subject_candidates=None, object_candidates=None)
        assert segment_may_match(None, impossible)
        stripped = [dataclasses.replace(info, stats=None)
                    for info in sealed]
        survivors, pruned = prune_by_stats(stripped, impossible)
        assert pruned == 0 and len(survivors) == len(sealed)


# ---------------------------------------------------------------------------
# dictionary-accelerated string predicates
# ---------------------------------------------------------------------------


class TestDictionaryPredicates:
    def test_string_table_is_sorted_case_insensitively(self, store_pair):
        _mono, seg = store_pair
        info = seg.segment_view().sealed[0]
        segment = ColumnarSegment(info.columnar_path)
        try:
            assert segment.sorted_strings
            keys = [(ascii_lower(text), text)
                    for text in segment.strings[1:]]
            assert keys == sorted(keys)
        finally:
            segment.close()

    @pytest.mark.parametrize("prefix", ["/bin/", "/etc/p", "/BIN/", "h",
                                        "", "zzzz", "/tmp/upload.tar"])
    def test_prefix_code_range_matches_linear_scan(self, store_pair,
                                                   prefix):
        _mono, seg = store_pair
        info = seg.segment_view().sealed[0]
        segment = ColumnarSegment(info.columnar_path)
        try:
            found = segment.prefix_code_range(prefix)
            assert found is not None
            low, high = found
            reference = {code for code in range(1, len(segment.strings))
                         if ascii_lower(segment.strings[code])
                         .startswith(ascii_lower(prefix))}
            assert set(range(low, high)) == reference
        finally:
            segment.close()

    def test_dictionary_toggle_preserves_results(self, store_pair):
        mono, seg = store_pair
        reference = TBQLExecutor(mono)
        expected = [reference.execute(text) for text in EQUIVALENCE_CORPUS]
        for dict_enabled in (True, False):
            with contextlib.ExitStack() as stack:
                if not dict_enabled:
                    stack.enter_context(dictionary_disabled())
                executor = TBQLExecutor(seg)
                for text, want in zip(EQUIVALENCE_CORPUS, expected):
                    got = executor.execute(text)
                    assert got.rows == want.rows, (dict_enabled, text)
                    assert got.matched_events == want.matched_events, \
                        (dict_enabled, text)


# ---------------------------------------------------------------------------
# partial-aggregate pushdown
# ---------------------------------------------------------------------------


class TestAggregatePushdown:
    AGG = 'proc p read file f return p, count() group by p top 5'

    def test_pushdown_fires_and_matches_every_reference(self, store_pair):
        mono, seg = store_pair
        want = TBQLExecutor(mono).execute(self.AGG)
        got = TBQLExecutor(seg).execute(self.AGG)
        step = got.plan[0]
        assert step.aggregate_pushdown
        assert step.segments_scanned is not None
        assert got.rows == want.rows
        assert got.matched_events == want.matched_events
        assert got.joined_events == want.joined_events
        assert got.per_pattern_matches == want.per_pattern_matches

    def test_row_path_reference_matches_pushdown(self, store_pair):
        _mono, seg = store_pair
        pushed = TBQLExecutor(seg).execute(self.AGG)
        assert pushed.plan[0].aggregate_pushdown
        plain = RowPathExecutor(seg).execute(self.AGG)
        assert not plain.plan[0].aggregate_pushdown
        assert plain.rows == pushed.rows
        assert plain.matched_events == pushed.matched_events
        assert plain.joined_events == pushed.joined_events

    def test_multi_pattern_and_reference_strategies_fall_back(
            self, store_pair):
        _mono, seg = store_pair
        sequence = ('proc p read file f then proc p write file g '
                    'return p.exename, count()')
        result = TBQLExecutor(seg).execute(sequence)
        assert not any(step.aggregate_pushdown for step in result.plan)
        scan_agg = ScanAggregationExecutor(seg)
        result = scan_agg.execute(self.AGG)
        assert not any(step.aggregate_pushdown for step in result.plan)

    def test_monolithic_store_never_pushes_down(self, store_pair):
        mono, _seg = store_pair
        result = TBQLExecutor(mono).execute(self.AGG)
        assert not any(step.aggregate_pushdown for step in result.plan)


# ---------------------------------------------------------------------------
# optimizer corpus equivalence (everything on, everything off)
# ---------------------------------------------------------------------------


class TestOptimizerEquivalence:
    def test_corpus_identical_with_and_without_optimizations(
            self, store_pair):
        mono, seg = store_pair
        reference = TBQLExecutor(mono)
        expected = [reference.execute(text) for text in OPTIMIZER_CORPUS]
        for disabled in (False, True):
            with contextlib.ExitStack() as stack:
                if disabled:
                    stack.enter_context(optimizers_disabled())
                executor = (RowPathExecutor if disabled
                            else TBQLExecutor)(seg)
                for text, want in zip(OPTIMIZER_CORPUS, expected):
                    got = executor.execute(text)
                    assert got.rows == want.rows, (disabled, text)
                    assert got.matched_events == want.matched_events, \
                        (disabled, text)

    def test_selective_patterns_are_pruned_by_stats(self, store_pair):
        mono, seg = store_pair
        executor = TBQLExecutor(seg)
        text = 'proc p["%/bin/tar%"] read file f["/etc/passwd"] return p'
        result = executor.execute(text)
        step = result.plan[0]
        assert step.segments_pruned_by_stats is not None
        assert step.segments_pruned_by_stats > 0
        assert result.rows == TBQLExecutor(mono).execute(text).rows
        totals = executor.pruning_totals
        assert totals["segments_pruned_by_stats"] >= \
            step.segments_pruned_by_stats


# ---------------------------------------------------------------------------
# backward compatibility: pre-stats snapshots, with and without payloads
# ---------------------------------------------------------------------------


def _strip_stats(snapshot) -> None:
    """Rewrite a snapshot as one sealed before statistics existed."""
    manifest_path = snapshot / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest.get("segments", []):
        entry.pop("stats", None)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    for segment_manifest in snapshot.glob("segments/*/segment.json"):
        entry = json.loads(segment_manifest.read_text(encoding="utf-8"))
        entry.pop("stats", None)
        segment_manifest.write_text(json.dumps(entry), encoding="utf-8")


class TestBackwardCompatibility:
    CORPUS = EQUIVALENCE_CORPUS[:4] + OPTIMIZER_CORPUS

    def _expected(self, mono):
        return [TBQLExecutor(mono).execute(text) for text in self.CORPUS]

    def _assert_identical_without_stats(self, snapshot, expected):
        with DualStore.open(snapshot) as reopened:
            view = reopened.segment_view()
            assert view.sealed
            assert all(info.stats is None for info in view.sealed)
            executor = TBQLExecutor(reopened)
            for text, want in zip(self.CORPUS, expected):
                got = executor.execute(text)
                assert got.rows == want.rows, text
                assert got.matched_events == want.matched_events, text
                for step in got.plan:
                    if step.segments_pruned_by_stats is not None:
                        assert step.segments_pruned_by_stats == 0
            assert executor.pruning_totals[
                "segments_pruned_by_stats"] == 0

    def test_prestats_v3_snapshot_opens_and_answers(self, store_pair,
                                                    tmp_path):
        mono, seg = store_pair
        snapshot = tmp_path / "prestats"
        seg.save(snapshot)
        _strip_stats(snapshot)
        self._assert_identical_without_stats(snapshot,
                                             self._expected(mono))

    def test_v2_snapshot_opens_and_answers(self, store_pair, tmp_path):
        """No payloads either: they are built when the snapshot opens,
        outside it, and still without statistics to prune by."""
        mono, seg = store_pair
        snapshot = tmp_path / "v2"
        seg.save(snapshot)
        _strip_stats(snapshot)
        for payload in snapshot.glob("segments/*/events.col"):
            payload.unlink()
        manifest_path = snapshot / "manifest.json"
        manifest = manifest_path.read_text(encoding="utf-8")
        assert '"format_version": 5' in manifest
        manifest_path.write_text(
            manifest.replace('"format_version": 5',
                             '"format_version": 2'), encoding="utf-8")
        before = snapshot_files(snapshot)
        self._assert_identical_without_stats(snapshot,
                                             self._expected(mono))
        assert snapshot_files(snapshot) == before


# ---------------------------------------------------------------------------
# observability surfaces
# ---------------------------------------------------------------------------


class TestObservability:
    def test_pruning_metrics_render_validly(self, store_pair):
        _mono, seg = store_pair
        previous = set_registry(MetricsRegistry())
        try:
            executor = TBQLExecutor(seg)
            executor.execute('proc p connect ip i return p')
            executor.execute(TestAggregatePushdown.AGG)
            text = get_registry().render()
        finally:
            set_registry(previous)
        families = parse_prometheus_text(text)
        pruned = families["repro_tbql_segments_pruned_total"]
        assert pruned["type"] == "counter"
        reasons = {labels["reason"]
                   for _name, labels, _value in pruned["samples"]}
        assert reasons == {"time", "stats", "candidates"}
        fraction = families["repro_tbql_segments_pruned_fraction"]
        assert fraction["type"] == "histogram"
        counts = [value for name, labels, value in fraction["samples"]
                  if name.endswith("_count")]
        assert counts and counts[0] >= 2

    FILTERED = 'proc p["%/bin/tar%"] read file f["%/etc/%"] return p, f'

    @staticmethod
    def _tables(root):
        """``(built, hit, scans)`` summed over the segment_scan spans."""
        spans = [child for scan in root.as_dict()["children"]
                 if scan["name"] == "scan"
                 for scatter in scan["children"]
                 for child in scatter["children"]
                 if child["name"] == "segment_scan"]
        assert spans
        return (sum(s["attributes"]["filter_tables_built"] for s in spans),
                sum(s["attributes"]["filter_tables_hit"] for s in spans),
                len(spans))

    def test_filter_table_counts_reach_metrics_and_spans(
            self, store_pair, tmp_path):
        from repro.obs import trace

        _mono, seg = store_pair
        snapshot = tmp_path / "memo"      # fresh paths: every memo cold
        seg.save(snapshot)
        tables = self._tables

        previous = set_registry(MetricsRegistry())
        try:
            with DualStore.open(snapshot) as store:
                executor = TBQLExecutor(store)
                with trace.start_trace("query") as cold:
                    first = executor.execute(self.FILTERED)
                with trace.start_trace("query") as warm:
                    second = executor.execute(self.FILTERED)
            text = get_registry().render()
        finally:
            set_registry(previous)
        assert second.rows == first.rows
        assert second.matched_events == first.matched_events
        built, hit, scans = tables(cold)
        # Two filters per scanned segment, none seen before.
        assert (built, hit) == (2 * scans, 0)
        assert tables(warm) == (0, 2 * scans, scans)
        counter = parse_prometheus_text(text)[
            "repro_tbql_filter_table_total"]
        assert counter["type"] == "counter"
        assert {labels["result"]: value for _name, labels, value
                in counter["samples"]} == \
            {"hit": 2 * scans, "miss": 2 * scans}

    def test_scan_that_compiles_no_filter_reports_no_tables(
            self, store_pair):
        """A segment that never saw the operation answers before any
        filter compiles; its span must not repeat the counts of the
        scan this thread ran before."""
        from repro.obs import trace

        _mono, seg = store_pair
        absent = 'proc p delete file f["%/etc/%"] return p, f'
        executor = TBQLExecutor(seg)
        # Statistics would prune these segments; scan them anyway.
        with stats_pruning_disabled():
            with trace.start_trace("query") as filtered:
                executor.execute(self.FILTERED)
            built, hit, _scans = self._tables(filtered)
            assert built + hit > 0
            for _ in range(2):
                with trace.start_trace("query") as root:
                    assert executor.execute(absent).rows == []
                assert self._tables(root)[:2] == (0, 0)

    def test_per_row_reference_bypasses_tables_and_memo(self, store_pair):
        _mono, seg = store_pair
        previous = set_registry(MetricsRegistry())
        try:
            with dictionary_disabled():
                TBQLExecutor(seg).execute(self.FILTERED)
            text = get_registry().render()
        finally:
            set_registry(previous)
        assert "repro_tbql_filter_table_total" not in text

    def test_service_stats_expose_pruning_totals(self, store_pair,
                                                 tmp_path):
        from repro.service import QueryService

        _mono, seg = store_pair
        snapshot = tmp_path / "svc"
        seg.save(snapshot)
        with DualStore.open(snapshot) as store:
            service = QueryService(store)
            service.query('proc p connect ip i return p')
            payload = service.stats()
            pruning = payload["segments"]["pruning"]
            assert set(pruning) == {"segments_scanned",
                                    "segments_pruned_by_time",
                                    "segments_pruned_by_stats",
                                    "segments_pruned_by_candidates"}
            assert pruning["segments_scanned"] > 0

    def test_query_payload_carries_stats_pruning(self, store_pair,
                                                 tmp_path):
        from repro.service.server import result_payload

        _mono, seg = store_pair
        result = TBQLExecutor(seg).execute(
            'proc p connect ip i return p')
        payload = result_payload(result)
        step = payload["plan"][0]
        assert "segments_pruned_by_stats" in step
        assert "segments_pruned_by_candidates" in step
        assert "aggregate_pushdown" in step

    def test_resolved_aggregate_query_parses(self):
        resolved = resolve_query(parse_tbql(TestAggregatePushdown.AGG))
        assert resolved.aggregation is not None
        assert resolved.aggregation.group_by
