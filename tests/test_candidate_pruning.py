"""Candidate pushdown prunes sealed segments and stops hopeless scans.

A join step that receives candidate entity ids from earlier steps scans
only the sealed segments whose entity block holds a candidate on every
pushed side (``pruning.prune_by_candidates``), and a segment scan in
which a pushed side or a conjunctive pass mask has no passing row
returns before any per-event work.  Neither may change an answer: rows
and ``matched_events`` equal the unpruned reference
(``candidate_pruning_disabled()``) and the never-sealed store, on a
store with compacted, freshly sealed and widened (ids ``1..N``)
payloads plus an active tail.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.benchmark import get_case
from repro.benchmark.case import CaseBuilder
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.storage import DualStore
from repro.storage.columnar import (ColumnarSegment, EventColumns,
                                    write_columnar)
from repro.storage.relational.schema import ENTITY_COLUMNS
from repro.tbql import colscan
from repro.tbql.ast import AttributeComparison
from repro.tbql.colscan import (CompiledScan, build_pattern_spec,
                                scan_columnar)
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.pruning import prune_by_candidates
from repro.tbql.semantics import resolve_query

from .conftest import record_data_leak_attack
from .promtext import parse_prometheus_text
from .reference.scan_unoptimized import (candidate_pruning_disabled,
                                         stats_pruning_disabled)
from .test_answer_bytes import build_store
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


# ---------------------------------------------------------------------------
# a store with every kind of payload and an active tail
# ---------------------------------------------------------------------------


def _widen_entity_block(store: DualStore, info) -> None:
    """Rewrite a payload the way builds before referenced-only entity
    blocks wrote it: every entity id ``1..N`` as of its seal."""
    events, referenced = store.relational.segment_rows(
        info.first_event_id, info.last_event_id)
    everything = [tuple(row[column] for column in ENTITY_COLUMNS)
                  for row in store.relational.execute(
                      "SELECT * FROM entities WHERE id <= ? ORDER BY id",
                      (referenced[-1][0],))]
    widened = Path(info.directory) / "widened.col"
    write_columnar(widened, EventColumns.from_rows(events), everything)
    os.replace(widened, info.columnar_path)


def _layered_pair():
    """(never sealed, sealed) stores over the same batches: the first
    four seals compacted into one segment, the second segment's payload
    widened to ids ``1..N``, the last two batches left in the active
    tail."""
    collector = AuditCollector(CollectorConfig(seed=11))
    record_data_leak_attack(collector)
    events = collector.events() + generate_benign_noise(num_sessions=20,
                                                        seed=31)
    events.sort(key=attrgetter("start_time", "event_id"))
    batches = [events[start:start + 30]
               for start in range(0, len(events), 30)]
    unsealed = DualStore()
    seg = DualStore()
    for index, batch in enumerate(batches):
        for store in (unsealed, seg):
            store.append_events(batch)
            store.flush_appends(seal_segment=store is seg and
                                index < len(batches) - 2)
        if index == 3:
            seg.compact(min_events=10 ** 6)
    _widen_entity_block(seg, seg.segment_view().sealed[1])
    return unsealed, seg


@pytest.fixture(scope="module")
def layered():
    unsealed, seg = _layered_pair()
    view = seg.segment_view()
    assert len(view.sealed) >= 4 and view.active_events
    yield unsealed, seg
    unsealed.close()
    seg.close()


def _block_ids(info) -> set[int]:
    segment = ColumnarSegment(info.columnar_path)
    try:
        return set(segment.column("entity.id"))
    finally:
        segment.close()


def _homes(seg: DualStore) -> dict[int, set[str]]:
    """Entity id -> names of the sealed segments whose events reference
    it, plus ``"tail"`` for the active tail."""
    view = seg.segment_view()
    homes: dict[int, set[str]] = {}
    for info in view.sealed:
        for row in seg.relational.execute(
                "SELECT subject_id, object_id FROM events "
                "WHERE id BETWEEN ? AND ?",
                (info.first_event_id, info.last_event_id)):
            for entity_id in row.values():
                homes.setdefault(entity_id, set()).add(info.name)
    for row in seg.relational.execute(
            "SELECT subject_id, object_id FROM events WHERE id >= ?",
            (view.active_first_event_id,)):
        for entity_id in row.values():
            homes.setdefault(entity_id, set()).add("tail")
    return homes


def test_the_store_has_every_kind_of_payload(layered):
    _unsealed, seg = layered
    sealed = seg.segment_view().sealed
    assert sealed[0].event_count > sealed[2].event_count      # compacted
    widened = _block_ids(sealed[1])
    assert widened == set(range(1, max(widened) + 1))
    referenced = {entity_id for entity_id, homes in _homes(seg).items()
                  if sealed[1].name in homes}
    assert referenced < widened
    kinds = {("tail" in homes, len(homes - {"tail"}) > 1)
             for homes in _homes(seg).values()}
    assert kinds >= {(True, False), (False, False), (False, True)}


# ---------------------------------------------------------------------------
# one segment, generated candidate lists: pruning verdict and scan rows
# ---------------------------------------------------------------------------

SPEC_TEXTS = [
    'proc p read || write file f return p',
    'proc p connect ip i return p',
    'proc p["%/bin/%"] write file f["%/tmp/%"] return p',
    'proc p start proc q return p',
]


def _spec(text, subject_ids, object_ids):
    resolved = resolve_query(parse_tbql(text))
    return build_pattern_spec(resolved.patterns[0], resolved,
                              subject_candidates=subject_ids,
                              object_candidates=object_ids)


def _scan(info, spec) -> list[dict]:
    segment = ColumnarSegment(info.columnar_path)
    try:
        return [dict(zip(("start_time", "event_id", "operation",
                          "end_time", "subject_id", "object_id"), row))
                for row in scan_columnar(segment, spec)]
    finally:
        segment.close()


def _check_segment(info, spec) -> None:
    """The scan with candidates equals the scan without them filtered
    by membership, and pruning drops the segment exactly when a pushed
    side has no id in its block (then the reference is empty)."""
    free = dataclasses.replace(spec, subject_candidates=None,
                               object_candidates=None)
    wanted = [row for row in _scan(info, free)
              if (spec.subject_candidates is None or
                  row["subject_id"] in spec.subject_candidates) and
              (spec.object_candidates is None or
               row["object_id"] in spec.object_candidates)]
    assert _scan(info, spec) == wanted
    block = _block_ids(info)
    survivors, pruned = prune_by_candidates(
        [info], CompiledScan(spec, (info.columnar_path,)))
    holds = all(candidates is None or block & set(candidates)
                for candidates in (spec.subject_candidates,
                                   spec.object_candidates))
    assert (survivors, pruned) == (([info], 0) if holds else ([], 1))
    if pruned:
        assert wanted == []


def test_named_candidate_lists(layered):
    """Ids in one segment, in several, only in the tail, in none, and
    of the wrong entity type, on every sealed payload."""
    _unsealed, seg = layered
    homes = _homes(seg)
    types = {row["id"]: row["type"] for row in seg.relational.execute(
        "SELECT id, type FROM entities")}
    procs = [entity_id for entity_id in sorted(homes)
             if types[entity_id] == "proc"]
    lists = {
        "one segment": [next(entity_id for entity_id in procs
                             if len(homes[entity_id]) == 1 and
                             "tail" not in homes[entity_id])],
        "several": [entity_id for entity_id in procs
                    if len(homes[entity_id] - {"tail"}) > 1][:3],
        "tail only": [entity_id for entity_id in procs
                      if homes[entity_id] == {"tail"}][:3],
        "none": [max(types) + 1, max(types) + 40],
        "wrong type": [entity_id for entity_id in sorted(types)
                       if types[entity_id] == "file"][:5],
    }
    assert all(lists.values()), lists
    for ids in lists.values():
        for text in SPEC_TEXTS:
            for info in seg.segment_view().sealed:
                _check_segment(info, _spec(text, tuple(ids), None))
                _check_segment(info, _spec(text, None, tuple(ids)))


def test_generated_candidate_lists(layered):
    _unsealed, seg = layered
    top = max(row["id"] for row in seg.relational.execute(
        "SELECT id FROM entities"))
    pool = st.one_of(st.integers(1, top), st.sampled_from((0, top + 1,
                                                           top + 99)))
    candidates = st.one_of(
        st.none(),
        st.lists(pool, min_size=1, max_size=6, unique=True).map(
            lambda ids: tuple(sorted(ids))))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.sampled_from(SPEC_TEXTS), subject_ids=candidates,
           object_ids=candidates)
    def check(text, subject_ids, object_ids):
        spec = _spec(text, subject_ids, object_ids)
        for info in seg.segment_view().sealed:
            _check_segment(info, spec)

    check()


# ---------------------------------------------------------------------------
# whole queries: generated candidate sets through the executor
# ---------------------------------------------------------------------------

#: Joins whose second step receives the first step's entities as pushed
#: candidates (the pid filter makes the first step the scheduler's
#: choice); ``{pids}`` selects the processes the candidates come from.
QUERY_TEMPLATES = [
    'proc p[{pids}] read file f as e1 proc p write file g as e2 '
    'return p, f, g',
    'proc p[{pids}] write file f as e1 proc q read file f as e2 '
    'return distinct p, q, f',
    'proc p[{pids}] read || write file f as e1 proc p connect ip i as e2 '
    'return distinct p, f, i.dstip',
    'proc p[{pids}] start proc q as e1 proc q read || write file f as e2 '
    'proc q connect ip i as e3 return distinct p, q, f, i',
]


def _answer(executor, text):
    result = executor.execute(text)
    return result.rows, result.matched_events


def test_generated_joins_match_the_unpruned_reference(layered):
    unsealed, seg = layered
    pids = sorted({row["pid"] for row in seg.relational.execute(
        "SELECT pid FROM entities WHERE type = 'proc'")})
    reference = TBQLExecutor(unsealed)
    executor = TBQLExecutor(seg)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(template=st.sampled_from(QUERY_TEMPLATES),
           chosen=st.lists(st.sampled_from(pids + [999_999]), min_size=1,
                           max_size=4, unique=True))
    def check(template, chosen):
        text = template.format(pids=" || ".join(f"pid = {pid}"
                                                for pid in chosen))
        got = _answer(executor, text)
        with candidate_pruning_disabled():
            assert _answer(executor, text) == got, text
        assert _answer(reference, text) == got, text

    try:
        check()
    finally:
        executor.close()
        reference.close()


def test_tail_only_candidates_prune_every_sealed_segment(layered):
    unsealed, seg = layered
    homes = _homes(seg)
    tail = {row["id"]: row["pid"] for row in seg.relational.execute(
        "SELECT id, pid FROM entities WHERE type = 'proc'")
        if homes.get(row["id"]) == {"tail"}}
    pid = next(iter(tail.values()))
    text = (f'proc p[pid = {pid}] read || write || start file f as e1 '
            'proc p read || write file g as e2 return p, f, g')
    result = TBQLExecutor(seg).execute(text)
    pushed = [step for step in result.plan if step.pushed_subject]
    assert pushed
    for step in pushed:
        assert step.segments_scanned == 0
        assert step.segments_pruned_by_candidates == \
            len(seg.segment_view().sealed) - step.segments_pruned - \
            step.segments_pruned_by_stats
    expected = TBQLExecutor(unsealed).execute(text)
    assert (result.rows, result.matched_events) == \
        (expected.rows, expected.matched_events)


# ---------------------------------------------------------------------------
# the early exit
# ---------------------------------------------------------------------------


def _event_columns_read(info, spec) -> list[str]:
    """Scan one fresh reader; the ``event.*`` columns the scan read."""
    segment = ColumnarSegment(info.columnar_path)
    read: list[str] = []
    column, np_column = segment.column, segment.np_column

    def spy_column(name):
        read.append(name)
        return column(name)

    def spy_np_column(name):
        read.append(name)
        return np_column(name)
    segment.column, segment.np_column = spy_column, spy_np_column
    try:
        assert scan_columnar(segment, spec) == []
    finally:
        segment.close()
    return [name for name in read if name.startswith("event.")]


def test_a_scan_that_cannot_match_reads_no_event_column(layered):
    _unsealed, seg = layered
    info = seg.segment_view().sealed[-1]
    absent = max(_block_ids(info)) + 1
    text = 'proc p read || write file f return p'
    assert _event_columns_read(info, _spec(text, (absent,), None)) == []
    assert _event_columns_read(info, _spec(text, None, (absent,))) == []
    no_entity = 'proc p["%no-such-binary%"] read file f return p'
    assert _event_columns_read(info, _spec(no_entity, None, None)) == []
    # A scan that can match still reads the event columns.
    segment = ColumnarSegment(info.columnar_path)
    try:
        assert len(scan_columnar(segment, _spec(text, None, None))) > 0
    finally:
        segment.close()


def test_entity_filter_no_entity_of_a_segment_passes(layered, tmp_path):
    """Segments holding no ``/bin/tar`` process answer 0 rows before any
    per-event work; the answer and the filter-table span counts are as
    if every segment were scanned in full."""
    unsealed, seg = layered
    snapshot = tmp_path / "snap"       # fresh paths: every memo cold
    seg.save(snapshot)
    text = 'proc p["%/bin/tar%"] read || write file f["%/%"] return p, f'
    expected = TBQLExecutor(unsealed).execute(text)
    with DualStore.open(snapshot) as store, stats_pruning_disabled():
        executor = TBQLExecutor(store)
        with trace.start_trace("query") as cold:
            first = executor.execute(text)
        with trace.start_trace("query") as warm:
            second = executor.execute(text)
        sealed = store.segment_view().sealed
    for result in (first, second):
        assert (result.rows, result.matched_events) == \
            (expected.rows, expected.matched_events)
    scans = {}
    for root, run in ((cold, "cold"), (warm, "warm")):
        scans[run] = [child["attributes"]
                      for scan in root.as_dict()["children"]
                      if scan["name"] == "scan"
                      for scatter in scan["children"]
                      for child in scatter["children"]
                      if child["name"] == "segment_scan"]
        assert len(scans[run]) == len(sealed)
    empty = [attributes for attributes in scans["cold"]
             if attributes["rows"] == 0]
    assert empty and len(empty) < len(sealed)
    # Both masks are compiled (then memoised) on every scan, early
    # exit or not.
    assert all((attributes["filter_tables_built"],
                attributes["filter_tables_hit"]) == (2, 0)
               for attributes in scans["cold"])
    assert all((attributes["filter_tables_built"],
                attributes["filter_tables_hit"]) == (0, 2)
               for attributes in scans["warm"])


def test_empty_selection_gathers_no_row(layered):
    _unsealed, seg = layered
    segment = ColumnarSegment(seg.segment_view().sealed[0].columnar_path)
    try:
        for text in ('proc p["%no-such-binary%"] read file f return p',
                     'proc p read file f["%/etc/passwd%"] '
                     'return p, f'):
            # No event starts at 2 or later and ends by 1.
            spec = dataclasses.replace(_spec(text, None, None),
                                       window=(2.0, 1.0))
            assert scan_columnar(segment, spec) == []
    finally:
        segment.close()


# ---------------------------------------------------------------------------
# a data_leak-shaped join over sixteen segments
# ---------------------------------------------------------------------------

DATA_LEAK_JOIN = (
    'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1 '
    'proc p1 write file f2["%/tmp/upload.tar%"] as e2 '
    'proc p2["%/bin/bzip2%"] read file f2 as e3 '
    'proc p2 write file f3["%/tmp/upload.tar.bz2%"] as e4 '
    'proc p3["%/usr/bin/gpg%"] read file f3 as e5 '
    'proc p3 write file f4["%/tmp/upload%"] as e6 '
    'proc p4["%/usr/bin/curl%"] read file f4 as e7 '
    'with e1 before e2, e2 before e3, e3 before e4, e4 before e5, '
    'e5 before e6, e6 before e7 '
    'return distinct p1, p2, p3, p4, f1, f2, f3, f4')


def _data_leak_batches():
    """Sixteen batches of benign noise, the data_leak attack inside the
    eighth."""
    noise = generate_benign_noise(64, 5, 1_523_400_000.0)
    step = -(-len(noise) // 16)
    batches = [noise[start:start + step]
               for start in range(0, len(noise), step)]
    middle = batches[7][len(batches[7]) // 2].start_time
    attack = CaseBuilder(start_time=middle).build(
        get_case("data_leak"), benign_sessions=0).events
    batches[7] = sorted(batches[7] + attack,
                        key=attrgetter("start_time", "event_id"))
    return batches


def _data_leak_store(seal: bool = True) -> DualStore:
    store = DualStore()
    for batch in _data_leak_batches():
        store.append_events(batch)
        store.flush_appends(seal_segment=seal)
    return store


def test_data_leak_join_scans_one_segment_per_pushed_step():
    """The attack sits inside one of sixteen sealed segments; every step
    after the first receives its one candidate id and scans only that
    segment."""
    unsealed = _data_leak_store(seal=False)
    seg = _data_leak_store()
    try:
        assert len(seg.segment_view().sealed) == 16
        result = TBQLExecutor(seg).execute(DATA_LEAK_JOIN)
        assert len(result.rows) == 1
        pushed = [step for step in result.plan
                  if step.pushed_subject or step.pushed_object]
        assert len(pushed) == 6
        for step in pushed:
            assert (step.segments_scanned,
                    step.segments_pruned_by_candidates) == (1, 15), step
        expected = TBQLExecutor(unsealed).execute(DATA_LEAK_JOIN)
        assert (result.rows, result.matched_events) == \
            (expected.rows, expected.matched_events)
        with candidate_pruning_disabled():
            unpruned = TBQLExecutor(seg).execute(DATA_LEAK_JOIN)
        assert (unpruned.rows, unpruned.matched_events) == \
            (expected.rows, expected.matched_events)
        assert all(step.segments_pruned_by_candidates == 0
                   for step in unpruned.plan)
    finally:
        unsealed.close()
        seg.close()


# ---------------------------------------------------------------------------
# a scan's setup is paid once per step
# ---------------------------------------------------------------------------


def test_setup_is_paid_once_per_step(monkeypatch):
    """On sixteen segments, every pushed step searches the entity blocks
    once (one index built for the query), every conjunct's row domain
    and memo key are computed once per step, not once per segment
    scanned, and the metric families are looked up once per registry,
    not once per step."""
    seg = _data_leak_store()
    searches, builds, domains, reprs = [], [], [], []
    search, build = colscan._BlockIndex.search, colscan._BlockIndex.__init__
    reads_event = colscan._reads_event
    comparison_repr = AttributeComparison.__repr__

    def spy_search(index, candidates):
        searches.append(len(candidates))
        return search(index, candidates)

    def spy_build(index, blocks):
        builds.append(len(blocks))
        build(index, blocks)

    def spy_reads_event(filt):
        domains.append(filt)
        return reads_event(filt)

    def spy_repr(filt):
        reprs.append(filt)
        return comparison_repr(filt)
    monkeypatch.setattr(colscan._BlockIndex, "search", spy_search)
    monkeypatch.setattr(colscan._BlockIndex, "__init__", spy_build)
    monkeypatch.setattr(colscan, "_reads_event", spy_reads_event)
    monkeypatch.setattr(AttributeComparison, "__repr__", spy_repr)
    registered = []
    register = MetricsRegistry._register

    def spy_register(registry, name, *args):
        registered.append(name)
        return register(registry, name, *args)
    monkeypatch.setattr(MetricsRegistry, "_register", spy_register)
    previous = set_registry(MetricsRegistry())
    try:
        executor = TBQLExecutor(seg)
        result = executor.execute(DATA_LEAK_JOIN)
        assert sorted(registered) == [
            "repro_tbql_filter_table_total",
            "repro_tbql_segments_pruned_fraction",
            "repro_tbql_segments_pruned_total"]
        for seen in (searches, domains, reprs):
            seen.clear()        # the second query alone, below
        assert executor.execute(DATA_LEAK_JOIN).rows == result.rows
        assert len(registered) == 3
    finally:
        set_registry(previous)
        seg.close()
    assert len(result.rows) == 1
    pushed = [step for step in result.plan
              if step.pushed_subject or step.pushed_object]
    assert len(pushed) == 6 and len(result.plan) == 7
    assert builds == [16]
    assert searches == [1] * len(pushed)
    resolved = resolve_query(parse_tbql(DATA_LEAK_JOIN))
    conjuncts = [conjunct for pattern in resolved.patterns
                 for filt in (pattern.subject.attr_filter,
                              pattern.obj.attr_filter,
                              pattern.pattern_filter)
                 for conjunct in colscan._conjuncts(filt)]
    assert all(isinstance(conjunct, AttributeComparison)
               for conjunct in conjuncts)
    assert domains == conjuncts and reprs == conjuncts
    assert len(conjuncts) == 8


#: One pass of the join-equivalence corpus over the ``sealed_3`` store
#: (fresh payloads, so every memo starts cold), recorded before the scan
#: setup moved from once per segment to once per step.
SEALED_3_TOTALS = {
    "filter_tables": {"hit": 79.0, "miss": 24.0},
    "segments_pruned": {"time": 0.0, "stats": 0.0, "candidates": 14.0},
    "fraction": (35.0, 4.666666666666666),
    "pruning_totals": {"segments_scanned": 91,
                       "segments_pruned_by_time": 0,
                       "segments_pruned_by_stats": 0,
                       "segments_pruned_by_candidates": 14},
}


def test_metric_totals_of_a_corpus_pass():
    store = build_store("sealed_3")
    previous = set_registry(MetricsRegistry())
    try:
        executor = TBQLExecutor(store)
        for text in EQUIVALENCE_CORPUS:
            executor.execute(text)
        families = parse_prometheus_text(get_registry().render())
    finally:
        set_registry(previous)
        store.close()

    def by_label(name, label):
        return {labels[label]: value
                for _sample, labels, value in families[name]["samples"]}
    fraction = {sample: value for sample, labels, value
                in families["repro_tbql_segments_pruned_fraction"][
                    "samples"] if "le" not in labels}
    assert {
        "filter_tables": by_label("repro_tbql_filter_table_total",
                                  "result"),
        "segments_pruned": by_label("repro_tbql_segments_pruned_total",
                                    "reason"),
        "fraction": (
            fraction["repro_tbql_segments_pruned_fraction_count"],
            fraction["repro_tbql_segments_pruned_fraction_sum"]),
        "pruning_totals": executor.pruning_totals,
    } == SEALED_3_TOTALS


def test_concurrent_queries_share_the_block_index():
    """Threads racing on the first pushed step may each build the index;
    every answer still equals the single-threaded one."""
    seg = _data_leak_store()
    interval = sys.getswitchinterval()
    try:
        expected = TBQLExecutor(seg).execute(DATA_LEAK_JOIN)
        colscan._block_index.cache_clear()
        executor = TBQLExecutor(seg)
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(
                lambda _: executor.execute(DATA_LEAK_JOIN), range(8),
                timeout=60))
    finally:
        sys.setswitchinterval(interval)
        seg.close()
    for answer in answers:
        assert (answer.rows, answer.matched_events) == \
            (expected.rows, expected.matched_events)
        assert [step.segments_scanned for step in answer.plan] == \
            [step.segments_scanned for step in expected.plan]
