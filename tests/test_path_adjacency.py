"""The path adjacency is built from the relational store, once per store
version, and only by the readers that need it.

A reopened snapshot builds nothing on open; event-pattern TBQL,
``statistics()``, ``GET /stats``, ``save()`` and an append never build
it.  Path patterns and fuzzy search build it once per ``data_version``;
after an append the next one reads only the rows the append stored, and
after ``load_events`` replaced the data the next one reads them all.  A
spy on :meth:`Adjacency.extend` counts the builds and the rows each one
added, on a snapshot of a store loaded in one go (sealed whole by the
save) and on one of three sealed segments.  Seals, compactions and a
reopen leave path answers and both edge maps unchanged, and the fuzzy
search's index, the entity rows over the adjacency, equals the one a
property graph of the same rows gave.
"""

from __future__ import annotations

import sys
import threading
from operator import attrgetter

import pytest

from repro.audit import AuditCollector, CollectorConfig, \
    generate_benign_noise
from repro.benchmark.cypher import PropertyGraph, graph_from_store
from repro.obs.trace import start_trace
from repro.service import QueryService, ServiceClient
from repro.storage import DualStore
from repro.streaming import DetectionEngine, FlushPolicy, resume_engine
from repro.tbql.executor import TBQLExecutor
from repro.tbql.fuzzy import FuzzySearcher, ProvenanceIndex
from repro.tbql.parser import parse_tbql
from repro.tbql.paths import Adjacency, adjacency
from repro.tbql.semantics import resolve_query

from .conftest import start_server, stop_server
from .test_streaming_engine import EXFIL_RULE, _attack_batches
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


def _has_path(text: str) -> bool:
    return any(pattern.is_path
               for pattern in resolve_query(parse_tbql(text)).patterns)


PATH_TEXTS = [text for text in EQUIVALENCE_CORPUS if _has_path(text)]
EVENT_TEXTS = [text for text in EQUIVALENCE_CORPUS if not _has_path(text)]
#: Path texts that match many paths, of one and of several hops.
WIDE_PATH_TEXTS = [
    'proc p ~>(1~3)[read] file f return p, f',
    'proc p ->[write] file f["%upload%"] return distinct p, f',
    'proc p ~> ip i return distinct p, i',
]
#: A path only the late events (``_late_events``) complete.
LATE_PATH = ('proc p["%exfiltool%"] ~>(1~2)[connect] ip i '
             'return distinct p, i.dstip')


@pytest.fixture
def builds(monkeypatch):
    """The edges each adjacency build or extension added, in order."""
    calls: list[int] = []
    original = Adjacency.extend

    def spy(self, store):
        added = original(self, store)
        calls.append(added)
        return added

    monkeypatch.setattr(Adjacency, "extend", spy)
    return calls


@pytest.fixture(scope="module", params=["loaded", "three_segments"])
def saved(request, data_leak_events, tmp_path_factory):
    """``(snapshot directory, the store saved there, adjacency built)``:
    the data-leak events loaded in one go, or appended and sealed in
    three segments."""
    directory = tmp_path_factory.mktemp("lazy") / request.param
    store = DualStore()
    if request.param == "loaded":
        store.load_events(data_leak_events)
    else:
        events = sorted(data_leak_events,
                        key=attrgetter("start_time", "event_id"))
        step = len(events) // 3 + 1
        for index in range(0, len(events), step):
            store.append_events(events[index:index + step])
            store.flush_appends()
    store.save(directory)
    adjacency(store)        # built before any test's spy counts
    yield directory, store
    store.close()


@pytest.fixture
def snapshot(saved):
    return saved[0]


@pytest.fixture
def source(saved):
    return saved[1]


def _late_events(after: float):
    """A batch with new entities, later than the data-leak attack."""
    collector = AuditCollector(CollectorConfig(seed=41,
                                               start_time=after + 10.0))
    tool = collector.spawn_process("/usr/bin/exfiltool")
    collector.read_file(tool, "/home/alice/secrets.db")
    collector.connect_ip(tool, "203.0.113.77")
    return collector.events()


def _use_paths(store: DualStore, source: DualStore, use: str) -> None:
    if use == "path_pattern":
        for text in PATH_TEXTS:
            assert TBQLExecutor(store).execute(text).rows == \
                TBQLExecutor(source).execute(text).rows
    else:
        FuzzySearcher(store).search(EVENT_TEXTS[0])


def _assert_fresh(store: DualStore) -> None:
    """The adjacency the store's path queries read, however it was
    extended, equals one built from its rows in one go."""
    fresh = Adjacency(store.data_generation)
    fresh.extend(store)
    assert adjacency(store).out_edges == fresh.out_edges
    assert adjacency(store).in_edges == fresh.in_edges
    assert adjacency(store).high_water == fresh.high_water == \
        store.relational.count_events()


def _path_answers(store: DualStore) -> list:
    executor = TBQLExecutor(store)
    return [(result.rows, result.matched_events)
            for result in map(executor.execute,
                              PATH_TEXTS + WIDE_PATH_TEXTS)]


def test_corpus_splits_into_event_and_path_texts():
    assert len(PATH_TEXTS) == 2 and len(EVENT_TEXTS) > 10


def test_nothing_but_a_path_reader_builds_the_adjacency(snapshot, source,
                                                        builds, tmp_path):
    """Open, every event-pattern text, ``statistics()``, ``GET /stats``,
    ``save()`` and an append on a writable reopen: zero builds."""
    with DualStore.open(snapshot) as store:
        executor = TBQLExecutor(store)
        reference = TBQLExecutor(source)
        for text in EVENT_TEXTS:
            assert executor.execute(text).rows == \
                reference.execute(text).rows, text
        store.segment_stats()
        assert store.statistics()["relational_events"] == \
            source.relational.count_events()
        server, thread = start_server(QueryService(store))
        try:
            host, port = server.server_address[:2]
            with ServiceClient(f"http://{host}:{port}") as client:
                assert client.stats()["store"]["relational_entities"] == \
                    source.relational.count_entities()
        finally:
            stop_server(server, thread)
        store.save(tmp_path / "resaved")
        executor.close()
    with DualStore.open(snapshot, read_only=False) as writable:
        last = writable.relational.execute(
            "SELECT MAX(end_time) AS t FROM events")[0]["t"]
        assert writable.append_events(_late_events(last)) >= 0
        writable.flush_appends()
        writable.save(tmp_path / "appended")
    assert builds == []


@pytest.mark.parametrize("use", ["path_pattern", "fuzzy"])
def test_each_use_builds_once_per_version(snapshot, source, builds, use):
    with DualStore.open(snapshot) as store:
        for _repeat in range(2):
            _use_paths(store, source, use)
    assert builds == [source.relational.count_events()]


@pytest.mark.parametrize("use", ["path_pattern", "fuzzy"])
def test_an_append_extends_by_the_delta_rows_only(snapshot, source,
                                                  builds, use):
    """On a writable reopen, the first use builds from the snapshot's
    rows; after an append and a tail flush, the next one reads exactly
    the appended rows, a path query sees the new edges, and the
    adjacency equals one built from scratch."""
    with DualStore.open(snapshot, read_only=False) as store:
        _use_paths(store, source, use)
        _use_paths(store, source, use)
        events = store.relational.count_events()
        assert builds == [events]
        assert TBQLExecutor(store).execute(LATE_PATH).rows == []
        last = store.relational.execute(
            "SELECT MAX(end_time) AS t FROM events")[0]["t"]
        store.append_events(_late_events(last))
        store.flush_appends(seal_segment=False)
        new_events = store.relational.count_events() - events
        assert new_events > 0
        assert len(builds) == 1
        for _repeat in range(2):
            if use == "path_pattern":
                assert TBQLExecutor(store).execute(LATE_PATH).rows == [
                    {"p.exename": "/usr/bin/exfiltool",
                     "i.dstip": "203.0.113.77"}]
            else:
                found = FuzzySearcher(store).search(
                    'proc p["%/usr/bin/exfiltool%"] connect ip '
                    'i["%203.0.113.77%"] return p, i')
                assert found.best.node_names["p"] == "/usr/bin/exfiltool"
        assert builds == [events, new_events]
        _assert_fresh(store)


def test_a_reload_rebuilds_the_adjacency(data_leak_events, builds):
    with DualStore() as store, DualStore() as small:
        store.load_events(data_leak_events)
        before = store.relational.count_events()
        assert TBQLExecutor(store).execute(PATH_TEXTS[0]).rows
        store.load_events(data_leak_events[:5])
        small.load_events(data_leak_events[:5])
        after = store.relational.count_events()
        assert _path_answers(store) == _path_answers(small)
        _assert_fresh(store)
        assert max(edge[0] for edges in adjacency(store).out_edges.values()
                   for edge in edges) == after < before
    # The store before and after the reload, the small store, the fresh
    # build of _assert_fresh.
    assert builds == [before, after, after, after]


def test_seals_compaction_and_a_reopen_leave_path_answers(data_leak_events,
                                                          tmp_path):
    events = sorted(data_leak_events,
                    key=attrgetter("start_time", "event_id"))
    third = len(events) // 3
    with DualStore() as store:
        for start in range(0, len(events), third):
            store.append_events(events[start:start + third])
            store.flush_appends(seal_segment=False)
        expected = _path_answers(store)
        built = adjacency(store)
        assert not store.segment_view().sealed
        store.flush_appends()
        assert store.segment_view().sealed
        assert _path_answers(store) == expected
        _assert_fresh(store)
        store.compact(min_events=len(events))
        assert _path_answers(store) == expected
        _assert_fresh(store)
        assert adjacency(store) is built
        store.save(tmp_path / "snap")
    for read_only in (True, False):
        with DualStore.open(tmp_path / "snap", read_only=read_only) as again:
            assert _path_answers(again) == expected
            assert adjacency(again) == built


def test_append_on_a_writable_reopen_builds_nothing(tmp_path, builds):
    """``resume_engine`` appends and evaluates its event-pattern rule
    without the adjacency, and the alerts equal an uninterrupted
    engine's."""
    _collector, first, second = _attack_batches()
    policy = FlushPolicy(max_events=1, max_seconds=0)
    reference = DetectionEngine(DualStore(), policy=policy)
    reference.add_rule(EXFIL_RULE, rule_id="exfil")
    expected = [alert for batch in (first, second) for alert in
                reference.process_batch(batch).alerts +
                reference.finalize().alerts]

    engine = DetectionEngine(DualStore(), policy=policy)
    engine.add_rule(EXFIL_RULE, rule_id="exfil")
    alerts = engine.process_batch(first).alerts + engine.finalize().alerts
    engine.checkpoint(tmp_path / "ckpt")
    engine.store.close()
    resumed = resume_engine(tmp_path / "ckpt", policy=policy)
    try:
        alerts += resumed.process_batch(second).alerts + \
            resumed.finalize().alerts
    finally:
        resumed.store.close()
        reference.store.close()
    assert builds == []
    assert len(expected) == 1
    assert [(alert.rule_id, alert.new_event_ids, alert.rows,
             alert.matched_events) for alert in alerts] == \
        [(alert.rule_id, alert.new_event_ids, alert.rows,
          alert.matched_events) for alert in expected]


def test_racing_first_uses_build_one_adjacency(snapshot, builds):
    """Eight threads (more than cores) hit the unbuilt adjacency at once."""
    with DualStore.open(snapshot) as store:
        barrier = threading.Barrier(8)
        seen: list = []

        def first_use():
            barrier.wait(timeout=30)
            seen.append(adjacency(store))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=first_use)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert all(built is seen[0] for built in seen)
    assert len(builds) == 1


def test_open_and_path_adjacency_spans(snapshot, source):
    with start_trace("cold") as root:
        with DualStore.open(snapshot) as store:
            TBQLExecutor(store).execute(PATH_TEXTS[0])
            store.statistics()
    assert root is not None
    names = [child.name for child in root.children]
    assert names[0] == "snapshot_open"
    assert [child.name for child in root.children[0].children] == \
        ["manifest", "relational", "segments"]

    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    builds = [span for span in walk(root) if span.name == "path_adjacency"]
    assert len(builds) == 1
    assert builds[0].attributes == {
        "edges": source.relational.count_events()}


def provenance_index_from_graph(graph: PropertyGraph) -> ProvenanceIndex:
    """The fuzzy search's index built straight from a property graph —
    the construction ``ProvenanceIndex.from_store`` replaced."""
    index = ProvenanceIndex()
    for node in graph.nodes():
        properties = node.properties
        index.node_names[node.node_id] = (
            properties.get("dstip") or properties.get("path") or
            properties.get("exename") or properties.get("name") or "")
        index.node_types[node.node_id] = properties.get("type", "")
    for edge in graph.edges():
        properties = edge.properties
        index.edges.add([(edge.edge_id, edge.source, edge.target,
                          properties.get("operation", ""),
                          properties.get("start_time", 0.0),
                          properties.get("end_time", 0.0))])
    return index


def _generated_store() -> DualStore:
    """Benign noise appended in two flushes, the adjacency read between
    them, so the index reads an extended adjacency."""
    events = sorted(generate_benign_noise(30, seed=19),
                    key=attrgetter("start_time", "event_id"))
    store = DualStore()
    half = len(events) // 2
    store.append_events(events[:half])
    store.flush_appends()
    adjacency(store)
    store.append_events(events[half:])
    store.flush_appends(seal_segment=False)
    return store


@pytest.mark.parametrize("which", ["data_leak", "generated"])
def test_row_built_fuzzy_index_equals_the_graph_built_one(data_leak_store,
                                                          which):
    store = data_leak_store if which == "data_leak" else _generated_store()
    try:
        index = ProvenanceIndex.from_store(store, adjacency(store))
        assert index.num_edges == store.relational.count_events() > 0
        assert index == provenance_index_from_graph(graph_from_store(store))
    finally:
        if store is not data_leak_store:
            store.close()
