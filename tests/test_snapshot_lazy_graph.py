"""The property graph is derived from the relational store, once per
store version, and only by the readers that need it.

A reopened snapshot derives nothing on open; event-pattern TBQL,
``statistics()``, ``GET /stats``, ``save()`` and an append never derive
a graph.  Path patterns, Cypher and fuzzy search derive it exactly once
per ``data_version``, and after an append the next one reads only the
rows the append stored.  A spy on :meth:`GraphStore._derive` counts the
derivations and the rows each one added, on a monolithic and on a
segmented snapshot.
"""

from __future__ import annotations

import sys
import threading
from operator import attrgetter

import pytest

from repro.audit import AuditCollector, CollectorConfig
from repro.obs.trace import start_trace
from repro.service import QueryService, ServiceClient
from repro.storage import DualStore
from repro.storage.graph import GraphStore
from repro.storage.graph.graphdb import PropertyGraph
from repro.streaming import DetectionEngine, FlushPolicy, resume_engine
from repro.tbql.executor import TBQLExecutor
from repro.tbql.fuzzy import FuzzySearcher
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .conftest import start_server, stop_server
from .test_streaming_engine import EXFIL_RULE, _attack_batches
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


def _has_path(text: str) -> bool:
    return any(pattern.is_path
               for pattern in resolve_query(parse_tbql(text)).patterns)


PATH_TEXTS = [text for text in EQUIVALENCE_CORPUS if _has_path(text)]
EVENT_TEXTS = [text for text in EQUIVALENCE_CORPUS if not _has_path(text)]
CYPHER = "MATCH (p:proc)-[e:EVENT]->(f:file) RETURN DISTINCT p.exename"


@pytest.fixture
def derivations(monkeypatch):
    """``(nodes, edges)`` each graph derivation added, in order."""
    calls: list[tuple[int, int]] = []
    original = GraphStore._derive

    def spy(self, graph):
        added = original(self, graph)
        calls.append(added)
        return added

    monkeypatch.setattr(GraphStore, "_derive", spy)
    return calls


@pytest.fixture(scope="module", params=["monolithic", "segmented"])
def saved(request, data_leak_events, tmp_path_factory):
    """``(snapshot directory, the store saved there, graph derived)``:
    the data-leak events in each layout (three sealed segments)."""
    directory = tmp_path_factory.mktemp("lazy") / request.param
    store = DualStore(layout=request.param)
    if request.param == "monolithic":
        store.load_events(data_leak_events)
    else:
        events = sorted(data_leak_events,
                        key=attrgetter("start_time", "event_id"))
        step = len(events) // 3 + 1
        for index in range(0, len(events), step):
            store.append_events(events[index:index + step])
            store.flush_appends()
    store.save(directory)
    store.graph.graph       # derived before any test's spy counts
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


def _use_graph(store: DualStore, source: DualStore, use: str) -> None:
    if use == "path_pattern":
        for text in PATH_TEXTS:
            assert TBQLExecutor(store).execute(text).rows == \
                TBQLExecutor(source).execute(text).rows
    elif use == "cypher":
        assert store.execute_cypher(CYPHER) == source.execute_cypher(CYPHER)
    else:
        FuzzySearcher(store).search(EVENT_TEXTS[0])


def test_corpus_splits_into_event_and_path_texts():
    assert len(PATH_TEXTS) == 2 and len(EVENT_TEXTS) > 10


def test_nothing_but_a_graph_reader_derives_the_graph(snapshot, source,
                                                      derivations, tmp_path):
    """Open, every event-pattern text, ``statistics()``, ``GET /stats``,
    ``save()`` and an append on a writable reopen: zero derivations."""
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
    assert derivations == []


@pytest.mark.parametrize("use", ["path_pattern", "cypher", "fuzzy"])
def test_each_graph_use_derives_once_per_version(snapshot, source,
                                                 derivations, use):
    nodes = source.relational.count_entities()
    edges = source.relational.count_events()
    with DualStore.open(snapshot) as store:
        for _repeat in range(2):
            _use_graph(store, source, use)
    assert derivations == [(nodes, edges)]


@pytest.mark.parametrize("use", ["path_pattern", "cypher", "fuzzy"])
def test_an_append_extends_by_the_delta_rows_only(snapshot, source,
                                                  derivations, use):
    """On a writable reopen, the first graph use derives the snapshot's
    rows; after an append, the next derives exactly the appended ones
    and the graph equals one derived from scratch."""
    with DualStore.open(snapshot, read_only=False) as store:
        _use_graph(store, source, use)
        _use_graph(store, source, use)
        entities = store.relational.count_entities()
        events = store.relational.count_events()
        assert derivations == [(entities, events)]
        last = store.relational.execute(
            "SELECT MAX(end_time) AS t FROM events")[0]["t"]
        store.append_events(_late_events(last))
        store.flush_appends()
        new_entities = store.relational.count_entities() - entities
        new_events = store.relational.count_events() - events
        assert new_entities > 0 and new_events > 0
        assert len(derivations) == 1
        for _repeat in range(2):
            if use == "path_pattern":
                for text in PATH_TEXTS:
                    TBQLExecutor(store).execute(text)
            elif use == "cypher":
                assert any(row["p.exename"] == "/usr/bin/exfiltool"
                           for row in store.execute_cypher(CYPHER))
            else:
                found = FuzzySearcher(store).search(
                    'proc p["%/usr/bin/exfiltool%"] connect ip '
                    'i["%203.0.113.77%"] return p, i')
                assert found.best.node_names["p"] == "/usr/bin/exfiltool"
        assert derivations == [(entities, events),
                               (new_entities, new_events)]
        fresh = GraphStore(store.relational).graph
        extended = store.graph.graph
        assert [(n.node_id, n.label, n.properties) for n in extended.nodes()] \
            == [(n.node_id, n.label, n.properties) for n in fresh.nodes()]
        assert [(e.edge_id, e.source, e.target, e.properties)
                for e in extended.edges()] == \
            [(e.edge_id, e.source, e.target, e.properties)
             for e in fresh.edges()]


def test_a_reload_drops_the_graph(data_leak_events, derivations):
    with DualStore() as store:
        store.load_events(data_leak_events)
        before = store.graph.num_edges()
        store.load_events(data_leak_events[:5])
        after = store.relational.count_events()
        assert store.graph.num_edges() == after < before
    assert [edges for _nodes, edges in derivations] == [before, after]


def test_append_on_a_writable_reopen_derives_nothing(tmp_path,
                                                     derivations):
    """``resume_engine`` appends and evaluates its event-pattern rule
    without a graph, and the alerts equal an uninterrupted engine's."""
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
    assert derivations == []
    assert len(expected) == 1
    assert [(alert.rule_id, alert.new_event_ids, alert.rows,
             alert.matched_events) for alert in alerts] == \
        [(alert.rule_id, alert.new_event_ids, alert.rows,
          alert.matched_events) for alert in expected]


def test_racing_first_uses_derive_one_graph(snapshot, derivations):
    """Eight threads (more than cores) hit the underived graph at once."""
    with DualStore.open(snapshot) as store:
        barrier = threading.Barrier(8)
        seen: list = []

        def first_use():
            barrier.wait(timeout=30)
            seen.append(store.graph.graph)

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
        assert all(graph is seen[0] for graph in seen)
    assert len(derivations) == 1


def test_assigning_a_graph_replaces_the_derivation(snapshot, derivations):
    with DualStore.open(snapshot) as store:
        replacement = PropertyGraph()
        store.graph.graph = replacement
        assert store.graph.graph is replacement
        assert store.graph.num_nodes() == 0
    assert derivations == []


def test_open_and_graph_derive_spans(snapshot, source):
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

    derives = [span for span in walk(root) if span.name == "graph_derive"]
    assert len(derives) == 1
    assert derives[0].attributes == {
        "nodes": source.relational.count_entities(),
        "edges": source.relational.count_events()}
