"""A reopened snapshot parses its graph on first use, exactly once.

``DualStore.open`` checks ``graph.bin``'s container header and leaves the
payload pending; only the accesses that read the graph — path patterns,
Cypher, fuzzy search, ``statistics()``, ``save()``, an append — load it.
A spy on :meth:`PropertyGraph.load` counts the loads exactly, on a
monolithic and on a segmented snapshot.
"""

from __future__ import annotations

import sys
import threading
from operator import attrgetter
from pathlib import Path

import pytest

from repro.obs.trace import start_trace
from repro.storage import DualStore
from repro.storage.graph.graphdb import PropertyGraph
from repro.streaming import DetectionEngine, FlushPolicy, resume_engine
from repro.tbql.executor import TBQLExecutor
from repro.tbql.fuzzy import FuzzySearcher
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .test_streaming_engine import EXFIL_RULE, _attack_batches
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


def _has_path(text: str) -> bool:
    return any(pattern.is_path
               for pattern in resolve_query(parse_tbql(text)).patterns)


PATH_TEXTS = [text for text in EQUIVALENCE_CORPUS if _has_path(text)]
EVENT_TEXTS = [text for text in EQUIVALENCE_CORPUS if not _has_path(text)]


@pytest.fixture
def load_calls(monkeypatch):
    """Paths :meth:`PropertyGraph.load` was called with, in order."""
    calls: list[Path] = []
    original = PropertyGraph.load.__func__

    def spy(cls, path):
        calls.append(Path(path))
        return original(cls, path)

    monkeypatch.setattr(PropertyGraph, "load", classmethod(spy))
    return calls


@pytest.fixture(scope="module", params=["monolithic", "segmented"])
def saved(request, data_leak_events, tmp_path_factory):
    """``(snapshot directory, the store saved there)``: the data-leak
    events in each layout (three sealed segments)."""
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
    yield directory, store
    store.close()


@pytest.fixture
def snapshot(saved):
    return saved[0]


@pytest.fixture
def source(saved):
    return saved[1]


def test_corpus_splits_into_event_and_path_texts():
    assert len(PATH_TEXTS) == 2 and len(EVENT_TEXTS) > 10


def test_open_and_event_patterns_never_load_the_graph(snapshot, source,
                                                      load_calls):
    with DualStore.open(snapshot) as store:
        executor = TBQLExecutor(store)
        reference = TBQLExecutor(source)
        for text in EVENT_TEXTS:
            assert executor.execute(text).rows == \
                reference.execute(text).rows, text
        store.segment_stats()
        executor.close()
    assert load_calls == []


@pytest.mark.parametrize("use", [
    "path_pattern", "cypher", "fuzzy", "statistics", "save"])
def test_each_graph_use_loads_once(snapshot, source, load_calls,
                                   tmp_path, use):
    with DualStore.open(snapshot) as store:
        for _repeat in range(2):
            if use == "path_pattern":
                for text in PATH_TEXTS:
                    assert TBQLExecutor(store).execute(text).rows == \
                        TBQLExecutor(source).execute(text).rows
            elif use == "cypher":
                assert store.execute_cypher(
                    "MATCH (p:proc)-[e:EVENT]->(f:file) "
                    "RETURN DISTINCT p.exename") == \
                    source.execute_cypher(
                        "MATCH (p:proc)-[e:EVENT]->(f:file) "
                        "RETURN DISTINCT p.exename")
            elif use == "fuzzy":
                FuzzySearcher(store).search(EVENT_TEXTS[0])
            elif use == "statistics":
                stats = store.statistics()
                for key, value in source.statistics().items():
                    assert stats.get(key, value) == value
            else:
                store.save(tmp_path / "resaved")
                assert (tmp_path / "resaved" / "graph.bin").read_bytes() \
                    == (snapshot / "graph.bin").read_bytes()
    assert load_calls == [snapshot / "graph.bin"]


def test_append_on_a_writable_reopen_loads_once(tmp_path, load_calls):
    """``resume_engine`` leaves the graph pending; its first append loads
    it, and the alerts equal an uninterrupted engine's."""
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
        assert load_calls == []
        alerts += resumed.process_batch(second).alerts + \
            resumed.finalize().alerts
        assert len(load_calls) == 1
    finally:
        resumed.store.close()
        reference.store.close()
    assert len(expected) == 1
    assert [(alert.rule_id, alert.new_event_ids, alert.rows,
             alert.matched_events) for alert in alerts] == \
        [(alert.rule_id, alert.new_event_ids, alert.rows,
          alert.matched_events) for alert in expected]


def test_racing_first_uses_load_one_graph(snapshot, load_calls):
    """Eight threads (more than cores) hit the pending graph at once."""
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
    assert len(load_calls) == 1


def test_assigning_a_graph_replaces_the_pending_load(snapshot, load_calls):
    with DualStore.open(snapshot) as store:
        replacement = PropertyGraph()
        store.graph.graph = replacement
        assert store.graph.graph is replacement
        assert store.graph.num_nodes() == 0
    assert load_calls == []


def test_open_and_graph_load_spans(snapshot):
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

    loads = [span for span in walk(root) if span.name == "graph_load"]
    assert len(loads) == 1
    attributes = loads[0].attributes
    # The payload after the 18-byte container header.
    assert attributes["bytes"] == \
        (snapshot / "graph.bin").stat().st_size - 18
    assert attributes["nodes"] > 0 and attributes["edges"] > 0
