"""Node candidates are scored once per needle and store version.

``ProvenanceIndex.candidates_for`` keeps its answer per ``(entity type,
needle, threshold)`` on the index, which is itself memoised per store and
``data_version``: a needle repeated on one store version is served from
the memo, and any change to the stored data starts from a cold one.  The
memo's answers equal a fresh index's and the brute-force reference's, no
caller can corrupt them, and the memo stays within
``CANDIDATE_MEMO_PAIRS``.
"""

from __future__ import annotations

import random
import sys
import threading
from operator import attrgetter

import pytest

from repro.audit import generate_benign_noise
from repro.benchmark import ALL_CASES
from repro.benchmark.case import CaseBuilder
from repro.hunting import ThreatRaptor
from repro.obs.trace import start_trace
from repro.storage import DualStore
from repro.tbql import fuzzy
from repro.tbql.fuzzy import (FuzzySearcher, ProvenanceIndex, QueryGraph,
                              QueryNode, _forget_index)
from repro.tbql.parser import parse_tbql
from repro.tbql.paths import adjacency
from repro.tbql.semantics import resolve_query

from .reference.fuzzy_bruteforce import candidates_for_bruteforce
from .test_fuzzy_answers import perturb
from .test_fuzzy_index_memo import LATE_QUERY, QUERY, _late_events

#: Benign sessions beside the 18 attack traces; the brute force scores
#: every needle against every node, so the store stays small.
SESSIONS = 10


@pytest.fixture(scope="module")
def case_store():
    noise = generate_benign_noise(SESSIONS, 12)
    first, last = noise[0].start_time, noise[-1].end_time
    events = list(noise)
    for position, case in enumerate(ALL_CASES):
        offset = first + (last - first) * (position + 0.5) / len(ALL_CASES)
        events += CaseBuilder(start_time=offset).build(
            case, benign_sessions=0).events
    events.sort(key=attrgetter("start_time", "event_id"))
    store = DualStore()
    store.load_events(events)
    yield store
    store.close()


def _case_queries(store: DualStore) -> list[str]:
    """The 18 synthesized queries and one perturbed variant of each."""
    raptor = ThreatRaptor(store=store)
    rng = random.Random(12)
    texts: list[str] = []
    for case in ALL_CASES:
        text = raptor.synthesize(raptor.extract(case.description)).text
        texts += [text, perturb(text, rng)]
    return texts


def _nodes(text: str) -> list[QueryNode]:
    return QueryGraph.from_resolved(resolve_query(parse_tbql(text))).nodes


def _tiny_index(names: list[str]) -> ProvenanceIndex:
    """One ``proc`` reading each of ``names`` (file nodes)."""
    index = ProvenanceIndex()
    for event_id, name in enumerate(names, start=1):
        index.add_event({"id": event_id, "subject_id": 0,
                         "subject_type": "proc",
                         "subject_exename": "/bin/reader",
                         "object_id": event_id, "object_type": "file",
                         "object_path": name, "operation": "read"})
    return index


def _pairs_held(index: ProvenanceIndex) -> int:
    return sum(map(len, index._candidate_memo.values()))


def test_memoised_candidates_equal_fresh_and_bruteforce(case_store):
    index = ProvenanceIndex.from_store(case_store, adjacency(case_store)
                                       ).build_name_index()
    texts = _case_queries(case_store)
    assert len(set(texts)) > len(ALL_CASES)   # the perturbations differ
    checked = 0
    for text in texts:
        # A fresh candidate memo over the same (read-only) name index.
        fresh = ProvenanceIndex(node_names=index.node_names,
                                node_types=index.node_types,
                                edges=index.edges)
        fresh._name_index = index._name_index
        for node in _nodes(text):
            first = index.candidates_for(node)
            second, reused = index.lookup_candidates(node)
            assert reused
            assert first == second == fresh.candidates_for(node) == \
                candidates_for_bruteforce(index, node)
            checked += 1
    assert checked >= 2 * len(ALL_CASES)


def test_a_caller_cannot_corrupt_the_memo():
    index = _tiny_index(["/etc/passwd", "/etc/passwd1", "/tmp/x"])
    node = QueryNode("f", "file", "/etc/passwd")
    first = index.candidates_for(node)
    expected = list(first)
    assert len(expected) == 2
    first.clear()
    second = index.candidates_for(node)
    assert second == expected
    second.append((99, 1.0))
    second.reverse()
    assert index.candidates_for(node) == expected


def test_memo_stays_within_its_bound(monkeypatch):
    bound = 12
    monkeypatch.setattr(fuzzy, "CANDIDATE_MEMO_PAIRS", bound)
    rng = random.Random(3)
    names = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(16)) for _ in range(20)]
    index = _tiny_index(names)
    # Each needle is one name, unlike the others: one candidate, which
    # costs 2 in the memo.
    needles = [QueryNode("f", "file", name) for name in names]
    answers = [index.candidates_for(node) for node in needles]
    assert all(len(answer) == 1 for answer in answers)
    assert _pairs_held(index) <= bound
    assert index._memo_cost <= bound
    kept = [key[1] for key in index._candidate_memo]
    # The newest entries survive, the oldest went first.
    assert kept == names[-(bound // 2):]
    for node, answer in zip(needles, answers):
        assert index.candidates_for(node) == answer
    # An answer longer than the bound is returned but not kept.
    held = dict(index._candidate_memo)
    answer, reused = index.lookup_candidates(needles[0], threshold=0.0)
    assert len(answer) == len(names) > bound and not reused
    assert answer == candidates_for_bruteforce(index, needles[0], 0.0)
    assert index._candidate_memo == held
    assert not index.lookup_candidates(needles[0], threshold=0.0)[1]


def test_concurrent_inserts_and_evictions_keep_the_count(monkeypatch):
    """Threads inserting into and evicting from one small memo leave its
    pair count equal to what it holds, within the bound."""
    bound = 40
    monkeypatch.setattr(fuzzy, "CANDIDATE_MEMO_PAIRS", bound)
    rng = random.Random(5)
    names = ["".join(rng.choice("abcdefghij") for _ in range(6))
             for _ in range(60)]
    index = _tiny_index(names)
    needles = [QueryNode("f", "file", name) for name in names]
    expected = [candidates_for_bruteforce(index, node) for node in needles]
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    wrong: list = []

    def hammer(slot: int) -> None:
        barrier.wait(timeout=30)
        order = list(range(len(needles)))
        random.Random(slot).shuffle(order)
        for position in order * 3:
            if index.candidates_for(needles[position]) != \
                    expected[position]:
                wrong.append(position)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(slot,))
                   for slot in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    assert not wrong
    memo = index._candidate_memo
    assert index._memo_cost == sum(len(found) + 1
                                    for found in memo.values()) <= bound
    assert _pairs_held(index) <= bound


def test_add_event_clears_the_memo():
    index = _tiny_index(["/etc/passwd"])
    node = QueryNode("f", "file", "/etc/passwd")
    assert len(index.candidates_for(node)) == 1
    assert index.lookup_candidates(node)[1]
    index.add_event({"id": 9, "subject_id": 0, "subject_type": "proc",
                     "object_id": 9, "object_type": "file",
                     "object_path": "/etc/passwd", "operation": "read"})
    assert not index._candidate_memo and index._memo_cost == 0
    answer, reused = index.lookup_candidates(node)
    assert not reused and len(answer) == 2


def test_the_search_span_counts_reuse(data_leak_events):
    with DualStore() as store:
        store.load_events(data_leak_events)
        spans = []
        for _ in range(2):
            with start_trace("hunt") as root:
                result = FuzzySearcher(store).search(QUERY)
            (span,) = root.children
            assert span.name == "fuzzy_search"
            spans.append((span.attributes, result))
        (_, first), (_, second) = spans
        nodes = len(first.candidate_counts)
        for attributes, result in spans:
            assert attributes["nodes"] == nodes == 3
            assert attributes["candidates"] == \
                sum(result.candidate_counts.values())
            assert attributes["alignments"] == len(result.alignments)
            assert attributes["truncated"] is result.truncated is False
            assert attributes["candidates_reused"] == \
                result.candidates_reused
        assert first.candidates_reused == 0
        assert second.candidates_reused == nodes
        assert second.alignments == first.alignments
        # A dropped index drops its candidates with it.
        _forget_index(store)
        assert FuzzySearcher(store).search(QUERY).candidates_reused == 0


def test_an_append_starts_a_cold_memo(data_leak_events):
    events = sorted(data_leak_events, key=attrgetter("start_time",
                                                     "event_id"))
    with DualStore() as store:
        store.append_events(events)
        store.flush_appends()
        FuzzySearcher(store).search(LATE_QUERY)
        assert FuzzySearcher(store).search(LATE_QUERY).candidates_reused \
            == 2
        store.append_events(_late_events(events[-1].start_time))
        store.flush_appends()
        after = FuzzySearcher(store).search(LATE_QUERY)
        assert not after.index_reused and after.candidates_reused == 0
        assert after.best.node_names["p"] == "/usr/bin/exfiltool"
