"""The fuzzy search's provenance index is built once per store version.

``FuzzySearcher.search`` memoises the index beside the store, keyed by
its ``data_version``.  A repeated search on an unchanged store reuses it
— same alignments, scores and candidate counts as a cold search and as
the brute-force reference — while every change to the stored data (an
append, a reload) makes the next search see the new data.  The index
reads its edges through the store's path adjacency, never a copy.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref
from operator import attrgetter

import pytest

from repro.audit import AuditCollector, CollectorConfig
from repro.storage import DualStore
from repro.tbql.fuzzy import _INDEX_MEMO, FuzzySearcher, _forget_index
from repro.tbql.paths import adjacency
from repro.tbql.poirot import PoirotSearcher

from .reference.fuzzy_bruteforce import (BruteForceFuzzySearcher,
                                         BruteForcePoirotSearcher)

QUERY = ('proc p["%/bin/tarr%"] read file f["%/etc/passwd0%"] as evt1 '
         'proc p write file g["%/tmp/upload.tar%"] as evt2 '
         'return p, f, g')
#: Names only the late batch of :func:`_late_events` introduces.
LATE_QUERY = ('proc p["%/usr/bin/exfiltool%"] connect ip '
              'i["%203.0.113.77%"] return p, i')


def _key(result):
    return ([(sorted(a.mapping.items()), a.score) for a in result.alignments],
            result.candidate_counts)


def _late_events(after: float):
    collector = AuditCollector(CollectorConfig(seed=41,
                                               start_time=after + 10.0))
    tool = collector.spawn_process("/usr/bin/exfiltool")
    collector.read_file(tool, "/home/alice/secrets.db")
    collector.connect_ip(tool, "203.0.113.77")
    return collector.events()


@pytest.fixture
def store(data_leak_events):
    with DualStore() as fresh:
        fresh.load_events(data_leak_events)
        yield fresh


def test_second_search_reuses_index(store):
    first = FuzzySearcher(store).search(QUERY)
    second = FuzzySearcher(store).search(QUERY)
    assert not first.index_reused and second.index_reused
    assert first.preprocessing_seconds > 0
    assert second.loading_seconds == second.preprocessing_seconds == 0.0
    assert second.searching_seconds > 0
    reference = BruteForceFuzzySearcher(store).search(QUERY)
    assert _key(first) == _key(second) == _key(reference)
    assert first.alignments


def test_append_and_flush_rebuild(data_leak_events):
    events = sorted(data_leak_events, key=attrgetter("start_time",
                                                     "event_id"))
    with DualStore() as segmented:
        segmented.append_events(events)
        segmented.flush_appends()
        before = FuzzySearcher(segmented).search(LATE_QUERY)
        assert FuzzySearcher(segmented).search(LATE_QUERY).index_reused
        assert all(a.node_names.get("p") != "/usr/bin/exfiltool"
                   for a in before.alignments)
        segmented.append_events(_late_events(events[-1].start_time))
        segmented.flush_appends()
        after = FuzzySearcher(segmented).search(LATE_QUERY)
        assert not after.index_reused
        assert after.best.node_names == {"p": "/usr/bin/exfiltool",
                                         "i": "203.0.113.77"}
        assert _key(after) == \
            _key(BruteForceFuzzySearcher(segmented).search(LATE_QUERY))


def test_the_index_shares_the_path_adjacency(data_leak_events):
    """The memoised index copies no edge: its ``edges`` is the adjacency
    path patterns expand, before and after an append extends it."""
    events = sorted(data_leak_events, key=attrgetter("start_time",
                                                     "event_id"))
    with DualStore() as store:
        store.append_events(events)
        store.flush_appends()
        FuzzySearcher(store).search(QUERY)
        first = _INDEX_MEMO[store][1]
        assert first.edges is adjacency(store)
        store.append_events(_late_events(events[-1].start_time))
        store.flush_appends()
        assert not FuzzySearcher(store).search(LATE_QUERY).index_reused
        second = _INDEX_MEMO[store][1]
        assert second is not first
        assert second.edges is first.edges is adjacency(store)
        assert second.num_edges == store.relational.count_events()


def test_reload_rebuilds_even_with_equal_counts():
    # Two single-event logs: the reload keeps every count and changes only
    # the data (and data_version), so only the version can miss the memo.
    old = AuditCollector(CollectorConfig(seed=5))
    old.read_file(old.spawn_process("/bin/tar"), "/etc/passwd")
    new = _late_events(0.0)[-1:]
    with DualStore() as reloaded:
        reloaded.load_events(old.events())
        FuzzySearcher(reloaded).search(LATE_QUERY)
        edges = reloaded.relational.count_events()
        reloaded.load_events(new)
        assert reloaded.relational.count_events() == edges
        after = FuzzySearcher(reloaded).search(LATE_QUERY)
        assert not after.index_reused
        assert after.best.node_names["p"] == "/usr/bin/exfiltool"
        assert _key(after) == \
            _key(BruteForceFuzzySearcher(reloaded).search(LATE_QUERY))


def test_concurrent_searches_share_one_build(store):
    _forget_index(store)
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    results: list = [None] * threads_count

    def search(slot: int) -> None:
        barrier.wait(timeout=30)
        results[slot] = FuzzySearcher(store).search(QUERY)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(slot,))
                   for slot in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    reference = _key(BruteForceFuzzySearcher(store).search(QUERY))
    assert all(_key(result) == reference for result in results)
    # The searches shared one index and its candidate memo.
    assert all(result.alignments == results[0].alignments
               for result in results)
    assert sum(not result.index_reused for result in results) == 1


def test_memo_does_not_keep_a_dropped_store_alive(data_leak_events):
    dropped = DualStore()
    dropped.load_events(data_leak_events)
    assert FuzzySearcher(dropped).search(QUERY).alignments
    assert FuzzySearcher(dropped).search(QUERY).index_reused
    dropped.close()
    ref = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert ref() is None


def test_poirot_on_a_warm_store_stops_at_first_alignment(store):
    FuzzySearcher(store).search(QUERY)
    poirot = PoirotSearcher(store).search(QUERY)
    assert poirot.index_reused
    assert len(poirot.alignments) == 1
    assert _key(poirot) == \
        _key(BruteForcePoirotSearcher(store).search(QUERY))
