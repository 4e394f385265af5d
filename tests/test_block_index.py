"""The store-wide candidate search equals a search of each block alone.

A pushed join step searches its candidate ids once per side over every
sealed segment's entity block (``colscan._BlockIndex``, memoised per
tuple of readers), and pruning and scans share the answer.  Here that
answer is compared, segment by segment, with
``tests.reference.scan_unoptimized.candidate_rows`` on the segment's own
block, on stores cut at generated seal points,
some of them compacted, with generated candidate sets that hold ids in
no block, ids in exactly one block and sides with no id in any block.
A seal or a ``compact()`` after an index was built must get a new one
that finds the entities only the new segment holds.
"""

from __future__ import annotations

from operator import attrgetter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import generate_benign_noise
from repro.storage import DualStore
from repro.tbql import colscan
from repro.tbql.colscan import CompiledScan, build_pattern_spec
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .reference.scan_unoptimized import candidate_rows

EVENTS = sorted(generate_benign_noise(num_sessions=12, seed=41),
                key=attrgetter("start_time", "event_id"))
LATE = sorted(generate_benign_noise(num_sessions=3, seed=43,
                                    start_time=1_523_500_000.0),
              key=attrgetter("start_time", "event_id"))

TEXT = 'proc p read || write file f return p'


def _sealed_store(cuts: list[int], compact_at: int | None) -> DualStore:
    """EVENTS sealed at each cut (and at the end); with ``compact_at``,
    the segments sealed so far are merged after that many seals."""
    store = DualStore()
    bounds = [0] + cuts + [len(EVENTS)]
    for seal, (start, end) in enumerate(zip(bounds, bounds[1:])):
        store.append_events(EVENTS[start:end])
        store.flush_appends()
        if seal == compact_at:
            store.compact(min_events=10 ** 6)
    return store


def _readers(store: DualStore) -> list:
    return colscan._segments_for(
        [info.columnar_path for info in store.segment_view().sealed])


def _scan(store: DualStore, subject_ids, object_ids) -> CompiledScan:
    resolved = resolve_query(parse_tbql(TEXT))
    spec = build_pattern_spec(resolved.patterns[0], resolved,
                              subject_candidates=subject_ids,
                              object_candidates=object_ids)
    return CompiledScan(spec, [info.columnar_path
                               for info in store.segment_view().sealed])


def _check(readers: list, scan: CompiledScan) -> None:
    """Every block's rows equal the per-block reference, for the index
    and for the scan's combined answer."""
    index = colscan._block_index(tuple(readers))
    per_side = []
    for on_subject, ids in ((True, scan.spec.subject_candidates),
                            (False, scan.spec.object_candidates)):
        if ids is None:
            continue
        found = index.search(ids)
        expected = [candidate_rows(reader, ids) for reader in readers]
        assert [found.get(where, []) for where in range(len(readers))] \
            == expected
        per_side.append((on_subject, expected))
    if not per_side:
        return      # nothing pushed: no search, and pruning keeps all
    for where, reader in enumerate(readers):
        rows = tuple((on_subject, expected[where])
                     for on_subject, expected in per_side)
        holds = all(part for _side, part in rows)
        assert scan.candidate_rows(reader.path) == (rows if holds
                                                    else None)


def _id_pool(readers: list) -> tuple[list[int], list[int], list[int]]:
    """Ids in exactly one block, in several, and in none."""
    blocks = [set(reader.column("entity.id")) for reader in readers]
    everywhere = set().union(*blocks)
    homes = {entity_id: sum(entity_id in block for block in blocks)
             for entity_id in everywhere}
    top = max(everywhere)
    return ([entity_id for entity_id, count in sorted(homes.items())
             if count == 1],
            [entity_id for entity_id, count in sorted(homes.items())
             if count > 1],
            [0, top + 1, top + 77] + sorted(
                set(range(1, top + 1)) - everywhere)[:5])


def test_index_equals_the_per_block_search():
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        cuts = sorted(data.draw(st.sets(st.integers(1, len(EVENTS) - 1),
                                        max_size=5)))
        compact_at = data.draw(st.none() | st.integers(0, len(cuts)))
        store = _sealed_store(cuts, compact_at)
        try:
            readers = _readers(store)
            assert len(readers) == (len(cuts) + 1 if compact_at is None
                                    else len(cuts) - compact_at + 1)
            one, several, absent = _id_pool(readers)
            assert one and absent
            ids = st.lists(st.sampled_from(one) | st.sampled_from(
                several or one) | st.sampled_from(absent),
                min_size=1, max_size=8, unique=True).map(
                lambda chosen: tuple(sorted(chosen)))
            empty_side = st.lists(st.sampled_from(absent), min_size=1,
                                  max_size=3, unique=True).map(
                lambda chosen: tuple(sorted(chosen)))
            sides = st.none() | ids | empty_side
            subject_ids = data.draw(sides)
            object_ids = data.draw(sides)
            _check(readers, _scan(store, subject_ids, object_ids))
        finally:
            store.close()

    check()


def test_a_seal_or_compact_gets_a_fresh_index():
    store = _sealed_store([len(EVENTS) // 3, 2 * len(EVENTS) // 3], None)
    try:
        before = _readers(store)
        old_index = colscan._block_index(tuple(before))
        known = set().union(*(reader.column("entity.id")
                              for reader in before))
        store.append_events(LATE)
        store.flush_appends()
        after = _readers(store)
        assert after[:-1] == before and len(after) == len(before) + 1
        new_only = tuple(sorted(set(after[-1].column("entity.id")) -
                                known))
        assert new_only
        scan = _scan(store, new_only, None)
        assert colscan._block_index(tuple(after)) is not old_index
        assert [scan.candidate_rows(reader.path) is not None
                for reader in after] == [False] * len(before) + [True]
        _check(after, scan)

        store.compact(min_events=10 ** 6)
        (merged,) = _readers(store)
        assert merged not in after
        scan = _scan(store, new_only, None)
        rows = scan.candidate_rows(merged.path)
        assert rows == ((True, candidate_rows(merged, new_only)),)
        assert len(rows[0][1]) == len(new_only)
        _check([merged], scan)
    finally:
        store.close()


def test_the_memo_is_bounded_and_keyed_by_readers():
    colscan._block_index.cache_clear()
    store = _sealed_store([len(EVENTS) // 2], None)
    try:
        readers = tuple(_readers(store))
        keys = [readers, readers[:1], readers[1:]]
        indexes = [colscan._block_index(key) for key in keys]
        assert len({id(index) for index in indexes}) == len(keys)
        assert colscan._block_index(readers[:1]) is indexes[1]
        limit = colscan._block_index.cache_info().maxsize
        for extra in range(limit + 2):
            colscan._block_index(readers * (extra + 2))
        assert colscan._block_index.cache_info().currsize == limit
        assert colscan._block_index(readers[:1]) is not indexes[1]
    finally:
        store.close()


def test_a_snapshot_opened_elsewhere_gets_its_own_index(tmp_path):
    """A snapshot saved to a new path opens with new readers, so with a
    new index over its own payloads; opening the same path again shares
    the cached readers, and with them the index (payloads never
    change)."""
    store = _sealed_store([len(EVENTS) // 2], None)
    try:
        old_index = colscan._block_index(tuple(_readers(store)))
        store.save(tmp_path / "snap")
    finally:
        store.close()
    with DualStore.open(tmp_path / "snap") as first:
        readers = _readers(first)
        index = colscan._block_index(tuple(readers))
        assert index is not old_index
        one, _several, absent = _id_pool(readers)
        _check(readers, _scan(first, tuple(one[:3] + absent[:1]), None))
    with DualStore.open(tmp_path / "snap") as again:
        assert _readers(again) == readers
        assert colscan._block_index(tuple(readers)) is index
