"""The pre-batching ingest loader, frozen as a differential oracle.

``DualStore.load_events`` once had a second load path: batch reduction,
one ``INSERT`` per new entity plus one ``executemany`` for the events on
the relational side, and one ``add_node`` / ``add_edge`` call per item on
the graph side.  The shipped write path must store exactly what it
stored — same rows, same ids — and the ingestion benchmark times the two
against each other.  Stores hold no graph any more, so
:class:`RowwiseDualStore` loads the rows only;
:func:`graph_from_events_itemwise` stays as the oracle of
``repro.benchmark.cypher``'s bulk ``graph_from_events``.  The loader
bodies are the old code verbatim, with ``self`` renamed where a method
became a function.  Test-only — nothing under ``src/`` imports
this module.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.audit.entities import SystemEntity, SystemEvent
from repro.audit.reduction import reduce_events
from repro.errors import StorageError
from repro.storage import DualStore, IngestStats
from repro.benchmark.cypher import PropertyGraph
from repro.storage.relational import RelationalStore
from repro.storage.relational.database import entity_row
from repro.storage.relational.schema import ENTITY_COLUMNS, EVENT_COLUMNS


def entity_id_for(store: RelationalStore, entity: SystemEntity) -> int:
    """Return the stored id for ``entity``, registering it if new."""
    store._assert_writable()
    key = entity.unique_key
    existing = store._entity_ids.get(key)
    if existing is not None:
        return existing
    entity_id = store._next_entity_id
    store._next_entity_id += 1
    store._entity_ids[key] = entity_id
    placeholders = ", ".join("?" for _ in ENTITY_COLUMNS)
    with store._lock:
        store._connection.execute(
            f"INSERT INTO entities ({', '.join(ENTITY_COLUMNS)}) "
            f"VALUES ({placeholders})",
            entity_row(entity_id, entity))
    return entity_id


def load_events_rowwise(store: RelationalStore,
                        events: Iterable[SystemEvent]) -> int:
    """Row-at-a-time reference loader (the pre-batching seed path).

    One ``INSERT`` statement per new entity via :func:`entity_id_for`,
    one ``executemany`` for the event rows.
    """
    store._assert_writable()
    rows = []
    for event in events:
        subject_id = entity_id_for(store, event.subject)
        object_id = entity_id_for(store, event.obj)
        event_id = store._next_event_id
        store._next_event_id += 1
        rows.append((event_id, subject_id, object_id,
                     event.operation.value, event.category.value,
                     event.start_time, event.end_time, event.duration,
                     event.data_amount, event.failure_code, event.host))
    with store._lock:
        if rows:
            placeholders = ", ".join("?" for _ in EVENT_COLUMNS)
            store._connection.executemany(
                f"INSERT INTO events ({', '.join(EVENT_COLUMNS)}) "
                f"VALUES ({placeholders})", rows)
        store._connection.commit()
    return len(rows)


def graph_from_events_itemwise(events: Iterable[SystemEvent]
                               ) -> PropertyGraph:
    """Reference graph construction: one add_node/add_edge call per item."""
    graph = PropertyGraph()
    node_ids: dict[tuple, int] = {}
    for event in events:
        endpoints = []
        for entity in (event.subject, event.obj):
            key = entity.unique_key
            node_id = node_ids.get(key)
            if node_id is None:
                node_id = graph.add_node(entity.entity_type.value,
                                         entity.attributes())
                node_ids[key] = node_id
            endpoints.append(node_id)
        graph.add_edge(endpoints[0], endpoints[1], "EVENT",
                       event.attributes())
    return graph


class RowwiseDualStore(DualStore):
    """A :class:`DualStore` whose ``load_events`` runs the old loader.

    Around the loader it keeps the shipped ``load_events``' contract:
    the read-only check, sealed segments dropped, ids restarting at 1,
    metrics, one ``data_version`` and ``data_generation`` move, and the
    loaded history as the tail (without a column buffer: the rows never
    flow through the columnar builder, so a seal reads them back).
    After a load, ``stored_events`` is the oracle's own list of the
    events it stored, in id order.
    """

    def load_events(self, events: Iterable[SystemEvent]) -> IngestStats:
        if self.read_only:
            raise StorageError("store is read-only (opened from a snapshot)")
        self._drop_segments()
        self._stream = None
        reduce_start = time.perf_counter()
        event_list = list(events)
        input_count = len(event_list)
        if self.reduce:
            event_list, stats = reduce_events(event_list,
                                              self.merge_threshold)
            self.last_reduction = stats
        reduce_seconds = time.perf_counter() - reduce_start

        relational_start = time.perf_counter()
        self.relational.clear()
        load_events_rowwise(self.relational, event_list)
        relational_seconds = time.perf_counter() - relational_start

        self._restore_tail()
        self.stored_events = event_list
        entities = self.relational.count_entities()
        # One INSERT per entity plus one executemany for the events.
        statements = entities + (1 if event_list else 0)
        ingest = IngestStats(
            len(event_list), input_events=input_count, entities=entities,
            relational_batches=statements,
            seconds={"reduce": reduce_seconds, "build": 0.0,
                     "relational": relational_seconds}).observe()
        self.last_ingest = ingest
        self.data_version += 1
        self.data_generation += 1
        return ingest


__all__ = ["RowwiseDualStore", "entity_id_for",
           "graph_from_events_itemwise", "load_events_rowwise"]
