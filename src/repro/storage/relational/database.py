"""SQLite-backed relational store (PostgreSQL stand-in).

The store keeps one row per unique system entity and one row per (reduced)
system event, with indexes on the attributes threat-hunting filters touch.
It exposes a thin, explicit API:

* :meth:`RelationalStore.load_events` - bulk-load an event stream,
* :meth:`RelationalStore.execute` - run a parameterized SQL query,
* :meth:`RelationalStore.query_events` - convenience filtered event lookup
  used by the TBQL execution engine.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterable, Sequence

from ...audit.entities import (EntityType, FileEntity, NetworkEntity,
                               ProcessEntity, SystemEntity, SystemEvent)
from ...errors import StorageError
from .schema import (ENTITY_COLUMNS, EVENT_COLUMNS, INDEX_DDL, INDEX_NAMES,
                     all_ddl)
from .sqlgen import in_list


def entity_row(entity_id: int, entity: SystemEntity) -> tuple:
    """Flatten a system entity into a row for the entities table.

    Column order matches :data:`ENTITY_COLUMNS`:
    ``(id, type, name, path, exename, pid, user, grp, cmdline, srcip,
    srcport, dstip, dstport, protocol)``.  The per-type tuples are spelled
    out directly — this runs once per unique entity on the ingestion path.
    """
    if isinstance(entity, FileEntity):
        return (entity_id, "file", entity.name, entity.path, None, None,
                entity.user, entity.group, None, None, None, None, None,
                None)
    if isinstance(entity, ProcessEntity):
        exename = entity.exename
        return (entity_id, "proc", exename, None, exename, entity.pid,
                entity.user, entity.group, entity.cmdline or exename, None,
                None, None, None, None)
    if isinstance(entity, NetworkEntity):
        dstip = entity.dstip
        return (entity_id, "ip", dstip, None, None, None, None, None, None,
                entity.srcip, entity.srcport, dstip, entity.dstport,
                entity.protocol)
    raise StorageError(f"unsupported entity class: {type(entity)!r}")


class RelationalStore:
    """Relational storage backend for system audit logging data.

    Concurrency model: one *primary* connection owns every write (all writes
    happen under an internal lock), while read queries issued from other
    threads run on lazily opened per-thread **read-only** connections when
    the store is file-backed — the arrangement the query service relies on
    to execute TBQL concurrently over one shared store.  In-memory stores
    have no file for readers to attach to, so their reads share the primary
    connection under the same lock.  On-disk stores are created in WAL
    journal mode so concurrent readers never block (and are never blocked
    by) the writer.
    """

    def __init__(self, path: str | Path | None = None,
                 read_only: bool = False) -> None:
        """Open (or create) the store.

        Args:
            path: database file path; ``None`` uses an in-memory database.
            read_only: open an existing on-disk database for queries only;
                every mutating method raises :class:`StorageError`.
        """
        self._database = str(path) if path is not None else ":memory:"
        self._is_memory = path is None
        self._read_only = read_only
        self._lock = threading.RLock()
        self._owner_thread = threading.get_ident()
        self._thread_local = threading.local()
        self._reader_connections: list[sqlite3.Connection] = []
        self._readers_guard = threading.Lock()
        self._closed = False
        if read_only:
            if self._is_memory:
                raise StorageError(
                    "read-only mode requires an on-disk database file")
            try:
                self._connection = sqlite3.connect(
                    self._read_only_uri(), uri=True, check_same_thread=False)
            except sqlite3.Error as exc:
                raise StorageError(
                    f"cannot open {self._database} read-only: {exc}") from exc
        else:
            self._connection = sqlite3.connect(self._database,
                                               check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        self._entity_ids: dict[tuple, int] = {}
        self._next_entity_id = 1
        self._next_event_id = 1
        if not read_only:
            if not self._is_memory:
                # WAL lets later read-only reader connections proceed
                # without blocking on (or being blocked by) the writer.
                self._connection.execute("PRAGMA journal_mode=WAL")
            self._create_schema()

    # ------------------------------------------------------------------
    # schema / lifecycle
    # ------------------------------------------------------------------
    @property
    def read_only(self) -> bool:
        """True when the store was opened for queries only."""
        return self._read_only

    @property
    def database_path(self) -> str:
        """The backing database file path (``":memory:"`` if unbacked)."""
        return self._database

    def _read_only_uri(self) -> str:
        return Path(self._database).resolve().as_uri() + "?mode=ro"

    def _assert_writable(self) -> None:
        if self._read_only:
            raise StorageError(
                "store is read-only (opened from a snapshot)")

    def _reader_connection(self) -> sqlite3.Connection | None:
        """Per-thread read-only connection, or None to use the primary.

        Only file-backed stores can hand out extra connections; reads from
        the owning thread stay on the primary connection so they observe
        rows the current load pass has not committed yet.
        """
        if self._is_memory:
            return None
        connection = getattr(self._thread_local, "connection", None)
        if connection is not None:
            return connection
        if threading.get_ident() == self._owner_thread:
            return None
        connection = sqlite3.connect(self._read_only_uri(), uri=True,
                                     check_same_thread=False)
        connection.row_factory = sqlite3.Row
        self._thread_local.connection = connection
        with self._readers_guard:
            self._reader_connections.append(connection)
        return connection

    def _create_schema(self) -> None:
        with self._lock:
            cursor = self._connection.cursor()
            for statement in all_ddl():
                cursor.execute(statement)
            self._connection.commit()

    def save_to(self, path: str | Path) -> None:
        """Persist the current contents into an on-disk SQLite file.

        Uses the SQLite backup API (a consistent point-in-time copy even of
        an in-memory database) and leaves the target in WAL journal mode so
        a later read-only open serves concurrent readers.  Any existing
        file at ``path`` is replaced.
        """
        target_path = Path(path)
        for stale in (target_path, target_path.with_name(target_path.name +
                                                         "-wal"),
                      target_path.with_name(target_path.name + "-shm")):
            if stale.exists():
                stale.unlink()
        target = sqlite3.connect(str(target_path))
        try:
            with self._lock:
                self._connection.commit()
                self._connection.backup(target)
            target.execute("PRAGMA journal_mode=WAL")
            target.commit()
        except sqlite3.Error as exc:
            raise StorageError(
                f"snapshot save to {target_path} failed: {exc}") from exc
        finally:
            target.close()

    def segment_rows(self, first_event_id: int, last_event_id: int,
                     with_events: bool = True
                     ) -> tuple[list[tuple], list[tuple]]:
        """The rows a segment payload holds: ``(event rows, entity rows)``.

        Event rows (:data:`EVENT_COLUMNS` order, ascending id) are those
        with ids in ``[first_event_id, last_event_id]`` — left empty with
        ``with_events=False``, for a caller that already holds them —
        and entity rows (:data:`ENTITY_COLUMNS` order, ascending id) are
        exactly the ones those events reference, by primary key.
        """
        bounds = (first_event_id, last_event_id)
        events = self._fetch(
            f"SELECT {', '.join(EVENT_COLUMNS)} FROM events "
            "WHERE id BETWEEN ? AND ? ORDER BY id", bounds) \
            if with_events else []
        entities = self._fetch(
            f"SELECT {', '.join(ENTITY_COLUMNS)} FROM entities WHERE id IN ("
            "SELECT subject_id FROM events WHERE id BETWEEN ? AND ? UNION "
            "SELECT object_id FROM events WHERE id BETWEEN ? AND ?) "
            "ORDER BY id", bounds + bounds)
        return list(map(tuple, events)), list(map(tuple, entities))

    def close(self) -> None:
        """Close the primary and every per-thread reader connection."""
        if self._closed:
            return
        self._closed = True
        with self._readers_guard:
            readers = list(self._reader_connections)
            self._reader_connections.clear()
        for connection in readers:
            connection.close()
        self._connection.close()

    def __enter__(self) -> "RelationalStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear(self) -> None:
        """Remove all stored entities and events."""
        self._assert_writable()
        with self._lock:
            cursor = self._connection.cursor()
            cursor.execute("DELETE FROM events")
            cursor.execute("DELETE FROM entities")
            self._connection.commit()
        self._entity_ids.clear()
        self._next_entity_id = 1
        self._next_event_id = 1

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def entity_id_for(self, entity: SystemEntity) -> int:
        """Return the stored id for ``entity``, registering it if new."""
        self._assert_writable()
        key = entity.unique_key
        existing = self._entity_ids.get(key)
        if existing is not None:
            return existing
        entity_id = self._next_entity_id
        self._next_entity_id += 1
        self._entity_ids[key] = entity_id
        placeholders = ", ".join("?" for _ in ENTITY_COLUMNS)
        with self._lock:
            self._connection.execute(
                f"INSERT INTO entities ({', '.join(ENTITY_COLUMNS)}) "
                f"VALUES ({placeholders})",
                entity_row(entity_id, entity))
        return entity_id

    #: Rows per ``executemany`` call on the bulk-load path.  Bounds the
    #: per-call row buffer without giving up the amortized statement reuse.
    INSERT_CHUNK_SIZE = 10_000

    def load_events(self, events: Iterable[SystemEvent]) -> int:
        """Bulk-load events (and their entities); returns events inserted.

        New entity rows are collected and inserted with chunked
        ``executemany`` alongside the event rows (one statement per
        :attr:`INSERT_CHUNK_SIZE` rows) instead of one ``INSERT`` per new
        entity; see :meth:`load_events_rowwise` for the retained row-at-a-time
        reference path.
        """
        self._assert_writable()
        entity_ids = self._entity_ids
        entity_rows: list[tuple] = []
        event_rows: list[tuple] = []
        next_entity_id = self._next_entity_id
        event_id = self._next_event_id
        for event in events:
            endpoint_ids = []
            for entity in (event.subject, event.obj):
                key = entity.unique_key
                entity_id = entity_ids.get(key)
                if entity_id is None:
                    entity_id = next_entity_id
                    next_entity_id += 1
                    entity_ids[key] = entity_id
                    entity_rows.append(entity_row(entity_id, entity))
                endpoint_ids.append(entity_id)
            event_rows.append((event_id, endpoint_ids[0], endpoint_ids[1],
                               event.operation.value, event.category.value,
                               event.start_time, event.end_time,
                               event.duration, event.data_amount,
                               event.failure_code, event.host))
            event_id += 1
        self._next_entity_id = next_entity_id
        self._next_event_id = event_id
        self.insert_rows(entity_rows, event_rows)
        return len(event_rows)

    def insert_rows(self, entity_rows: Sequence[tuple],
                    event_rows: Sequence[tuple]) -> int:
        """Insert pre-flattened entity/event rows; returns batches issued.

        Rows must match :data:`ENTITY_COLUMNS` / :data:`EVENT_COLUMNS` and
        carry ids consistent with the store's id bookkeeping (callers that
        assign ids themselves register them via :meth:`adopt_entity_ids`).
        Each table is written with chunked ``executemany`` and the whole load
        commits once.
        """
        self._assert_writable()
        batches = 0
        chunk_size = self.INSERT_CHUNK_SIZE
        with self._lock:
            for table, columns, rows in (
                    ("entities", ENTITY_COLUMNS, entity_rows),
                    ("events", EVENT_COLUMNS, event_rows)):
                if not rows:
                    continue
                statement = (f"INSERT INTO {table} ({', '.join(columns)}) "
                             f"VALUES ({', '.join('?' for _ in columns)})")
                for start in range(0, len(rows), chunk_size):
                    self._connection.executemany(
                        statement, rows[start:start + chunk_size])
                    batches += 1
            self._connection.commit()
        return batches

    def reload_rows(self, entity_rows: Sequence[tuple],
                    event_rows: Sequence[tuple]) -> int:
        """Replace the stored tables with pre-flattened rows; returns batches.

        The replace-semantics bulk load: secondary indexes are dropped up
        front so both the ``DELETE`` of the old rows and the inserts run
        index-free, then the indexes are rebuilt once over the final table —
        substantially cheaper than maintaining every index row-by-row.  Rows
        are written with multi-row ``VALUES`` statements
        (:attr:`MULTIROW_CHUNK` rows per statement, staying under SQLite's
        bound-variable limit), which roughly halves the per-row statement
        stepping cost of plain ``executemany``.  Id bookkeeping is *not*
        touched; callers follow up with :meth:`adopt_entity_ids`.
        """
        self._assert_writable()
        with self._lock:
            cursor = self._connection.cursor()
            for index_name in INDEX_NAMES:
                cursor.execute(f"DROP INDEX IF EXISTS {index_name}")
            cursor.execute("DELETE FROM events")
            cursor.execute("DELETE FROM entities")
            batches = 0
            for table, columns, rows in (
                    ("entities", ENTITY_COLUMNS, entity_rows),
                    ("events", EVENT_COLUMNS, event_rows)):
                batches += self._insert_multirow(cursor, table, columns,
                                                 rows)
            for ddl in INDEX_DDL:
                cursor.execute(ddl)
            self._connection.commit()
        return batches

    #: Rows per multi-row ``VALUES`` statement on the replace-load path;
    #: sized so even the 14-column entity table stays well below SQLite's
    #: default 999 bound-variable limit (14 * 64 = 896).
    MULTIROW_CHUNK = 64

    def _insert_multirow(self, cursor, table: str, columns: Sequence[str],
                         rows: Sequence[tuple]) -> int:
        """Insert rows as chunked multi-row VALUES statements."""
        if not rows:
            return 0
        chunk = self.MULTIROW_CHUNK
        row_sql = f"({', '.join('?' for _ in columns)})"
        prefix = f"INSERT INTO {table} ({', '.join(columns)}) VALUES "
        statement = prefix + ", ".join([row_sql] * chunk)
        batches = 0
        full = len(rows) // chunk
        for index in range(full):
            block = rows[index * chunk:(index + 1) * chunk]
            cursor.execute(statement,
                           [value for row in block for value in row])
            batches += 1
        remainder = rows[full * chunk:]
        if remainder:
            cursor.execute(
                prefix + ", ".join([row_sql] * len(remainder)),
                [value for row in remainder for value in row])
            batches += 1
        return batches

    def append_rows(self, entity_rows: Sequence[tuple],
                    event_rows: Sequence[tuple]) -> int:
        """Append pre-flattened rows to the live tables; returns batches.

        The incremental-ingestion write path: unlike :meth:`reload_rows`
        nothing is deleted and the secondary indexes stay in place — the
        engine maintains them incrementally as the multi-row ``VALUES``
        statements land, which is the right trade-off for deltas that are
        small next to the stored tables.  Rows must carry ids continuing
        the store's id spaces (callers register them via
        :meth:`adopt_entity_ids`).  The whole batch commits once.
        """
        self._assert_writable()
        with self._lock:
            cursor = self._connection.cursor()
            batches = 0
            for table, columns, rows in (
                    ("entities", ENTITY_COLUMNS, entity_rows),
                    ("events", EVENT_COLUMNS, event_rows)):
                batches += self._insert_multirow(cursor, table, columns,
                                                 rows)
            self._connection.commit()
        return batches

    def id_state(self) -> tuple[dict[tuple, int], int, int]:
        """Current id bookkeeping: (unique_key map, next entity/event id).

        The mapping is the live dictionary (not a copy); the dual store's
        append path shares it so both sides assign consistent ids.
        """
        return self._entity_ids, self._next_entity_id, self._next_event_id

    def rebuild_id_state(self) -> None:
        """Reconstruct the id bookkeeping from the stored rows.

        Needed when a store is (re)attached to an existing database — a
        writable snapshot reopen — where the in-memory ``unique_key -> id``
        map was never built.  Unique keys follow Section III-A exactly as
        :func:`entity_row` flattened them.
        """
        self._assert_writable()
        mapping: dict[tuple, int] = {}
        max_entity_id = 0
        for row in self.execute("SELECT * FROM entities"):
            kind = row["type"]
            if kind == "file":
                key: tuple = (EntityType.FILE, row["path"])
            elif kind == "proc":
                key = (EntityType.PROCESS, row["exename"], row["pid"])
            elif kind == "ip":
                key = (EntityType.NETWORK, row["srcip"], row["srcport"],
                       row["dstip"], row["dstport"], row["protocol"])
            else:
                raise StorageError(f"unknown entity type in store: {kind!r}")
            mapping[key] = row["id"]
            if row["id"] > max_entity_id:
                max_entity_id = row["id"]
        self._entity_ids = mapping
        self._next_entity_id = max_entity_id + 1
        max_event = self.execute(
            "SELECT MAX(id) AS n FROM events")[0]["n"]
        self._next_event_id = (max_event or 0) + 1

    @classmethod
    def from_snapshot(cls, snapshot_path: str | Path,
                      path: str | Path | None = None) -> "RelationalStore":
        """Restore a snapshot database into a fresh *writable* store.

        The snapshot file is copied via the SQLite backup API into a new
        store at ``path`` (in memory when ``None``), so the snapshot itself
        is never written to; the id bookkeeping is rebuilt from the copied
        rows so incremental loads continue where the snapshot left off.
        """
        source_path = Path(snapshot_path)
        store = cls(path)
        try:
            source = sqlite3.connect(
                source_path.resolve().as_uri() + "?mode=ro", uri=True)
        except sqlite3.Error as exc:
            raise StorageError(
                f"cannot open snapshot {source_path}: {exc}") from exc
        try:
            with store._lock:
                source.backup(store._connection)
        except sqlite3.Error as exc:
            store.close()
            raise StorageError(
                f"snapshot restore from {source_path} failed: "
                f"{exc}") from exc
        finally:
            source.close()
        if not store._is_memory:
            # The backup copies the source's journal mode; re-assert WAL so
            # later reader connections never block the writer.
            store._connection.execute("PRAGMA journal_mode=WAL")
            store._connection.commit()
        store.rebuild_id_state()
        return store

    def adopt_entity_ids(self, entity_ids: dict[tuple, int],
                         next_event_id: int,
                         next_entity_id: int | None = None) -> None:
        """Adopt an externally-built ``unique_key -> id`` assignment.

        Used by the dual store's loaders, which dedup entities once for
        both backends and hand the resulting mapping over so later
        incremental :meth:`load_events` / :meth:`entity_id_for` calls keep
        allocating ids after the adopted ones.  Callers that already track
        the next free entity id pass it via ``next_entity_id`` — the
        streaming append path adopts once per flush, and rescanning the
        whole (ever-growing) mapping there would be O(total entities) per
        batch.
        """
        self._assert_writable()
        self._entity_ids = entity_ids
        self._next_entity_id = next_entity_id if next_entity_id is not None \
            else max(entity_ids.values(), default=0) + 1
        self._next_event_id = next_event_id

    def load_events_rowwise(self, events: Iterable[SystemEvent]) -> int:
        """Row-at-a-time reference loader (the pre-batching seed path).

        Kept as the baseline the ingestion benchmark compares against: one
        ``INSERT`` statement per new entity via :meth:`entity_id_for`, one
        ``executemany`` for the event rows.
        """
        self._assert_writable()
        rows = []
        for event in events:
            subject_id = self.entity_id_for(event.subject)
            object_id = self.entity_id_for(event.obj)
            event_id = self._next_event_id
            self._next_event_id += 1
            rows.append((event_id, subject_id, object_id,
                         event.operation.value, event.category.value,
                         event.start_time, event.end_time, event.duration,
                         event.data_amount, event.failure_code, event.host))
        with self._lock:
            if rows:
                placeholders = ", ".join("?" for _ in EVENT_COLUMNS)
                self._connection.executemany(
                    f"INSERT INTO events ({', '.join(EVENT_COLUMNS)}) "
                    f"VALUES ({placeholders})", rows)
            self._connection.commit()
        return len(rows)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> list[dict]:
        """Execute a SQL query and return rows as plain dictionaries.

        Safe to call from any thread: file-backed stores give each reading
        thread its own read-only connection, in-memory stores serialize on
        the primary connection's lock.

        Raises:
            StorageError: when the SQL statement is invalid.
        """
        return [dict(row) for row in self._fetch(sql, params)]

    def _fetch(self, sql: str, params: Sequence[Any]) -> list[sqlite3.Row]:
        connection = self._reader_connection()
        try:
            if connection is None:
                with self._lock:
                    return self._connection.execute(
                        sql, tuple(params)).fetchall()
            return connection.execute(sql, tuple(params)).fetchall()
        except sqlite3.Error as exc:
            raise StorageError(f"SQL execution failed: {exc}\n{sql}") from exc

    def explain(self, sql: str, params: Sequence[Any] = ()) -> list[str]:
        """Return the engine's query plan lines (useful for diagnostics)."""
        rows = self.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        return [str(row.get("detail", row)) for row in rows]

    def count_entities(self) -> int:
        return self.execute("SELECT COUNT(*) AS n FROM entities")[0]["n"]

    def count_events(self) -> int:
        return self.execute("SELECT COUNT(*) AS n FROM events")[0]["n"]

    def entity_by_id(self, entity_id: int) -> dict | None:
        rows = self.execute("SELECT * FROM entities WHERE id = ?",
                            (entity_id,))
        return rows[0] if rows else None

    #: Maximum ids per batched ``IN`` list; stays well below SQLite's bound
    #: variable limit (999 in older builds).
    BATCH_CHUNK_SIZE = 900

    def entity_by_ids(self, entity_ids: Iterable[int]
                      ) -> tuple[dict[int, dict], int]:
        """Fetch many entity rows in one query (batched hydration).

        Returns ``(rows_by_id, statements)``: a mapping ``id -> row``
        containing only the ids that exist (duplicates in the input are
        collapsed), plus the number of SQL statements issued.  Inputs larger
        than :attr:`BATCH_CHUNK_SIZE` are split into multiple ``IN`` lists,
        so one logical batch never exceeds the engine's bound-variable
        limit; the statement count reports that chunking to callers (the
        execution plan shows it per pattern).
        """
        unique_ids = sorted(set(entity_ids))
        rows_by_id: dict[int, dict] = {}
        statements = 0
        for start in range(0, len(unique_ids), self.BATCH_CHUNK_SIZE):
            chunk = unique_ids[start:start + self.BATCH_CHUNK_SIZE]
            params: list[Any] = []
            clause = in_list("id", chunk, False, params)
            rows = self.execute(
                f"SELECT * FROM entities WHERE {clause}", params)
            statements += 1
            for row in rows:
                rows_by_id[row["id"]] = row
        return rows_by_id, statements

    def entities_matching(self, entity_type: EntityType | None = None,
                          where_sql: str = "", params: Sequence[Any] = ()
                          ) -> list[dict]:
        """Return entity rows matching an optional type and WHERE fragment."""
        clauses = []
        bound: list[Any] = []
        if entity_type is not None:
            clauses.append("type = ?")
            bound.append(entity_type.value)
        if where_sql:
            clauses.append(f"({where_sql})")
            bound.extend(params)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return self.execute(f"SELECT * FROM entities{where}", bound)

    def query_events(self, where_sql: str = "", params: Sequence[Any] = (),
                     limit: int | None = None) -> list[dict]:
        """Return joined event rows with subject/object attributes inlined.

        The result rows expose event columns plus ``subject_*`` and
        ``object_*`` prefixed entity columns; this is the shape the TBQL
        execution engine consumes.
        """
        sql = (
            "SELECT e.id AS event_id, e.operation, e.category, e.start_time, "
            "e.end_time, e.duration, e.data_amount, e.failure_code, e.host, "
            "s.id AS subject_id, s.type AS subject_type, s.name AS "
            "subject_name, s.path AS subject_path, s.exename AS "
            "subject_exename, s.pid AS subject_pid, s.user AS subject_user, "
            "s.grp AS subject_group, s.cmdline AS subject_cmdline, "
            "o.id AS object_id, o.type AS object_type, o.name AS object_name, "
            "o.path AS object_path, o.exename AS object_exename, o.pid AS "
            "object_pid, o.user AS object_user, o.grp AS object_group, "
            "o.cmdline AS object_cmdline, o.srcip AS object_srcip, o.srcport "
            "AS object_srcport, o.dstip AS object_dstip, o.dstport AS "
            "object_dstport, o.protocol AS object_protocol "
            "FROM events e "
            "JOIN entities s ON e.subject_id = s.id "
            "JOIN entities o ON e.object_id = o.id"
        )
        if where_sql:
            sql += f" WHERE {where_sql}"
        sql += " ORDER BY e.start_time, e.id"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return self.execute(sql, params)

    def all_events(self) -> list[dict]:
        """Return every stored event row with inlined entity attributes."""
        return self.query_events()


__all__ = ["RelationalStore"]
