"""SQLite-backed relational store (PostgreSQL stand-in).

The store keeps one row per unique system entity and one row per (reduced)
system event, with indexes on the attributes threat-hunting filters touch.
It exposes a thin, explicit API:

* :meth:`RelationalStore.append_rows` - the one row writer, fed the rows
  :class:`repro.storage.DualStore` builds (it also bulk-loads: a batch
  into an empty ``events`` table rebuilds the indexes once at the end),
* :meth:`RelationalStore.execute` and :meth:`RelationalStore.select_tuples`
  - run a parameterized SQL query (the TBQL engine compiles its own SQL),
* :meth:`RelationalStore.entity_by_ids` - batched entity hydration,
* :meth:`RelationalStore.segment_rows` - the rows a sealed segment packs.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Any, Iterable, Sequence

from ...audit.entities import (EntityType, FileEntity, NetworkEntity,
                               ProcessEntity, SystemEntity)
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


def entity_attributes(row: Sequence[Any]) -> tuple[str, dict]:
    """The inverse of :func:`entity_row`: ``(type, attributes)`` of an
    entities row in :data:`ENTITY_COLUMNS` order, the attributes keyed
    and ordered as the entity's ``attributes()`` builds them."""
    (_id, kind, name, path, exename, pid, user, grp, cmdline, srcip,
     srcport, dstip, dstport, protocol) = row
    if kind == "file":
        return kind, {"type": kind, "name": name, "path": path,
                      "user": user, "group": grp}
    if kind == "proc":
        return kind, {"type": kind, "exename": exename, "pid": pid,
                      "user": user, "group": grp, "cmdline": cmdline}
    if kind == "ip":
        return kind, {"type": kind, "srcip": srcip, "srcport": srcport,
                      "dstip": dstip, "dstport": dstport,
                      "protocol": protocol}
    raise StorageError(f"unknown entity type in store: {kind!r}")


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
    # writing
    # ------------------------------------------------------------------
    #: Rows per multi-row ``VALUES`` statement; sized so even the
    #: 14-column entity table stays well below SQLite's default 999
    #: bound-variable limit (14 * 64 = 896).
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
        """Append pre-flattened rows to the tables; returns statements.

        The one write path.  Rows must match :data:`ENTITY_COLUMNS` /
        :data:`EVENT_COLUMNS` and carry ids continuing the store's id
        spaces (callers register them via :meth:`adopt_entity_ids`); they
        land as multi-row ``VALUES`` statements (:attr:`MULTIROW_CHUNK`
        rows each, which roughly halves the per-row stepping cost of
        plain ``executemany``) and the batch commits once.

        A batch whose first event id is 1 writes into an empty ``events``
        table — a fresh or cleared store, the bulk load — so the
        secondary indexes are dropped first and rebuilt once over the
        final tables in the same transaction, which is substantially
        cheaper than maintaining every index row by row.  Any later
        batch is a delta, small next to the stored tables, and the
        engine maintains the indexes incrementally.
        """
        self._assert_writable()
        rebuild_indexes = bool(event_rows) and event_rows[0][0] == 1
        with self._lock:
            cursor = self._connection.cursor()
            try:
                if rebuild_indexes:
                    if not self._connection.in_transaction:
                        cursor.execute("BEGIN")
                    for index_name in INDEX_NAMES:
                        cursor.execute(f"DROP INDEX IF EXISTS {index_name}")
                batches = 0
                for table, columns, rows in (
                        ("entities", ENTITY_COLUMNS, entity_rows),
                        ("events", EVENT_COLUMNS, event_rows)):
                    batches += self._insert_multirow(cursor, table, columns,
                                                     rows)
                if rebuild_indexes:
                    for ddl in INDEX_DDL:
                        cursor.execute(ddl)
            except BaseException:
                # Never leave the indexes dropped behind a failed batch.
                self._connection.rollback()
                raise
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

        Used by the dual store's write path, which dedups entities once
        and hands the resulting mapping over after every
        :meth:`append_rows` batch so the bookkeeping stays the store's
        own (:meth:`id_state`, a writable reopen).  Callers that already track
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

    def select_tuples(self, sql: str, params: Sequence[Any] = ()
                      ) -> list[Any]:
        """:meth:`execute`, with each row a plain tuple in SELECT order."""
        return self._fetch(sql, params, None)

    def _fetch(self, sql: str, params: Sequence[Any],
               row_factory: Any = sqlite3.Row) -> list:
        def run(database: sqlite3.Connection) -> list:
            cursor = database.cursor()
            cursor.row_factory = row_factory
            return cursor.execute(sql, tuple(params)).fetchall()
        connection = self._reader_connection()
        try:
            if connection is None:
                with self._lock:
                    return run(self._connection)
            return run(connection)
        except sqlite3.Error as exc:
            raise StorageError(f"SQL execution failed: {exc}\n{sql}") from exc

    def count_entities(self) -> int:
        return self.execute("SELECT COUNT(*) AS n FROM entities")[0]["n"]

    def count_events(self) -> int:
        return self.execute("SELECT COUNT(*) AS n FROM events")[0]["n"]

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


__all__ = ["RelationalStore"]
