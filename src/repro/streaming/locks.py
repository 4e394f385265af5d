"""Single-writer / multi-reader lock for the live detection engine.

The streaming subsystem mutates a store other threads are querying: one
ingest thread appends batches while HTTP request handlers (and the rule
evaluator) read.  SQLite's WAL mode already isolates each relational
read, but one query reads more than one statement's snapshot: the sealed
segment list, the unsealed tail's rows and the in-memory indexes built
from the rows and memoised per ``data_version`` (the path adjacency, the
fuzzy provenance index, hydrated entities).  A seal or an append between
those reads would let one answer mix two store versions — so the engine
serializes writers against *all* readers with this lock while letting
any number of readers proceed together.

Writer preference: once a writer is waiting, new readers queue behind it,
so a steady query load cannot starve ingestion.  The lock is not
reentrant — neither side may acquire it again while holding it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class ReadWriteLock:
    """A shared/exclusive lock with writer preference."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._condition:
            self._writer_active = False
            self._condition.notify_all()

    @contextmanager
    def read_lock(self) -> Iterator[None]:
        """Hold the lock in shared (reader) mode for the ``with`` body."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_lock(self) -> Iterator[None]:
        """Hold the lock in exclusive (writer) mode for the ``with`` body."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


__all__ = ["ReadWriteLock"]
