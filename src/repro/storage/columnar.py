"""Struct-packed columnar segment payloads (``events.col``).

A sealed segment's data is one file, a column-major copy of the
segment's event rows: one contiguous machine-typed array per column
(int64 ids and numeric fields, float64 timestamps, uint32
interned-string codes), the entity rows those events join against, and
a shared interned string table.  The file is read back via :mod:`mmap`,
so a scan reads the OS page cache instead of materializing Python row
tuples, and every column is exposed zero-copy through
:class:`memoryview` casts and :mod:`numpy` views.

Layout::

    magic "RPRCOL01" | u32 header_len | JSON header | pad to 8 |
    section payloads (each padded to 8 bytes)

The JSON header records the counts, the writer's byte order, and a
section table ``name -> [offset, nbytes, typecode]`` whose offsets are
relative to the start of the 8-aligned data area, so readers never
depend on the header's own size.

The entity block holds exactly the entity rows the segment's events
reference, so a payload's size follows the segment, not the store's
history.  :func:`write_columnar` is the only writer: a seal hands it the
event rows it already holds as :class:`EventColumns` — the column-major
output of the fused ingestion pass — and every other caller the same
rows read back from the combined store (:meth:`EventColumns.from_rows`).
"""

from __future__ import annotations

import json
import mmap
import struct
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from ..errors import StorageError
from .relational.schema import ENTITY_COLUMNS

#: File magic of an ``events.col`` payload.
COLUMNAR_MAGIC = b"RPRCOL01"
#: Version of the columnar payload layout (independent of the snapshot
#: format version; bump when sections or typecodes change).
COLUMNAR_FORMAT_VERSION = 1
#: Sentinel for NULL in int64 entity columns (pid/srcport/dstport are
#: nullable INTEGER columns in the relational schema).
NULL_INT = -(2 ** 63)

#: Entity string columns, interned as uint32 codes (0 == NULL).
ENTITY_STRING_COLUMNS = ("type", "name", "path", "exename", "user", "grp",
                         "cmdline", "srcip", "dstip", "protocol")
#: Entity nullable-integer columns, stored as int64 with NULL_INT.
ENTITY_INT_COLUMNS = ("pid", "srcport", "dstport")
#: Event string columns (NOT NULL in the schema, still code 0 == NULL).
EVENT_STRING_COLUMNS = ("operation", "category", "host")
#: Bytes of memoised filter masks kept per open segment (least
#: recently used goes first); a mask is one byte per entity or event
#: row, so the bound holds however many entities a segment carries.
FILTER_MEMO_BYTES = 2 << 20

_ENTITY_INDEX = {name: index for index, name in enumerate(ENTITY_COLUMNS)}

_NP_DTYPE = {"q": np.int64, "d": np.float64, "I": np.uint32, "Q": np.uint64}

_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                             "abcdefghijklmnopqrstuvwxyz")


def ascii_lower(text: str) -> str:
    """ASCII-only lowercasing — SQLite's LIKE case-folding rule.

    ``str.lower`` folds the full Unicode range, which would disagree
    with SQLite (and thus with the row-at-a-time reference scan) on
    non-ASCII strings; only A-Z may fold.
    """
    return text.translate(_ASCII_LOWER)


def _align8(offset: int) -> int:
    return offset + (-offset) % 8


def _prefix_successor(prefix: str) -> Optional[str]:
    """Smallest string greater than every string with ``prefix``.

    Increments the last code point, dropping trailing U+10FFFF first;
    ``None`` means no upper bound exists (empty or all-max prefix).
    """
    while prefix:
        last = ord(prefix[-1])
        if last < 0x10FFFF:
            return prefix[:-1] + chr(last + 1)
        prefix = prefix[:-1]
    return None


class EventColumns:
    """Column-major event rows: the vectorized row builder's output.

    One Python list per relational event column, appended in id order.
    :meth:`row_tuples` zips the columns back into
    ``EVENT_COLUMNS``-ordered tuples for the SQLite insert path; the
    lists feed :func:`write_columnar` as-is when a segment seals, so
    the columnar payload costs one array pack per column instead of a
    second pass over exported rows.
    """

    __slots__ = ("ids", "subject_ids", "object_ids", "operations",
                 "categories", "start_times", "end_times", "durations",
                 "data_amounts", "failure_codes", "hosts")

    def __init__(self) -> None:
        self.ids: list[int] = []
        self.subject_ids: list[int] = []
        self.object_ids: list[int] = []
        self.operations: list[str] = []
        self.categories: list[str] = []
        self.start_times: list[float] = []
        self.end_times: list[float] = []
        self.durations: list[float] = []
        self.data_amounts: list[int] = []
        self.failure_codes: list[int] = []
        self.hosts: list[str] = []

    def append(self, event_id: int, subject_id: int, object_id: int,
               operation: str, category: str, start_time: float,
               end_time: float, duration: float, data_amount: int,
               failure_code: int, host: str) -> None:
        """Append one event row (``EVENT_COLUMNS`` order)."""
        self.ids.append(event_id)
        self.subject_ids.append(subject_id)
        self.object_ids.append(object_id)
        self.operations.append(operation)
        self.categories.append(category)
        self.start_times.append(start_time)
        self.end_times.append(end_time)
        self.durations.append(duration)
        self.data_amounts.append(data_amount)
        self.failure_codes.append(failure_code)
        self.hosts.append(host)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "EventColumns":
        """Columns of ``EVENT_COLUMNS``-ordered rows (what
        :meth:`row_tuples` gives back)."""
        columns = cls()
        for name, values in zip(cls.__slots__, zip(*rows)):
            getattr(columns, name).extend(values)
        return columns

    def extend(self, other: "EventColumns") -> None:
        """Column-wise concatenation (C-speed ``list.extend`` per column)."""
        self.ids.extend(other.ids)
        self.subject_ids.extend(other.subject_ids)
        self.object_ids.extend(other.object_ids)
        self.operations.extend(other.operations)
        self.categories.extend(other.categories)
        self.start_times.extend(other.start_times)
        self.end_times.extend(other.end_times)
        self.durations.extend(other.durations)
        self.data_amounts.extend(other.data_amounts)
        self.failure_codes.extend(other.failure_codes)
        self.hosts.extend(other.hosts)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def first_id(self) -> Optional[int]:
        """Id of the first buffered event (``None`` when empty)."""
        return self.ids[0] if self.ids else None

    def time_pairs(self) -> Iterable[tuple[float, float]]:
        """``(start_time, end_time)`` pairs, for bounds tracking."""
        return zip(self.start_times, self.end_times)

    def row_tuples(self) -> list[tuple]:
        """Rows as ``EVENT_COLUMNS``-ordered tuples (the insert shape)."""
        return list(zip(self.ids, self.subject_ids, self.object_ids,
                        self.operations, self.categories, self.start_times,
                        self.end_times, self.durations, self.data_amounts,
                        self.failure_codes, self.hosts))


class _StringTable:
    """Interner assigning codes from 1 (0 is reserved for NULL)."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self.strings: list[str] = []

    def code(self, value: Optional[str]) -> int:
        if value is None:
            return 0
        code = self._codes.get(value)
        if code is None:
            self.strings.append(value)
            code = self._codes[value] = len(self.strings)
        return code

    @classmethod
    def sorted_from(cls, values: Iterable[Optional[str]]) -> "_StringTable":
        """Table whose codes follow ``(ascii_lower, raw)`` string order.

        A sorted table lets readers binary-search a contiguous code
        range for a case-insensitive prefix instead of testing every
        string.  Code assignment order is private to the payload —
        readers always dereference codes through the table — so
        sorting changes no query-visible behavior.
        """
        table = cls()
        present = {value for value in values if value is not None}
        for value in sorted(present, key=lambda text: (ascii_lower(text),
                                                       text)):
            table.code(value)
        return table


def write_columnar(path: str | Path, events: EventColumns,
                   entity_rows: Sequence[tuple]) -> int:
    """Write an ``events.col`` payload; returns the bytes written.

    ``entity_rows`` are ``ENTITY_COLUMNS``-ordered tuples, sorted by id
    before packing: every entity the events reference, and no other
    (readers resolve each event's entity rows once per open payload,
    :meth:`ColumnarSegment.entity_rows`, and fail on a missing one).
    """
    rows = sorted(entity_rows, key=lambda row: row[0])
    values: set = set()
    values.update(events.operations)
    values.update(events.categories)
    values.update(events.hosts)
    for name in ENTITY_STRING_COLUMNS:
        index = _ENTITY_INDEX[name]
        values.update(row[index] for row in rows)
    table = _StringTable.sorted_from(values)
    sections: list[tuple[str, str, bytes]] = [
        ("event.id", "q", array("q", events.ids).tobytes()),
        ("event.subject_id", "q", array("q", events.subject_ids).tobytes()),
        ("event.object_id", "q", array("q", events.object_ids).tobytes()),
        ("event.operation", "I",
         array("I", map(table.code, events.operations)).tobytes()),
        ("event.category", "I",
         array("I", map(table.code, events.categories)).tobytes()),
        ("event.start_time", "d", array("d", events.start_times).tobytes()),
        ("event.end_time", "d", array("d", events.end_times).tobytes()),
        ("event.duration", "d", array("d", events.durations).tobytes()),
        ("event.data_amount", "q",
         array("q", events.data_amounts).tobytes()),
        ("event.failure_code", "q",
         array("q", events.failure_codes).tobytes()),
        ("event.host", "I", array("I", map(table.code,
                                           events.hosts)).tobytes()),
    ]
    sections.append(("entity.id", "q",
                     array("q", (row[0] for row in rows)).tobytes()))
    for name in ENTITY_STRING_COLUMNS:
        index = _ENTITY_INDEX[name]
        sections.append((f"entity.{name}", "I",
                         array("I", (table.code(row[index])
                                     for row in rows)).tobytes()))
    for name in ENTITY_INT_COLUMNS:
        index = _ENTITY_INDEX[name]
        sections.append((f"entity.{name}", "q",
                         array("q", (NULL_INT if row[index] is None
                                     else row[index]
                                     for row in rows)).tobytes()))
    blob = bytearray()
    offsets = array("Q", [0])
    for text in table.strings:
        blob += text.encode("utf-8")
        offsets.append(len(blob))
    sections.append(("strings.offsets", "Q", offsets.tobytes()))
    sections.append(("strings.blob", "", bytes(blob)))

    section_table: dict[str, list] = {}
    offset = 0
    for name, typecode, payload in sections:
        section_table[name] = [offset, len(payload), typecode]
        offset = _align8(offset + len(payload))
    header = {
        "version": COLUMNAR_FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "event_count": len(events),
        "entity_count": len(rows),
        "string_count": len(table.strings),
        # Additive key: older readers ignore it, newer readers use it
        # to enable binary-searched prefix ranges (ascii_lower, raw).
        "string_order": "ascii_ci",
        "sections": section_table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    target = Path(path)
    with open(target, "wb") as handle:
        handle.write(COLUMNAR_MAGIC)
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        position = len(COLUMNAR_MAGIC) + 4 + len(header_bytes)
        handle.write(b"\0" * (_align8(position) - position))
        for _name, _typecode, payload in sections:
            handle.write(payload)
            handle.write(b"\0" * (_align8(len(payload)) - len(payload)))
    return target.stat().st_size


class ColumnarSegment:
    """Memory-mapped reader over one ``events.col`` payload.

    Columns are materialized lazily as zero-copy :class:`memoryview`
    casts over the mapping (:meth:`column`) or numpy views
    (:meth:`np_column`); the string table is decoded at open, in one
    pass when it is all ASCII.  The payload is immutable and
    instances are safe to share across reader threads; what readers
    derive from it (the ASCII-lowered string blob, memoised filter
    masks, each event's entity rows) is built lazily, in memory only,
    and dies with the instance.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot open columnar payload "
                               f"{self.path}: {exc}") from exc
        # The mapping holds its own descriptor: the file closes now.
        with handle:
            try:
                self._mm = mmap.mmap(handle.fileno(), 0,
                                     access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                raise StorageError(f"cannot map columnar payload "
                                   f"{self.path}: {exc}") from exc
        try:
            self._parse_header()
        except BaseException:
            self.close()
            raise

    def _parse_header(self) -> None:
        mm = self._mm
        if bytes(mm[:8]) != COLUMNAR_MAGIC:
            raise StorageError(f"not a columnar payload: {self.path}")
        (header_len,) = struct.unpack_from("<I", mm, 8)
        try:
            header = json.loads(bytes(mm[12:12 + header_len]
                                      ).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"corrupt columnar header: {self.path}") from exc
        version = header.get("version")
        if not isinstance(version, int) or version < 1 or \
                version > COLUMNAR_FORMAT_VERSION:
            raise StorageError(
                f"unsupported columnar payload version {version!r} "
                f"(this build reads <= {COLUMNAR_FORMAT_VERSION})")
        if header.get("byteorder") != sys.byteorder:
            raise StorageError(
                f"columnar payload {self.path} was written on a "
                f"{header.get('byteorder')}-endian host; this host is "
                f"{sys.byteorder}-endian")
        self.event_count = int(header["event_count"])
        self.entity_count = int(header["entity_count"])
        self._sections: dict[str, list] = header["sections"]
        self._data_start = _align8(12 + header_len)
        self._views: dict[Any, Any] = {}
        offsets = self.column("strings.offsets")
        raw = bytes(self.column("strings.blob"))
        strings: list[Optional[str]] = [None]
        pieces = map(slice, offsets, offsets[1:])
        if raw.isascii():       # a byte per character: one decode, sliced
            strings.extend(map(raw.decode("ascii").__getitem__, pieces))
        else:
            strings.extend(raw[piece].decode("utf-8") for piece in pieces)
        #: Interned strings by code; index 0 is the NULL sentinel.
        self.strings = strings
        self._codes = dict(zip(strings[1:], range(1, len(strings))))
        #: True when codes follow ``(ascii_lower, raw)`` string order,
        #: enabling binary-searched prefix code ranges.  Payloads from
        #: older writers simply lack the key and scan linearly.
        self.sorted_strings = header.get("string_order") == "ascii_ci"
        self._sort_keys: Optional[list[str]] = None
        self._lowered_blob: Optional[bytes] = None
        self._filter_memo: dict[str, bytes] = {}
        self._filter_memo_lock = threading.Lock()
        self._entity_rows: Optional[tuple[Any, Any]] = None

    def _section(self, name: str) -> tuple[int, int, str]:
        try:
            offset, nbytes, typecode = self._sections[name]
        except KeyError as exc:
            raise StorageError(f"columnar payload {self.path} has no "
                               f"section {name!r}") from exc
        return self._data_start + int(offset), int(nbytes), typecode

    def column(self, name: str) -> Any:
        """Zero-copy view of one section (memoryview, cast per type)."""
        view = self._views.get(name)
        if view is None:
            start, nbytes, typecode = self._section(name)
            raw = memoryview(self._mm)[start:start + nbytes]
            view = raw.cast(typecode) if typecode else raw
            self._views[name] = view
        return view

    def np_column(self, name: str) -> Any:
        """Zero-copy numpy view of one section."""
        key = ("np", name)
        view = self._views.get(key)
        if view is None:
            start, nbytes, typecode = self._section(name)
            dtype = np.dtype(_NP_DTYPE[typecode])
            view = np.frombuffer(self._mm, dtype=dtype,
                                 count=nbytes // dtype.itemsize,
                                 offset=start)
            self._views[key] = view
        return view

    def code_of(self, value: str) -> Optional[int]:
        """Interned code of ``value``, or ``None`` when absent."""
        return self._codes.get(value)

    def prefix_code_range(self, prefix: str) -> Optional[tuple[int, int]]:
        """Half-open code range ``[lo, hi)`` of strings that start with
        ``prefix`` (ASCII-case-insensitively), or ``None`` when the
        payload's table is not sorted.

        Valid because codes follow ``(ascii_lower, raw)`` order: every
        string whose folded form starts with the folded prefix sorts
        inside ``[folded, successor(folded))``, a contiguous key range.
        """
        if not self.sorted_strings:
            return None
        keys = self._sort_keys
        if keys is None:
            keys = self._sort_keys = [ascii_lower(text)
                                      for text in self.strings[1:]]
        target = ascii_lower(prefix)
        lo = bisect_left(keys, target)
        successor = _prefix_successor(target)
        hi = len(keys) if successor is None else bisect_left(keys, successor)
        # +1 re-biases list positions (NULL stripped) back to codes.
        return lo + 1, hi + 1

    def codes_containing(self, needle: str) -> list[int]:
        """Codes of the strings that contain ``needle``
        ASCII-case-insensitively (SQLite's ``LIKE`` folding), ascending.

        One C-level substring search over the ASCII-lowered UTF-8 blob
        of the whole string table per matching string, instead of one
        match per dictionary entry.  ``bytes.lower`` folds A-Z only and
        leaves multi-byte sequences alone, and UTF-8 is
        self-synchronising, so a byte hit is a character hit; a hit
        that runs past its string's end straddles two neighbours and
        is skipped.
        """
        blob = self._lowered_blob
        if blob is None:
            blob = self._lowered_blob = bytes(
                self.column("strings.blob")).lower()
        # String ``code`` occupies blob bytes
        # ``[offsets[code - 1], offsets[code])``.
        offsets = self.column("strings.offsets")
        target = needle.encode("utf-8").lower()
        if not target:
            return list(range(1, len(offsets)))
        codes: list[int] = []
        position = blob.find(target)
        while position >= 0:
            code = bisect_right(offsets, position)
            end = offsets[code]
            if position + len(target) <= end:
                codes.append(code)
            # Later hits inside this string add nothing, and any that
            # start there after a straddling hit straddle too.
            position = blob.find(target, end)
        return codes

    def filter_mask(self, key: str,
                    build: Callable[[], bytes]) -> tuple[bytes, bool]:
        """Memoised pass mask of one filter: ``(mask, was_hit)``.

        The payload never changes, so a mask built once holds for the
        life of this reader.  ``build`` runs outside the lock: threads
        racing on one key each build the same mask and one is kept.
        """
        memo = self._filter_memo
        with self._filter_memo_lock:
            mask = memo.pop(key, None)
            if mask is not None:
                memo[key] = mask            # most recently used last
                return mask, True
        mask = build()
        with self._filter_memo_lock:
            memo[key] = mask
            excess = sum(map(len, memo.values())) - FILTER_MEMO_BYTES
            while excess > 0 and len(memo) > 1:
                excess -= len(memo.pop(next(iter(memo))))
        return mask, False

    def entity_rows(self) -> tuple[Any, Any]:
        """Entity-block row of each event's subject and of its object:
        two int64 arrays aligned with the event rows.

        Resolved once per reader, so no scan looks an id up again,
        whether the block holds ids ``1..N`` (payloads sealed before
        blocks held referenced rows only) or any ascending subset: one
        ``searchsorted`` per side over the sorted id column, then a
        check that every position holds the id sought.  Threads racing
        on the first call each build the same arrays.
        """
        rows = self._entity_rows
        if rows is not None:
            return rows
        ids = self.np_column("entity.id")
        resolved: list[Any] = []
        for name in ("event.subject_id", "event.object_id"):
            wanted = self.np_column(name)
            found = np.searchsorted(ids, wanted)
            exact = found < ids.size
            exact[exact] = ids[found[exact]] == wanted[exact]
            if not exact.all():
                raise StorageError(
                    f"columnar payload {self.path} has no entity row for "
                    f"id {int(wanted[~exact][0])}")
            resolved.append(found.astype(np.int64, copy=False))
        rows = self._entity_rows = (resolved[0], resolved[1])
        return rows

    def close(self) -> None:
        """Release the mapping (idempotent; GC-safe for live views)."""
        self._views = {}
        try:
            self._mm.close()
        except (BufferError, ValueError):  # pragma: no cover - live views
            pass


__all__ = ["COLUMNAR_FORMAT_VERSION", "COLUMNAR_MAGIC", "NULL_INT",
           "ENTITY_STRING_COLUMNS", "ENTITY_INT_COLUMNS",
           "EVENT_STRING_COLUMNS", "EventColumns", "ColumnarSegment",
           "ascii_lower", "write_columnar"]
