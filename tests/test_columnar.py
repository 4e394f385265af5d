"""Tests for the columnar segment payload and its scan path.

Covers the ``events.col`` container format, the SQLite comparison
semantics the columnar evaluator reproduces (differentially, against a
live SQLite connection), numpy/pure-python selection parity, snapshots
written by older builds (v1 monolithic, v2 without payloads, v3 with
files a segment no longer owns), the scatter pool-failure fallback, and
the worker argument validation.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import sys
import threading
from array import array
from operator import attrgetter
from pathlib import Path

import pytest

from repro.audit import AuditCollector, CollectorConfig
from repro.errors import StorageError
from repro.storage import DualStore
from repro.storage.dualstore import SNAPSHOT_FORMAT_VERSION
from repro.storage.columnar import (NULL_INT, ColumnarSegment,
                                    EventColumns, write_columnar)
from repro.storage.relational.schema import all_ddl
from repro.storage.relational.sqlgen import comparison, in_list
from repro.tbql import colscan
from repro.tbql.ast import (AttributeComparison, BooleanFilter,
                            MembershipFilter, NegatedFilter)
from repro.tbql.colscan import (PatternSpec, _eval_comparison,
                                _eval_membership, scan_columnar,
                                unpack_rows)
from repro.tbql.compiler_sql import render_filter
from repro.tbql.executor import TBQLExecutor
from repro.tbql.scatter import SegmentScanner

from .conftest import record_data_leak_attack, snapshot_files
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

try:
    import numpy as _numpy
except ImportError:   # pragma: no cover - numpy-less environments
    _numpy = None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _entity(entity_id, etype, **attrs):
    """ENTITY_COLUMNS-ordered tuple with keyword attribute overrides."""
    row = {"id": entity_id, "type": etype, "name": None, "path": None,
           "exename": None, "pid": None, "user": None, "grp": None,
           "cmdline": None, "srcip": None, "srcport": None, "dstip": None,
           "dstport": None, "protocol": None}
    row.update(attrs)
    return (row["id"], row["type"], row["name"], row["path"],
            row["exename"], row["pid"], row["user"], row["grp"],
            row["cmdline"], row["srcip"], row["srcport"], row["dstip"],
            row["dstport"], row["protocol"])


def _sample_payload(tmp_path):
    """A small hand-built payload with NULLs and wildcard-ish strings."""
    events = EventColumns()
    events.append(1, 1, 2, "read", "file", 10.0, 11.0, 1.0, 64, 0, "h0")
    events.append(2, 1, 3, "write", "file", 12.0, 13.5, 1.5, 128, 0, "h0")
    events.append(3, 4, 2, "read", "file", 14.0, 15.0, 1.0, 32, 1, "h1")
    entities = [
        _entity(1, "proc", exename="/bin/tar", pid=101, user="root"),
        _entity(2, "file", name="/etc/pass_wd"),
        _entity(3, "file", name="/tmp/50%.tar"),
        _entity(4, "proc", exename="/usr/bin/GPG"),
    ]
    path = tmp_path / "events.col"
    size = write_columnar(path, events, entities)
    assert size == path.stat().st_size > 0
    return path


def _segmented_pair(batches=3):
    """A (monolithic, segmented) store pair over the attack corpus."""
    collector = AuditCollector(CollectorConfig(seed=7))
    record_data_leak_attack(collector)
    events = sorted(collector.events(),
                    key=attrgetter("start_time", "event_id"))
    mono = DualStore()
    seg = DualStore(layout="segmented")
    step = len(events) // batches + 1
    for index in range(0, len(events), step):
        batch = events[index:index + step]
        for store in (mono, seg):
            store.append_events(batch)
            store.flush_appends()
    return mono, seg


# ---------------------------------------------------------------------------
# container format
# ---------------------------------------------------------------------------


def test_roundtrip_preserves_columns(tmp_path):
    path = _sample_payload(tmp_path)
    segment = ColumnarSegment(path)
    try:
        assert segment.event_count == 3
        assert segment.entity_count == 4
        assert list(segment.column("event.id")) == [1, 2, 3]
        assert list(segment.column("event.subject_id")) == [1, 1, 4]
        assert list(segment.column("event.start_time")) == [10.0, 12.0,
                                                            14.0]
        ops = segment.column("event.operation")
        assert [segment.strings[code] for code in ops] == \
            ["read", "write", "read"]
        names = segment.column("entity.name")
        assert [segment.strings[code] for code in names] == \
            [None, "/etc/pass_wd", "/tmp/50%.tar", None]
        pids = segment.column("entity.pid")
        assert list(pids) == [101, NULL_INT, NULL_INT, NULL_INT]
        assert segment.entity_rows() == (array("q", [0, 0, 3]),
                                         array("q", [1, 2, 1]))
        assert segment.code_of("read") is not None
        assert segment.code_of("never-stored") is None
    finally:
        segment.close()


def test_sparse_entity_ids_resolve_once(tmp_path):
    events = EventColumns()
    events.append(1, 10, 70, "read", "file", 1.0, 2.0, 1.0, 0, 0, "h")
    entities = [_entity(10, "proc"), _entity(70, "file")]
    path = tmp_path / "sparse.col"
    write_columnar(path, events, entities)
    segment = ColumnarSegment(path)
    try:
        rows = segment.entity_rows()
        assert rows == (array("q", [0]), array("q", [1]))
        assert segment.entity_rows() is rows
    finally:
        segment.close()


@pytest.mark.parametrize("use_numpy", [
    pytest.param(True, marks=pytest.mark.skipif(
        _numpy is None, reason="numpy not installed")), False])
def test_missing_entity_row_raises_storage_error(tmp_path, monkeypatch,
                                                 use_numpy):
    """An event whose entity row is absent fails the scan with the typed
    error, under both evaluators, and names the id."""
    if use_numpy:
        monkeypatch.delenv("REPRO_COLUMNAR_NUMPY", raising=False)
    else:
        monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", "0")
    events = EventColumns()
    events.append(1, 10, 70, "read", "file", 1.0, 2.0, 1.0, 0, 0, "h")
    events.append(2, 10, 99, "read", "file", 3.0, 4.0, 1.0, 0, 0, "h")
    path = tmp_path / "dangling.col"
    write_columnar(path, events, [_entity(10, "proc"), _entity(70, "file")])
    spec = PatternSpec(subject_type="proc", object_type="file",
                       operations=None, subject_filter=None,
                       object_filter=None, pattern_filter=None,
                       window=None, subject_candidates=None,
                       object_candidates=None)
    segment = ColumnarSegment(path)
    try:
        with pytest.raises(StorageError, match="no entity row for id 99"):
            scan_columnar(segment, spec)
        with pytest.raises(StorageError, match="no entity row for id 99"):
            colscan.aggregate_columnar(segment, spec, ())
    finally:
        segment.close()


def _named_payload(tmp_path, names):
    """A payload with one event per name, object ``i`` named ``names[i]``
    (the subject is one NULL-heavy proc)."""
    events = EventColumns()
    entities = [_entity(1, "proc")]
    for index, name in enumerate(names):
        events.append(index + 1, 1, index + 2, "read", "file", 1.0, 2.0,
                      1.0, 0, 0, "h")
        entities.append(_entity(index + 2, "file", name=name))
    path = tmp_path / "named.col"
    write_columnar(path, events, entities if names else [])
    return path


@pytest.mark.parametrize("names", [
    ["/etc/passwd", "/tmp/upload.tar", "ABC", "a_b"],
    ["école", "ÉCOLE", "/tmp/✓", "naïve", "plain"],
    ["", "x", "", "yy"],
    [None] * 6 + ["only"],
    [],
], ids=["ascii", "non_ascii", "empty_strings", "null_heavy", "no_events"])
def test_one_pass_string_decode_matches_per_string_decode(tmp_path, names):
    segment = ColumnarSegment(_named_payload(tmp_path, names))
    try:
        offsets = segment.column("strings.offsets")
        blob = segment.column("strings.blob")
        expected = [None] + [
            bytes(blob[offsets[index]:offsets[index + 1]]).decode("utf-8")
            for index in range(len(offsets) - 1)]
        assert segment.strings == expected
        assert segment._codes == {text: code for code, text
                                  in enumerate(expected) if code}
        assert [segment.strings[code] for code
                in segment.column("entity.name")] == \
            ([None] + names if names else [])
    finally:
        segment.close()


@pytest.mark.skipif(_numpy is None, reason="numpy not installed")
def test_entity_rows_agree_under_both_evaluators(tmp_path, monkeypatch):
    events = EventColumns()
    for index, (subject, obj) in enumerate([(10, 70), (10, 40), (3, 70),
                                            (40, 3), (90, 90)]):
        events.append(index + 1, subject, obj, "read", "file", 1.0, 2.0,
                      1.0, 0, 0, "h")
    path = tmp_path / "sparse.col"
    write_columnar(path, events, [_entity(entity_id, "proc") for entity_id
                                  in (3, 10, 40, 70, 90)])
    rows = {}
    for setting in ("1", "0"):
        monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", setting)
        segment = ColumnarSegment(path)
        try:
            rows[setting] = segment.entity_rows()
        finally:
            segment.close()
    assert rows["1"] == rows["0"] == (array("q", [1, 1, 0, 2, 4]),
                                      array("q", [3, 2, 3, 0, 4]))


@pytest.mark.parametrize("use_numpy", [
    pytest.param("1", marks=pytest.mark.skipif(
        _numpy is None, reason="numpy not installed")), "0"],
    ids=["numpy", "python"])
@pytest.mark.parametrize("missing", [5, 50, 99])
def test_entity_rows_name_the_missing_id(tmp_path, monkeypatch, use_numpy,
                                         missing):
    """Below, between and above the ids the block holds, on the object
    side after a complete subject side."""
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", use_numpy)
    events = EventColumns()
    events.append(1, 10, 70, "read", "file", 1.0, 2.0, 1.0, 0, 0, "h")
    events.append(2, 10, missing, "read", "file", 3.0, 4.0, 1.0, 0, 0, "h")
    path = tmp_path / "dangling.col"
    write_columnar(path, events, [_entity(10, "proc"), _entity(70, "file")])
    segment = ColumnarSegment(path)
    try:
        for _attempt in range(2):
            with pytest.raises(StorageError,
                               match=f"no entity row for id {missing}$"):
                segment.entity_rows()
    finally:
        segment.close()


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.col"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(StorageError, match="not a columnar payload"):
        ColumnarSegment(path)


def test_reader_rejects_future_version(tmp_path):
    path = _sample_payload(tmp_path)
    data = path.read_bytes()
    assert data.count(b'"version": 1') == 1
    path.write_bytes(data.replace(b'"version": 1', b'"version": 9'))
    with pytest.raises(StorageError, match="version 9"):
        ColumnarSegment(path)


# ---------------------------------------------------------------------------
# SQLite comparison semantics (differential)
# ---------------------------------------------------------------------------

_OPS = ("=", "!=", "<", "<=", ">", ">=")

_NUMERIC_CELLS = [None, -3, 0, 1, 10, 10.5]
_NUMERIC_VALUES = ["10", " 10 ", "abc", 10, 10.0, 10.5, True, "1%", "10%"]

_TEXT_CELLS = [None, "abc", "ABC", "a_b", "aXb", "10", "10.5", "/tmp/x"]
_TEXT_VALUES = ["abc", "AbC", "a%b", "%b", "a_b", "10", 10, 10.0, True,
                "/tmp/%"]


def _sqlite_verdicts(affinity, cells, values):
    """SQLite's own answer for every (cell, op, value) combination."""
    connection = sqlite3.connect(":memory:")
    connection.execute(f"CREATE TABLE t (cell {affinity})")
    for index, cell in enumerate(cells):
        connection.execute("INSERT INTO t (rowid, cell) VALUES (?, ?)",
                           (index + 1, cell))
    verdicts = {}
    for op in _OPS:
        for value in values:
            params: list = []
            clause = comparison("cell", op, value, params)
            for index, cell in enumerate(cells):
                row = connection.execute(
                    f"SELECT {clause} FROM t WHERE rowid = ?",
                    (*params, index + 1)).fetchone()
                verdicts[(index, op, repr(value))] = \
                    None if row[0] is None else bool(row[0])
    connection.close()
    return verdicts


@pytest.mark.parametrize("affinity,cells,values,numeric", [
    ("INTEGER", _NUMERIC_CELLS, _NUMERIC_VALUES, True),
    ("REAL", _NUMERIC_CELLS, _NUMERIC_VALUES, True),
    ("TEXT", _TEXT_CELLS, _TEXT_VALUES, False),
])
def test_comparisons_match_sqlite(affinity, cells, values, numeric):
    verdicts = _sqlite_verdicts(affinity, cells, values)
    for index, cell in enumerate(cells):
        for op in _OPS:
            for value in values:
                got = _eval_comparison(cell, op, value, numeric)
                expected = verdicts[(index, op, repr(value))]
                assert got == expected, \
                    f"{cell!r} {op} {value!r} ({affinity}): " \
                    f"{got} != sqlite {expected}"


@pytest.mark.parametrize("affinity,cells,values,numeric", [
    ("INTEGER", _NUMERIC_CELLS, (10, "10", 3), True),
    ("TEXT", _TEXT_CELLS, ("abc", "10", "a_b"), False),
])
@pytest.mark.parametrize("negated", [False, True])
def test_membership_matches_sqlite(affinity, cells, values, numeric,
                                   negated):
    connection = sqlite3.connect(":memory:")
    connection.execute(f"CREATE TABLE t (cell {affinity})")
    for index, cell in enumerate(cells):
        connection.execute("INSERT INTO t (rowid, cell) VALUES (?, ?)",
                           (index + 1, cell))
    params: list = []
    clause = in_list("cell", list(values), negated, params)
    for index, cell in enumerate(cells):
        row = connection.execute(
            f"SELECT {clause} FROM t WHERE rowid = ?",
            (*params, index + 1)).fetchone()
        expected = None if row[0] is None else bool(row[0])
        got = _eval_membership(cell, tuple(values), negated, numeric)
        assert got == expected, f"{cell!r} IN {values!r} negated={negated}"
    connection.close()


# ---------------------------------------------------------------------------
# numpy / pure-python selection parity
# ---------------------------------------------------------------------------


_PARITY_SPECS = [
    PatternSpec(subject_type="proc", object_type="file", operations=None,
                subject_filter=None, object_filter=None,
                pattern_filter=None, window=None, subject_candidates=None,
                object_candidates=None),
    PatternSpec(subject_type="proc", object_type="file",
                operations=("read",),
                subject_filter=AttributeComparison("exename", "=",
                                                   "%/bin/tar%"),
                object_filter=AttributeComparison("name", "=", "%pass%"),
                pattern_filter=None, window=(10.0, 15.0),
                subject_candidates=None, object_candidates=None),
    PatternSpec(subject_type="proc", object_type="file", operations=None,
                subject_filter=NegatedFilter(
                    AttributeComparison("user", "=", "root")),
                object_filter=BooleanFilter("||", (
                    AttributeComparison("name", "=", "%50\\%"),
                    MembershipFilter("name", ("/etc/pass_wd",), False))),
                pattern_filter=AttributeComparison("data_amount", ">=",
                                                   64),
                window=None, subject_candidates=(1, 4),
                object_candidates=None, min_event_id=2),
]


@pytest.mark.skipif(_numpy is None, reason="numpy not installed")
@pytest.mark.parametrize("spec", _PARITY_SPECS,
                         ids=["unfiltered", "filtered", "kleene"])
def test_numpy_matches_python_selection(tmp_path, monkeypatch, spec):
    path = _sample_payload(tmp_path)
    segment = ColumnarSegment(path)
    try:
        monkeypatch.delenv("REPRO_COLUMNAR_NUMPY", raising=False)
        vectorized = unpack_rows(scan_columnar(segment, spec))
        monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", "0")
        pure = unpack_rows(scan_columnar(segment, spec))
        assert vectorized == pure
    finally:
        segment.close()


def test_pure_python_corpus_equivalence(monkeypatch):
    """The portable path (every CI leg but ``tests-numpy``) answers the
    corpus correctly."""
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", "0")
    mono, seg = _segmented_pair()
    reference = TBQLExecutor(mono)
    executor = TBQLExecutor(seg)
    try:
        for text in EQUIVALENCE_CORPUS[:6]:
            expected = reference.execute(text)
            got = executor.execute(text)
            assert got.rows == expected.rows, text
            assert got.matched_events == expected.matched_events, text
    finally:
        executor.close()
        reference.close()
        mono.close()
        seg.close()


# ---------------------------------------------------------------------------
# truth tables over the string dictionary, against live SQLite
# ---------------------------------------------------------------------------

#: Object names the table algebra must judge as SQLite does.  The table
#: is stored sorted, so "zzab" and "zzcd" are neighbours in the blob
#: ("…zzabzzcd…"): a hit for "abzz" there belongs to neither string.
_TABLE_NAMES = [None, "", "abc", "ABC", "a_b", "aXb", "a%b", "10", "10.0",
                "/tmp/50%.tar", "/tmp/upload.tar", "/TMP/Upload.TAR.bz2",
                "back\\slash", "line\nbreak", "ÉCOLE", "école",
                "zzab", "zzcd", None]
_TABLE_USERS = ["root", None, "alice"]
_TABLE_HOSTS = ["h0", "H1", "other"]


def _name(operator, value):
    return AttributeComparison("name", operator, value)


_NULLABLE = AttributeComparison("user", "=", "root")

#: ``(subject_filter, object_filter, pattern_filter)`` triples.
_TABLE_FILTERS = [(None, filt, None) for filt in (
    _name("=", "%tmp%"), _name("=", "/tmp/%"), _name("=", "%.tar"),
    _name("=", "%t%p%d%"), _name("=", "/tmp/%.tar"), _name("=", "%"),
    _name("=", "%%"), _name("=", "%a_b%"), _name("=", "a_b%"),
    _name("=", "%50\\%%"), _name("=", "a\\%b"), _name("=", "%k\\\\s%"),
    _name("=", "%école%"), _name("=", "%ÉCOLE"), _name("=", "%cole%"),
    _name("=", "%abzz%"), _name("=", "%zza%"), _name("=", "%e\nb%"),
    _name("!=", "%tmp%"), _name("!=", "abc"), _name("=", "ABC"),
    _name("=", 10), _name("=", 10.0), _name("=", True),
    _name("<", "b"), _name(">=", "a_b"), _name("<=", "%"),
    MembershipFilter("name", ("abc", "a%b", 10), False),
    MembershipFilter("name", ("abc", "never-stored"), True),
    NegatedFilter(_name("=", "%tmp%")),
    BooleanFilter("||", (_name("=", "%tmp%"), _NULLABLE)),
    BooleanFilter("&&", (_name("!=", "%tmp%"), _NULLABLE)),
    NegatedFilter(BooleanFilter("&&", (_name("=", "%a%"), _NULLABLE))),
    NegatedFilter(BooleanFilter("||", (
        _NULLABLE, NegatedFilter(_name("<", "b")),
        MembershipFilter("user", ("alice",), True)))),
    BooleanFilter("||", (AttributeComparison("pid", ">", 2),
                         _name("=", "%école%"))),
)] + [
    (_NULLABLE, _name("=", "%a%"), None),
    (None, None, AttributeComparison("host", "=", "h%")),
    (None, None, MembershipFilter("host", ("h0", "other"), True)),
    (None, _name("!=", "%a%"),
     BooleanFilter("&&", (AttributeComparison("host", "!=", "other"),
                          AttributeComparison("data_amount", ">=", 3),
                          _name("=", "%t%")))),
    (None, None, BooleanFilter("||", (
        AttributeComparison("host", "=", "H1"), _name("=", "%école%")))),
]


@pytest.fixture(scope="module")
def table_payload(tmp_path_factory):
    """``(payload path, SQLite connection)`` over the same rows: event
    ``i`` is proc ``1 + i % 3`` touching file ``i``, named
    ``_TABLE_NAMES[i]``."""
    entities = [_entity(index + 1, "proc", exename="/bin/sh", user=user)
                for index, user in enumerate(_TABLE_USERS)]
    events = EventColumns()
    rows = []
    for index, name in enumerate(_TABLE_NAMES):
        file_id = len(_TABLE_USERS) + index + 1
        entities.append(_entity(file_id, "file", name=name, pid=index,
                                user=_TABLE_USERS[index % 3]))
        rows.append((index + 1, 1 + index % 3, file_id, "read", "file",
                     float(index), index + 0.5, 0.5, index, 0,
                     _TABLE_HOSTS[index % 3]))
        events.append(*rows[-1])
    path = tmp_path_factory.mktemp("tables") / "events.col"
    write_columnar(path, events, entities)
    connection = sqlite3.connect(":memory:", check_same_thread=False)
    for ddl in all_ddl():
        connection.execute(ddl)
    connection.executemany(
        "INSERT INTO entities VALUES (" + ", ".join("?" * 14) + ")",
        entities)
    connection.executemany(
        "INSERT INTO events VALUES (" + ", ".join("?" * 11) + ")", rows)
    yield path, connection
    connection.close()


def _table_spec(filters):
    subject_filter, object_filter, pattern_filter = filters
    return PatternSpec(subject_type="proc", object_type="file",
                       operations=None, subject_filter=subject_filter,
                       object_filter=object_filter,
                       pattern_filter=pattern_filter, window=None,
                       subject_candidates=None, object_candidates=None)


def _sqlite_selection(connection, filters):
    """Event ids SQLite keeps for the clauses the SQL compiler renders."""
    params: list = []
    clauses = [render_filter(filt, alias, "e", params)
               for filt, alias in zip(filters, ("s", "o", "o"))
               if filt is not None]
    sql = ("SELECT e.id FROM events e JOIN entities s ON s.id = "
           "e.subject_id JOIN entities o ON o.id = e.object_id WHERE "
           + " AND ".join(["s.type = 'proc'", "o.type = 'file'"] + clauses)
           + " ORDER BY e.id")
    return [row[0] for row in connection.execute(sql, params)]


def _selection(segment, filters):
    return [row["event_id"] for row in
            unpack_rows(scan_columnar(segment, _table_spec(filters)))]


@pytest.mark.parametrize("use_numpy", [
    pytest.param(True, marks=pytest.mark.skipif(
        _numpy is None, reason="numpy not installed")), False],
    ids=["numpy", "python"])
@pytest.mark.parametrize("filters", _TABLE_FILTERS, ids=repr)
def test_filter_tables_match_sqlite(table_payload, monkeypatch, filters,
                                    use_numpy):
    path, connection = table_payload
    monkeypatch.delenv("REPRO_COLSCAN_DICT", raising=False)
    if use_numpy:
        monkeypatch.delenv("REPRO_COLUMNAR_NUMPY", raising=False)
    else:
        monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", "0")
    expected = _sqlite_selection(connection, filters)
    segment = ColumnarSegment(path)
    try:
        cold = _selection(segment, filters)
        assert cold == expected
        before = len(segment._filter_memo)
        assert _selection(segment, filters) == cold      # memo hit
        assert len(segment._filter_memo) == before
        # The per-row closures are the tables' reference and never
        # touch the memo.
        monkeypatch.setenv("REPRO_COLSCAN_DICT", "0")
        segment._filter_memo.clear()
        assert _selection(segment, filters) == expected
        assert not segment._filter_memo
    finally:
        segment.close()


def test_substring_search_skips_straddles_and_folds_ascii_only(
        table_payload):
    """The corpus really holds the corner cases it claims to."""
    path, connection = table_payload
    segment = ColumnarSegment(path)
    try:
        assert segment.sorted_strings
        code = segment.code_of("zzab")
        assert segment.strings[code + 1] == "zzcd"
        assert segment.codes_containing("abzz") == []
        assert segment.codes_containing("ZZ") == [code, code + 1]
        assert segment.codes_containing("éCOLE") == \
            [segment.code_of("école")]
        assert segment.codes_containing("") == \
            list(range(1, len(segment.strings)))
    finally:
        segment.close()
    assert _sqlite_selection(connection, (None, _name("=", "%cole%"),
                                          None)) == [15, 16]


def test_memo_keeps_equal_but_differently_typed_literals_apart(
        table_payload):
    path, _connection = table_payload
    segment = ColumnarSegment(path)
    try:
        # 10 == 10.0 == True-ish as dict keys, but TEXT affinity renders
        # them "10", "10.0" and "1".
        assert _selection(segment, (None, _name("=", 10), None)) == [8]
        assert _selection(segment, (None, _name("=", 10.0), None)) == [9]
        assert len(segment._filter_memo) == 2
    finally:
        segment.close()


def test_memo_is_bounded_and_evicts_least_recently_used(table_payload,
                                                        monkeypatch):
    import repro.storage.columnar as columnar_module

    monkeypatch.setattr(columnar_module, "FILTER_MEMO_BYTES", 2)
    path, _connection = table_payload
    segment = ColumnarSegment(path)
    try:
        builds = []

        def mask(key):
            return segment.filter_mask(
                key, lambda: builds.append(key) or key.encode())
        assert mask("a") == (b"a", False)
        assert mask("b") == (b"b", False)
        assert mask("a") == (b"a", True)
        assert mask("c") == (b"c", False)         # evicts "b"
        assert list(segment._filter_memo) == ["a", "c"]
        assert mask("b") == (b"b", False)
        assert builds == ["a", "b", "c", "b"]
        # The bound counts bytes; a mask over it is still kept, alone.
        assert mask("wider") == (b"wider", False)
        assert list(segment._filter_memo) == ["wider"]
        assert mask("wider") == (b"wider", True)
    finally:
        segment.close()


@pytest.mark.parametrize("use_numpy", [
    pytest.param("1", marks=pytest.mark.skipif(
        _numpy is None, reason="numpy not installed")), "0"],
    ids=["numpy", "python"])
def test_concurrent_compiles_of_one_filter_agree(table_payload,
                                                 monkeypatch, use_numpy):
    """Eight threads (more than cores) make the first scans of one
    shared segment at once, compiling the same filters; every selection
    equals the serial one, the memo ends with one mask per filter and
    the entity-row index they raced to build is one cached pair."""
    monkeypatch.delenv("REPRO_COLSCAN_DICT", raising=False)
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", use_numpy)
    path, connection = table_payload
    chosen = _TABLE_FILTERS[:12]
    expected = [_sqlite_selection(connection, filters)
                for filters in chosen]
    segment = ColumnarSegment(path)
    barrier = threading.Barrier(8)
    outcomes: list = []

    def worker():
        barrier.wait(timeout=30)
        try:
            outcomes.append([_selection(segment, filters)
                             for filters in chosen])
        except BaseException as exc:   # surfaced by the assert below
            outcomes.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [expected] * 8
        assert len(segment._filter_memo) == len(chosen)
        rows = segment.entity_rows()
        assert segment.entity_rows() is rows
        ids = segment.column("entity.id")
        assert [ids[row] for row in rows[0]] == \
            list(segment.column("event.subject_id"))
    finally:
        sys.setswitchinterval(interval)
        segment.close()


def test_segment_cache_evicts_least_recently_used(tmp_path, monkeypatch):
    paths = []
    for index in range(3):
        directory = tmp_path / f"seg-{index}"
        directory.mkdir()
        paths.append(str(_sample_payload(directory)))
    monkeypatch.setattr(colscan, "_SEGMENT_CACHE", {})
    monkeypatch.setattr(colscan, "_SEGMENT_CACHE_LIMIT", 2)
    first = colscan._segment_for(paths[0])
    second = colscan._segment_for(paths[1])
    assert colscan._segment_for(paths[0]) is first     # refreshes paths[0]
    third = colscan._segment_for(paths[2])             # evicts paths[1]
    try:
        assert list(colscan._SEGMENT_CACHE) == [paths[0], paths[2]]
        assert colscan._segment_for(paths[0]) is first
        assert colscan._segment_for(paths[1]) is not second
    finally:
        for segment in (first, second, third,
                        *colscan._SEGMENT_CACHE.values()):
            segment.close()


def test_like_pattern_cache_keeps_caching_past_its_bound():
    colscan._like_pattern.cache_clear()
    for index in range(colscan._like_pattern.cache_info().maxsize + 8):
        colscan._like_pattern(f"%needle-{index}%")
    before = colscan._like_pattern.cache_info()
    assert before.currsize == before.maxsize
    regex, runs = colscan._like_pattern("%fresh_one\\%%")
    assert colscan._like_pattern("%fresh_one\\%%")[0] is regex
    assert colscan._like_pattern.cache_info().hits == before.hits + 1
    assert runs == ("", "fresh_one%", "")
    assert regex.fullmatch("a FRESH_ONE% b")
    assert not regex.fullmatch("a freshXone% b")


# ---------------------------------------------------------------------------
# snapshots written by older builds
# ---------------------------------------------------------------------------

#: A segmented snapshot of ``_segmented_pair()``'s corpus saved by the
#: commit before entity blocks held referenced rows only: every
#: ``events.col`` carries the whole entity table as of its seal (ids
#: ``1..N``) and every segment directory also holds a ``graph.bin`` and
#: a ``relational.sqlite`` — the files a segment no longer owns.
_PR13_SNAPSHOT = Path(__file__).parent / "fixtures" / "snapshot_v3_pr13"


def _edit_manifest(path, edit) -> None:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _older_snapshot(kind, snap) -> None:
    """Write a snapshot of ``_segmented_pair()``'s corpus as ``kind``."""
    if kind == "v3_pr13":
        shutil.copytree(_PR13_SNAPSHOT, snap)
        return
    mono, seg = _segmented_pair()
    try:
        (mono if kind == "v1" else seg).save(snap)
    finally:
        mono.close()
        seg.close()
    if kind == "v1":
        def downgrade(manifest):
            manifest["format_version"] = 1
            del manifest["layout"]
    else:
        # Format v2: no columnar payloads and no seal-time statistics.
        for payload in snap.glob("segments/*/events.col"):
            payload.unlink()

        def downgrade(manifest):
            manifest["format_version"] = 2
            for entry in manifest["segments"]:
                del entry["stats"]
        for segment_manifest in snap.glob("segments/*/segment.json"):
            _edit_manifest(segment_manifest, lambda entry: entry.pop("stats"))
    _edit_manifest(snap / "manifest.json", downgrade)


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="the fixture's payloads are little-endian")
@pytest.mark.parametrize("read_only", [True, False])
@pytest.mark.parametrize("kind", ["v1", "v2", "v3_pr13"])
def test_snapshots_of_older_builds_answer_the_corpus(tmp_path, kind,
                                                     read_only):
    snap = tmp_path / "snap"
    _older_snapshot(kind, snap)
    before = snapshot_files(snap)
    mono, seg = _segmented_pair()
    reference = TBQLExecutor(mono)
    try:
        with DualStore.open(snap, read_only=read_only) as old:
            assert (old.segment_view() is None) == (kind == "v1")
            for workers in (1, 4):
                executor = TBQLExecutor(old, workers=workers)
                try:
                    for text in EQUIVALENCE_CORPUS:
                        expected = reference.execute(text)
                        got = executor.execute(text)
                        assert got.rows == expected.rows, text
                        assert got.matched_events == \
                            expected.matched_events, text
                finally:
                    executor.close()
        assert snapshot_files(snap) == before      # opening never writes to it
    finally:
        reference.close()
        mono.close()
        seg.close()


def test_v2_snapshot_gets_its_payloads_built_at_open(tmp_path):
    snap = tmp_path / "snap"
    _older_snapshot("v2", snap)
    assert not list(snap.rglob("events.col"))
    _mono, seg = _segmented_pair()
    try:
        with DualStore.open(snap) as reopened:
            sealed = reopened.segment_view().sealed
            assert len(sealed) == 3
            for info, fresh in zip(sealed, seg.segment_view().sealed):
                # Built outside the snapshot, the bytes a seal writes.
                assert not Path(info.columnar_path).is_relative_to(snap)
                assert Path(info.columnar_path).read_bytes() == \
                    Path(fresh.columnar_path).read_bytes()
                # No statistics were invented: such segments never prune.
                assert info.stats is None
            home = Path(sealed[0].directory).parent
            executor = TBQLExecutor(reopened)
            try:
                result = executor.execute(
                    'proc p["%no-such-binary%"] read file f return p')
                assert result.rows == []
                assert result.plan[0].segments_scanned == 3
                assert result.plan[0].segments_pruned_by_stats == 0
            finally:
                executor.close()
        assert not home.exists()            # the private home is removed
        assert not list(snap.rglob("events.col"))
    finally:
        _mono.close()
        seg.close()


def test_saved_snapshot_reopens_with_its_payloads(tmp_path):
    _mono, seg = _segmented_pair()
    snap = tmp_path / "snap"
    try:
        seg.save(snap)
    finally:
        _mono.close()
        seg.close()
    with DualStore.open(snap) as reopened:
        view = reopened.segment_view()
        assert view.sealed
        stats = reopened.segment_stats()
        for info, entry in zip(view.sealed, stats["segments"]):
            assert Path(info.directory).is_relative_to(snap)
            payload = entry["payload_bytes"]
            assert set(payload) == {"columnar", "manifest"}
            assert payload["columnar"] > 0 and payload["manifest"] > 0
            assert 0 < entry["entity_rows"] <= \
                reopened.relational.count_entities()


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="the fixture's payloads are little-endian")
def test_pr13_snapshot_keeps_dense_blocks_until_resaved(tmp_path):
    snap = tmp_path / "snap"
    shutil.copytree(_PR13_SNAPSHOT, snap)
    with DualStore.open(snap, read_only=False) as old:
        sealed = old.segment_view().sealed
        assert len(sealed) == 3
        last = ColumnarSegment(sealed[-1].columnar_path)
        try:
            ids = list(last.column("entity.id"))
            assert ids == list(range(1, len(ids) + 1))
            assert len(ids) > len(set(last.column("event.subject_id"))
                                  | set(last.column("event.object_id")))
        finally:
            last.close()
        # The writable copy took the files a segment owns and no other.
        for info in sealed:
            assert sorted(os.listdir(info.directory)) == \
                ["events.col", "segment.json"]
            assert sorted(os.listdir(snap / "segments" / info.name)) == \
                ["events.col", "graph.bin", "relational.sqlite",
                 "segment.json"]
        # Saved again, the segments keep their payloads.
        old.save(tmp_path / "resaved")
        assert sorted(path.name for path in (tmp_path / "resaved").rglob(
            "segments/*/*")) == ["events.col"] * 3 + ["segment.json"] * 3


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="the fixture's payloads are little-endian")
@pytest.mark.parametrize("min_events", ["1", "100000"])
def test_in_place_compact_drops_files_segments_no_longer_own(
        tmp_path, capsys, min_events):
    """``repro compact --snapshot D`` with no ``--out`` is the one-shot
    upgrade: whether a segment directory survives the merge plan
    (``--min-events 1`` merges nothing) or is new, it ends as exactly
    ``events.col`` + ``segment.json``, and the answers do not change."""
    from repro.cli import main

    snap = tmp_path / "snap"
    shutil.copytree(_PR13_SNAPSHOT, snap)
    assert main(["compact", "--snapshot", str(snap),
                 "--min-events", min_events]) == 0
    capsys.readouterr()
    manifest = json.loads((snap / "manifest.json").read_text("utf-8"))
    assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION == 4
    names = sorted(os.listdir(snap / "segments"))
    assert names == [entry["name"] for entry in manifest["segments"]]
    assert len(names) == (3 if min_events == "1" else 1)
    for name in names:
        assert sorted(os.listdir(snap / "segments" / name)) == \
            ["events.col", "segment.json"]
    mono, seg = _segmented_pair()
    reference = TBQLExecutor(mono)
    try:
        with DualStore.open(snap) as upgraded:
            executor = TBQLExecutor(upgraded)
            try:
                for text in EQUIVALENCE_CORPUS:
                    assert executor.execute(text).rows == \
                        reference.execute(text).rows, text
            finally:
                executor.close()
    finally:
        reference.close()
        mono.close()
        seg.close()


# ---------------------------------------------------------------------------
# pool-failure fallback and argument validation
# ---------------------------------------------------------------------------


def test_pool_failure_falls_back_serially(monkeypatch, caplog):
    import repro.tbql.scatter as scatter_module

    def broken_get_context(method=None):
        raise OSError("no semaphores on this platform")

    monkeypatch.setattr(scatter_module.multiprocessing, "get_context",
                        broken_get_context)
    mono, seg = _segmented_pair()
    reference = TBQLExecutor(mono)
    executor = TBQLExecutor(seg, workers=4)
    try:
        assert executor.pool_fallback is False
        with caplog.at_level("WARNING", logger="repro.tbql.scatter"):
            result = executor.execute(EQUIVALENCE_CORPUS[0])
        assert executor.pool_fallback is True
        assert any("pool creation failed" in record.message
                   for record in caplog.records)
        expected = reference.execute(EQUIVALENCE_CORPUS[0])
        assert result.rows == expected.rows
        # The flag is surfaced on the scatter plan steps.
        assert any(step.pool_fallback for step in result.plan
                   if step.segments_scanned is not None)
    finally:
        executor.close()
        reference.close()
        mono.close()
        seg.close()


@pytest.mark.parametrize("workers", [0, -1])
def test_invalid_worker_counts_are_rejected(workers):
    with pytest.raises(ValueError, match="positive integer"):
        SegmentScanner(workers=workers)
    with DualStore() as store:
        with pytest.raises(ValueError, match="positive integer"):
            TBQLExecutor(store, workers=workers)
