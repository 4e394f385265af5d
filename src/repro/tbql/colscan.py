"""Columnar pattern scans: predicate evaluation over ``events.col``.

How the executor scans a sealed segment: pattern constraints are
gathered into a :class:`PatternSpec`, compiled once per plan step into
a :class:`CompiledScan`, and evaluated directly against each segment's
memory-mapped column arrays
(:class:`repro.storage.columnar.ColumnarSegment`), one segment after
the other, in process.  A scan selects ascending event rows and hands
them over as :data:`EventRow` tuples, gathered with one read per
column; the executor merges every segment's tuples with one sort.

Filters have one evaluator: a leaf is a tri-valued truth table over its
column's distinct values (the string dictionary, or the distinct
stored numbers), gathered through the column, and ``&&`` / ``||`` /
``!`` are Kleene logic over those vectors.  Each top-level conjunct
becomes one pass mask, memoised on the segment, over entity rows when
all its leaves read entity attributes and over event rows otherwise.

Equivalence contract: the evaluator reproduces the exact semantics of
the SQL the unsealed tail runs (``compile_pattern_sql``) under SQLite's
comparison rules — three-valued logic with only-TRUE-kept WHERE
semantics, storage-class ordering (numbers sort before text),
numeric/text affinity conversions, and the ``LIKE`` mapping of TBQL
``%`` wildcards (ASCII case-insensitive, ``_`` escaped).  The
equivalence corpus pins this byte-for-byte against a store that was
never sealed.
"""

from __future__ import annotations

import re
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import ge, gt, le, lt
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import TBQLSemanticError
from ..obs.metrics import MetricsRegistry, get_registry
from ..storage.columnar import NULL_INT, ColumnarSegment
from ..storage.relational.schema import (ENTITY_ATTRIBUTE_COLUMNS,
                                         EVENT_ATTRIBUTE_COLUMNS)
from ..storage.relational.sqlgen import like_escape
from .ast import (AttributeComparison, AttributeFilter, BareValueFilter,
                  BooleanFilter, MembershipFilter, NegatedFilter)
from .compiler_sql import _ENTITY_TYPE_VALUE, _conjuncts, _reads_event
from .semantics import ResolvedPattern, ResolvedQuery, effective_window

#: Relational columns with numeric affinity (everything else is TEXT).
_NUMERIC_COLUMNS = frozenset({"pid", "srcport", "dstport", "start_time",
                              "end_time", "duration", "data_amount",
                              "failure_code"})

#: One matched event as every scan hands it to the executor:
#: ``(start_time, event_id, operation, end_time, subject_id,
#: object_id)``, so that tuple order is the ``(start_time, event_id)``
#: order one SQL statement over the whole store returns.
EventRow = tuple[float, int, Optional[str], float, int, int]

#: The event columns an :data:`EventRow` is gathered from, in its order.
_GATHERED = ("event.start_time", "event.id", "event.operation",
             "event.end_time", "event.subject_id", "event.object_id")

#: A scan's pass masks against one segment, by what they index:
#: subject entity rows (``True``), object entity rows (``False``) or
#: event rows (``None``); see :func:`_compile_filters`.
_Masks = dict[Optional[bool], list[bytes]]


# ---------------------------------------------------------------------------
# the pattern constraint set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternSpec:
    """Constraint set for one pattern's columnar scan.

    Mirrors exactly the clauses ``compile_pattern_sql`` renders (same
    order of concerns, same effective window, same candidate pushdown),
    with entity types pre-mapped to their stored string values.
    """

    subject_type: str
    object_type: str
    operations: Optional[tuple[str, ...]]
    subject_filter: Optional[AttributeFilter]
    object_filter: Optional[AttributeFilter]
    pattern_filter: Optional[AttributeFilter]
    window: Optional[tuple[Optional[float], Optional[float]]]
    subject_candidates: Optional[tuple[int, ...]]
    object_candidates: Optional[tuple[int, ...]]


def build_pattern_spec(pattern: ResolvedPattern, query: ResolvedQuery,
                       subject_candidates: Sequence[int] | None = None,
                       object_candidates: Sequence[int] | None = None
                       ) -> PatternSpec:
    """The columnar analogue of :func:`compile_pattern_sql`."""
    return PatternSpec(
        subject_type=_ENTITY_TYPE_VALUE[pattern.subject.entity_type],
        object_type=_ENTITY_TYPE_VALUE[pattern.obj.entity_type],
        operations=(tuple(sorted(pattern.operations))
                    if pattern.operations is not None else None),
        subject_filter=pattern.subject.attr_filter,
        object_filter=pattern.obj.attr_filter,
        pattern_filter=pattern.pattern_filter,
        window=effective_window(pattern, query),
        subject_candidates=(tuple(subject_candidates)
                            if subject_candidates is not None else None),
        object_candidates=(tuple(object_candidates)
                           if object_candidates is not None else None),
    )


# ---------------------------------------------------------------------------
# SQLite comparison semantics
# ---------------------------------------------------------------------------

_INT_LITERAL = re.compile(r"[+-]?\d+\Z")
_REAL_LITERAL = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\Z")


def _text_to_number(text: str) -> Optional[float | int]:
    """NUMERIC affinity: a well-formed literal converts, else ``None``."""
    stripped = text.strip()
    if _INT_LITERAL.match(stripped):
        return int(stripped)
    if _REAL_LITERAL.match(stripped):
        return float(stripped)
    return None


def _sql_text(value: Any) -> str:
    """TEXT affinity: how SQLite renders a number as text (%!.15g)."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{value:.1f}"
        return format(value, ".15g")
    return str(value)


def _sql_compare(cell: Any, value: Any, numeric: bool) -> Optional[int]:
    """Storage-class-aware comparison; ``None`` when NULL is involved.

    ``numeric`` tells whether the *column* has numeric affinity, which
    decides the direction of affinity conversion exactly as SQLite does
    for ``column <op> literal``.
    """
    if cell is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if numeric:
        if isinstance(value, str):
            converted = _text_to_number(value)
            if converted is None:
                return -1          # numbers order before text
            value = converted
        if isinstance(cell, str):  # pragma: no cover - schema keeps these
            return 1               # numeric columns hold numbers here
        return (cell > value) - (cell < value)
    if isinstance(value, (int, float)):
        value = _sql_text(value)   # TEXT affinity converts the literal
    if isinstance(cell, (int, float)):  # pragma: no cover - defensive
        cell = _sql_text(cell)
    return (cell > value) - (cell < value)


@lru_cache(maxsize=1024)
def _like_pattern(value: str) -> tuple[re.Pattern[str], tuple[str, ...]]:
    """``LIKE like_escape(value) ESCAPE '\\'`` as a regex, plus the
    literal runs between its ``%`` wildcards (escapes resolved)."""
    pattern = like_escape(value)
    runs = [""]
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "%":
            runs.append("")
        else:
            if char == "\\" and index + 1 < len(pattern):
                index += 1
                char = pattern[index]
            runs[-1] += char
        index += 1
    regex = re.compile(".*".join(map(re.escape, runs)),
                       re.IGNORECASE | re.ASCII | re.DOTALL)
    return regex, tuple(runs)


def _eval_comparison(cell: Any, operator: str, value: Any,
                     numeric: bool) -> Optional[bool]:
    if operator in ("=", "!=") and isinstance(value, str) and "%" in value:
        if cell is None:
            return None
        text = cell if isinstance(cell, str) else _sql_text(cell)
        matched = _like_pattern(value)[0].fullmatch(text) is not None
        return matched if operator == "=" else not matched
    order = _sql_compare(cell, value, numeric)
    if order is None:
        return None
    if operator == "=":
        return order == 0
    if operator == "!=":
        return order != 0
    if operator == "<":
        return order < 0
    if operator == "<=":
        return order <= 0
    if operator == ">":
        return order > 0
    if operator == ">=":
        return order >= 0
    raise TBQLSemanticError(f"unsupported comparison operator: {operator!r}")


def _eval_membership(cell: Any, values: tuple, negated: bool,
                     numeric: bool) -> Optional[bool]:
    if cell is None:
        return None
    hit = any(_sql_compare(cell, value, numeric) == 0 for value in values)
    return (not hit) if negated else hit


# ---------------------------------------------------------------------------
# filter compilation against one segment
# ---------------------------------------------------------------------------


def _resolve(attribute: str) -> tuple[str, bool, bool]:
    """Resolve an attribute exactly as ``render_filter`` does.

    Returns ``(column section, numeric_affinity, is_event_column)``;
    event attributes shadow entity attributes, matching the SQL
    renderer.  Columns without numeric affinity hold interned-string
    codes.
    """
    name = attribute.split(".")[-1]
    for domain, columns in (("event", EVENT_ATTRIBUTE_COLUMNS),
                            ("entity", ENTITY_ATTRIBUTE_COLUMNS)):
        if name in columns:
            column = columns[name]
            return (f"{domain}.{column}", column in _NUMERIC_COLUMNS,
                    domain == "event")
    raise TBQLSemanticError(f"attribute {attribute!r} has no relational "
                            "column")


#: Tri-valued truth as one byte in thermometer code, so that Kleene
#: ``AND`` / ``OR`` are the bitwise operations and ``NOT`` is a
#: byte translation.
_FALSE, _NULL, _TRUE = 0b00, 0b01, 0b11
_TRI = {False: _FALSE, None: _NULL, True: _TRUE}
_KLEENE_NOT = bytes.maketrans(b"\0\1\3", b"\3\1\0")
_ONLY_TRUE = bytes.maketrans(b"\0\1\3", b"\0\0\1")
_ORDERINGS = {"<": lt, "<=": le, ">": gt, ">=": ge}


def _text_literal(value: Any) -> str:
    """A comparison literal as TEXT affinity converts it."""
    return value if isinstance(value, str) else _sql_text(value)


def _true_codes(segment: ColumnarSegment, operator: str,
                value: Any) -> Iterable[Optional[int]]:
    """Codes of the dictionary strings for which ``string <operator>
    value`` is TRUE under TEXT affinity (``operator`` is never ``!=``;
    a ``None`` entry is a literal the segment does not hold).

    No Python-level call per dictionary string: ``LIKE`` is a code
    range (lone trailing ``%``) or a substring search for its longest
    literal run with the regex run on the candidates only, equality a
    hash lookup, an ordering one C comparison mapped over the table.
    """
    strings = segment.strings
    if operator == "=" and isinstance(value, str) and "%" in value:
        regex, runs = _like_pattern(value)
        if len(runs) == 2 and not runs[1]:
            code_range = segment.prefix_code_range(runs[0])
            if code_range is not None:
                return range(*code_range)
        return [code for code in segment.codes_containing(max(runs, key=len))
                if regex.fullmatch(strings[code])]
    text = _text_literal(value)
    if operator == "=":
        return (segment.code_of(text),)
    if operator not in _ORDERINGS:
        raise TBQLSemanticError(
            f"unsupported comparison operator: {operator!r}")
    return compress(range(1, len(strings)),
                    map(_ORDERINGS[operator], strings[1:], repeat(text)))


def _code_table(segment: ColumnarSegment,
                filt: AttributeComparison | MembershipFilter) -> bytes:
    """Tri-valued truth table of a string leaf, indexed by dictionary
    code.  Index 0 (NULL) is always NULL, matching SQLite's
    three-valued comparisons."""
    if isinstance(filt, MembershipFilter):
        negated = filt.negated
        codes: Iterable[Optional[int]] = [
            segment.code_of(_text_literal(value)) for value in filt.values]
    else:
        negated = filt.operator == "!="
        codes = _true_codes(segment, "=" if negated else filt.operator,
                            filt.value)
    table = bytearray(len(segment.strings))
    for code in codes:
        if code is not None:
            table[code] = _TRUE
    if negated:
        table = table.translate(_KLEENE_NOT)
    table[0] = _NULL
    return bytes(table)


def _bitwise(fold: Callable[[int, int], int],
             vectors: Sequence[bytes]) -> bytes:
    """Bytewise AND / OR of equal-length byte strings, as one
    big-integer operation instead of a Python-level pass per byte."""
    return reduce(fold, (int.from_bytes(vector, "little")
                         for vector in vectors)
                  ).to_bytes(len(vectors[0]), "little")


def _number_table(values: list, filt: AttributeComparison | MembershipFilter,
                  nullable: bool) -> bytes:
    """Tri-valued truth table of a numeric leaf over the column's
    distinct stored ``values``, in their order; ``NULL_INT`` is NULL
    in a ``nullable`` (entity) column."""
    cells = [None if nullable and value == NULL_INT else value
             for value in values]
    if isinstance(filt, MembershipFilter):
        verdicts = [_eval_membership(cell, filt.values, filt.negated, True)
                    for cell in cells]
    else:
        verdicts = [_eval_comparison(cell, filt.operator, filt.value, True)
                    for cell in cells]
    return bytes(map(_TRI.__getitem__, verdicts))


def _leaf_vector(segment: ColumnarSegment, filt: AttributeFilter,
                 side_rows: Any) -> bytes:
    """Tri-valued verdict of one leaf per row: its truth table over the
    column's distinct values, gathered through the column.  An entity
    leaf of an event-row conjunct is gathered once more, through the
    entity row of the conjunct's side of each event (``side_rows``)."""
    if isinstance(filt, BareValueFilter):
        raise TBQLSemanticError("bare value filters must be expanded before "
                                "compilation")
    if not isinstance(filt, (AttributeComparison, MembershipFilter)):
        raise TBQLSemanticError(f"unknown attribute filter: {filt!r}")
    section, numeric, on_event = _resolve(filt.attribute)
    column = codes = segment.np_column(section)
    if numeric:
        # Distinct bit patterns, so -0.0 and 0.0 keep their own text.
        distinct, codes = np.unique(column.view(np.int64),
                                    return_inverse=True)
        table = _number_table(distinct.view(column.dtype).tolist(), filt,
                              nullable=not on_event)
    else:
        table = _code_table(segment, filt)
    if side_rows is not None and not on_event:
        codes = codes[side_rows]
    return np.frombuffer(table, np.uint8)[codes].tobytes()


def _tri_vector(segment: ColumnarSegment, filt: AttributeFilter,
                side_rows: Any = None) -> bytes:
    """Tri-valued verdict of ``filt`` for every entity row, or for
    every event row when ``side_rows`` maps event rows to the entity
    rows of the filter's side; one byte each.

    Leaves are gathered truth tables (:func:`_leaf_vector`); ``&&`` /
    ``||`` / ``!`` are Kleene logic over whole vectors.
    """
    if isinstance(filt, NegatedFilter):
        return _tri_vector(segment, filt.operand,
                           side_rows).translate(_KLEENE_NOT)
    if isinstance(filt, BooleanFilter):
        return _bitwise(
            int.__and__ if filt.operator == "&&" else int.__or__,
            [_tri_vector(segment, operand, side_rows)
             for operand in filt.operands])
    return _leaf_vector(segment, filt, side_rows)


def _filter_mask(segment: ColumnarSegment, conjunct: "_Conjunct"
                 ) -> tuple[bytes, Optional[bool]]:
    """``(pass mask, was_memo_hit)`` of one conjunct.

    One 0/1 byte per entity row (or event row): whether the filter is
    TRUE there — WHERE keeps TRUE only, so NULL folds to 0.  Memoised
    on the immutable segment.
    """
    def build() -> bytes:
        side_rows = None
        if conjunct.on_event:
            side_rows = segment.entity_rows()[0 if conjunct.on_subject
                                              else 1]
        return _tri_vector(segment, conjunct.filt,
                           side_rows).translate(_ONLY_TRUE)
    return segment.filter_mask(conjunct.key, build)


class _Conjunct(NamedTuple):
    """A top-level conjunct compiled once per step.  Its mask indexes
    entity rows when every leaf reads an entity attribute, else event
    rows (``on_event``), its entity leaves then read through the rows
    of its side.  ``key`` is its memo key: the repr, as 1, 1.0 and True
    are equal keys that compare differently under TEXT affinity, and
    for an event-row mask the side too."""

    filt: AttributeFilter
    on_subject: bool
    on_event: bool
    key: str


def _conjunct(filt: AttributeFilter, on_subject: bool) -> _Conjunct:
    on_event = _reads_event(filt)
    key = repr(filt)
    if on_event:
        key = ("subject " if on_subject else "object ") + key
    return _Conjunct(filt, on_subject, on_event, key)


#: Per thread: its latest scan's ``(memo hits, masks built)``, for spans.
_tally = threading.local()


def last_filter_table_counts() -> tuple[int, int]:
    """``(memo hits, masks built)`` of this thread's latest scan."""
    return getattr(_tally, "last", (0, 0))


class CompiledScan:
    """A :class:`PatternSpec` compiled once per plan step: all that no
    segment changes (conjuncts, operations, pushed ids and where they
    live, readers, memo hit/build sums).  Per segment is what reads its
    own bytes: dictionary codes, memoised masks, selection."""

    def __init__(self, spec: PatternSpec, paths: Iterable[str] = (),
                 readers: Optional[dict[str, ColumnarSegment]] = None
                 ) -> None:
        self.spec = spec
        self.paths = tuple(paths)   # every sealed payload of the store
        self._readers = dict(readers or {})
        self.conjuncts = tuple(
            _conjunct(conjunct, on_subject)
            # A pattern filter judges the object, as the SQL renderer does.
            for filt, on_subject in ((spec.subject_filter, True),
                                     (spec.object_filter, False),
                                     (spec.pattern_filter, False))
            for conjunct in _conjuncts(filt))
        self.operations = (None if spec.operations is None
                           else frozenset(spec.operations))
        self.pushed = tuple((on_subject, ids) for on_subject, ids in (
            (True, spec.subject_candidates),
            (False, spec.object_candidates)) if ids is not None)
        self._found: Optional[dict[str, tuple]] = None
        self.hits = self.built = 0

    def readers(self, paths: Sequence[str]) -> list[ColumnarSegment]:
        """Readers of ``paths``, resolving new ones under one lock."""
        missing = [path for path in paths if path not in self._readers]
        self._readers.update(zip(missing, _segments_for(missing)))
        return [self._readers[path] for path in paths]

    def candidate_rows(self, path: str
                       ) -> Optional[tuple[tuple[bool, list[int]], ...]]:
        """``(on_subject, entity-block rows)`` per pushed side in the
        block at ``path`` (``None``: a side has none there), searched
        once per side over every block of the store on the first call.
        Sound: an event's entity ids are all in its segment's block."""
        if self._found is None:
            blocks = tuple(self.readers(self.paths))
            index = _block_index(blocks)
            sides = [(on_subject, index.search(ids))
                     for on_subject, ids in self.pushed]
            common = set.intersection(*(set(found) for _, found in sides))
            self._found = {blocks[where].path: tuple(
                (on_subject, found[where]) for on_subject, found in sides)
                for where in common}
        return self._found.get(path)

    def count_filter_tables(self) -> None:
        """Count the step's memo hits and builds (if it had tables)."""
        if self.hits or self.built:
            hit, miss = _filter_table_counters(get_registry())
            hit.inc(self.hits)
            miss.inc(self.built)


def _compiled(segment: ColumnarSegment,
              scan: CompiledScan | PatternSpec) -> CompiledScan:
    """``scan``, or a bare spec compiled for ``segment`` alone."""
    if isinstance(scan, CompiledScan):
        return scan
    return CompiledScan(scan, (segment.path,), {segment.path: segment})


@lru_cache(maxsize=1)      # resolved again only for a swapped registry
def _filter_table_counters(registry: MetricsRegistry) -> tuple[Any, Any]:
    family = registry.counter(
        "repro_tbql_filter_table_total",
        "Per-segment filter masks this process reused from the "
        "segment's memo ('hit') or built from the dictionary ('miss').",
        labels=("result",))
    return family.labels("hit"), family.labels("miss")


class _BlockIndex:
    """Blocks' ``entity.id`` columns merged: ``ids`` ascending, ``where``
    each id's block position in the tuple, ``rows`` its row there."""

    def __init__(self, blocks: tuple[ColumnarSegment, ...]) -> None:
        columns = [block.np_column("entity.id") for block in blocks]
        sizes = [column.size for column in columns]
        ids = np.concatenate(columns)
        # Each block is sorted already: a stable sort merges the runs
        # and keeps an id's blocks in tuple order.
        order = np.argsort(ids, kind="stable")
        where = np.repeat(np.arange(len(blocks)), sizes)
        rows = np.arange(ids.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.ids, self.where, self.rows = (
            array("q", column[order].astype(np.int64).tobytes())
            for column in (ids, where, rows))

    def search(self, candidates: Iterable[int]) -> dict[int, list[int]]:
        """Block position -> rows of the ``candidates`` that block
        holds, in candidate order, as a search of it alone finds them."""
        found: dict[int, list[int]] = {}
        for entity_id in candidates:
            for at in range(bisect_left(self.ids, entity_id),
                            bisect_right(self.ids, entity_id)):
                found.setdefault(self.where[at], []).append(self.rows[at])
        return found


#: :class:`_BlockIndex` per tuple of readers (LRU, built outside the
#: cache's lock).  A seal, a ``compact()`` or an evicted reader makes a
#: new tuple, so a new index: never a stale one.
_block_index = lru_cache(maxsize=4)(_BlockIndex)


def _compile_filters(segment: ColumnarSegment, scan: CompiledScan
                     ) -> _Masks:
    """The scan's conjuncts against one segment, as pass masks grouped
    by what they index (:data:`_Masks`)."""
    masks: _Masks = {True: [], False: [], None: []}
    hits = built = 0
    for conjunct in scan.conjuncts:
        mask, was_hit = _filter_mask(segment, conjunct)
        masks[None if conjunct.on_event else conjunct.on_subject].append(
            mask)
        hits += was_hit is True
        built += was_hit is False
    _tally.last = hits, built
    scan.hits += hits
    scan.built += built
    return masks


def _pass_masks(segment: ColumnarSegment, scan: CompiledScan
                ) -> Optional[_Masks]:
    """:func:`_compile_filters` plus each pushed side's candidate rows
    as one more entity-row mask of its side, or ``None`` when a pushed
    side or any mask passes no row: no event can match then, and the
    scan returns before any per-event work."""
    pushed = scan.candidate_rows(segment.path) if scan.pushed else ()
    if pushed is None:
        return None
    masks = _compile_filters(segment, scan)
    for on_subject, rows in pushed:
        mask = bytearray(segment.entity_count)
        for row in rows:
            mask[row] = 1
        masks[on_subject].append(bytes(mask))
    if any(b"\1" not in mask for side in masks.values() for mask in side):
        return None
    return masks


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------


def _spec_codes(segment: ColumnarSegment, spec: PatternSpec
                ) -> Optional[tuple[int, int, Optional[frozenset[int]]]]:
    """Interned ``(subject type, object type, allowed operations)``
    codes (operations ``None`` = any), or ``None`` when the segment
    holds no event, entity type or operation the spec could match —
    a string absent from the segment's table simply cannot match."""
    subject_code = segment.code_of(spec.subject_type)
    object_code = segment.code_of(spec.object_type)
    if not segment.event_count or subject_code is None or \
            object_code is None:
        return None
    if spec.operations is None:
        return subject_code, object_code, None
    operation_codes = frozenset(
        code for code in map(segment.code_of, spec.operations)
        if code is not None)
    if not operation_codes:
        return None
    return subject_code, object_code, operation_codes


def _select(segment: ColumnarSegment, scan: CompiledScan) -> Any:
    """The matching event rows, ascending, as an int64 array."""
    _tally.last = 0, 0      # a scan that compiles no filter reports none
    spec = scan.spec
    codes = _spec_codes(segment, spec)
    masks = None if codes is None else _pass_masks(segment, scan)
    if masks is None:
        return np.empty(0, dtype=np.int64)
    subject_code, object_code, operation_codes = codes
    mask = np.ones(segment.event_count, dtype=bool)
    if spec.window is not None:
        earliest, latest = spec.window
        if earliest is not None:
            mask &= segment.np_column("event.start_time") >= earliest
        if latest is not None:
            mask &= segment.np_column("event.end_time") <= latest
    if operation_codes is not None:
        operations = segment.np_column("event.operation")
        if len(operation_codes) == 1:
            mask &= operations == next(iter(operation_codes))
        else:
            mask &= np.isin(operations,
                            np.array(sorted(operation_codes),
                                     dtype=np.int64))
    subject_rows, object_rows = segment.entity_rows()
    type_codes = segment.np_column("entity.type")
    for on_subject, type_code, entity_rows in (
            (True, subject_code, subject_rows),
            (False, object_code, object_rows)):
        entity_ok = type_codes == type_code
        for passing in masks[on_subject]:
            entity_ok = entity_ok & np.frombuffer(passing, dtype=bool)
        mask &= entity_ok[entity_rows]
    for passing in masks[None]:
        mask &= np.frombuffer(passing, dtype=bool)
    return np.nonzero(mask)[0]


def gather_rows(segment: ColumnarSegment, selected: Any) -> list[EventRow]:
    """The events of the ``selected`` rows (ascending row indices, an
    int64 array), one ``.tolist()`` of each gathered column."""
    if not len(selected):
        return []
    starts, ids, operations, ends, subjects, objects = (
        segment.np_column(name)[selected].tolist() for name in _GATHERED)
    return list(zip(starts, ids, map(segment.strings.__getitem__,
                                     operations), ends, subjects, objects))


def scan_columnar(segment: ColumnarSegment,
                  scan: CompiledScan | PatternSpec) -> list[EventRow]:
    """Evaluate one pattern against a mapped segment, in row order (a
    bare spec is compiled for this segment alone)."""
    compiled = _compiled(segment, scan)
    return gather_rows(segment, _select(segment, compiled))


# ---------------------------------------------------------------------------
# process-wide segment cache
# ---------------------------------------------------------------------------

_SEGMENT_CACHE: dict[str, ColumnarSegment] = {}
_SEGMENT_CACHE_LIMIT = 128
_SEGMENT_CACHE_LOCK = threading.Lock()


def _segments_for(paths: Iterable[str]) -> list[ColumnarSegment]:
    """Shared mmap readers of ``paths``, under one lock (process-wide,
    LRU-bounded).  GC frees an evicted reader and its masks once scans
    drop it; closing it could yank the mapping from a concurrent scan."""
    segments = []
    with _SEGMENT_CACHE_LOCK:
        for path in paths:
            segment = _SEGMENT_CACHE.pop(path, None)
            if segment is None:
                if len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_LIMIT:
                    del _SEGMENT_CACHE[next(iter(_SEGMENT_CACHE))]
                segment = ColumnarSegment(path)
            _SEGMENT_CACHE[path] = segment      # most recently used last
            segments.append(segment)
    return segments


# ---------------------------------------------------------------------------
# partial-aggregate pushdown
# ---------------------------------------------------------------------------

def _group_counts(segment: ColumnarSegment, selected: Any,
                  group_columns: tuple[tuple[bool, str], ...]
                  ) -> dict[tuple, int]:
    """Match counts per group key over one segment's selected rows.

    Counts on the group columns' stored values — dictionary codes of
    string columns, raw numbers of numeric ones — with one
    ``np.unique``; each distinct key then resolves to its SQL values
    once.
    """
    if not len(selected):
        return {}
    if not group_columns:
        return {(): len(selected)}
    sides = segment.entity_rows()
    columns = [segment.np_column(f"entity.{column}")[
        sides[0 if on_subject else 1][selected]]
        for on_subject, column in group_columns]
    if len(columns) == 1:
        keys, counts = np.unique(columns[0], return_counts=True)
        keys = keys[:, None]
    else:
        keys, counts = np.unique(np.stack(columns, axis=1), axis=0,
                                 return_counts=True)
    strings = segment.strings
    numeric = [column in _NUMERIC_COLUMNS for _side, column in group_columns]
    return {tuple((None if value == NULL_INT else value) if is_numeric
                  else strings[value]
                  for value, is_numeric in zip(key, numeric)): count
            for key, count in zip(map(tuple, keys.tolist()),
                                  counts.tolist())}


def aggregate_columnar(segment: ColumnarSegment,
                       scan: CompiledScan | PatternSpec,
                       group_columns: tuple[tuple[bool, str], ...]
                       ) -> tuple[Any, dict[tuple, int]]:
    """Scan one segment and fold matches into per-group count partials.

    ``group_columns`` lists the resolved ``group by`` attributes as
    ``(on_subject, entity column)`` pairs; an empty tuple means a
    global ``count()``.  Returns :func:`scan_columnar`'s row selection,
    ungathered, and the counts; the fold does one step per distinct
    group key, not per match.  Events are gathered from the selection
    (:func:`gather_rows`) only if someone reads them.  A bare spec is
    compiled as :func:`scan_columnar` compiles it.
    """
    compiled = _compiled(segment, scan)
    selected = _select(segment, compiled)
    return selected, _group_counts(segment, selected, group_columns)


__all__ = ["CompiledScan", "PatternSpec", "EventRow", "build_pattern_spec",
           "gather_rows", "scan_columnar", "aggregate_columnar"]
