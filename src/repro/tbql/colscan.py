"""Columnar pattern scans: predicate evaluation over ``events.col``.

How the scatter-gather workers (:mod:`repro.tbql.scatter`) scan a
sealed segment: pattern constraints are compiled once into a picklable
:class:`PatternSpec`, shipped to the workers, and evaluated directly
against a segment's memory-mapped column arrays
(:class:`repro.storage.columnar.ColumnarSegment`).  Matches come back
as one packed tuple of machine-typed byte strings per task — a handful
of ``array`` buffers instead of thousands of pickled row tuples — and
are re-inflated into row dicts by :func:`unpack_rows` on the gather
side.

Equivalence contract: the evaluator reproduces the exact semantics of
the SQL a monolithic store and the active tail run
(``compile_pattern_sql``) under SQLite's comparison rules —
three-valued logic with only-TRUE-kept WHERE semantics, storage-class
ordering (numbers sort before text), numeric/text affinity conversions,
and the ``LIKE`` mapping of TBQL ``%`` wildcards (ASCII
case-insensitive, ``_`` escaped).  The equivalence corpus pins this
byte-for-byte against the monolithic store.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import compress, repeat
from operator import ge, gt, le, lt
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..errors import TBQLSemanticError
from ..obs.metrics import get_registry
from ..storage.columnar import NULL_INT, ColumnarSegment, numpy_module
from ..storage.relational.schema import (ENTITY_ATTRIBUTE_COLUMNS,
                                         EVENT_ATTRIBUTE_COLUMNS)
from ..storage.relational.sqlgen import like_escape
from .ast import (AttributeComparison, AttributeFilter, BareValueFilter,
                  BooleanFilter, MembershipFilter, NegatedFilter)
from .compiler_sql import _ENTITY_TYPE_VALUE
from .semantics import ResolvedPattern, ResolvedQuery, effective_window

from array import array

#: Relational columns with numeric affinity (everything else is TEXT).
_NUMERIC_COLUMNS = frozenset({"pid", "srcport", "dstport", "start_time",
                              "end_time", "duration", "data_amount",
                              "failure_code"})

#: Packed scan result: (row_count, ids, opcodes, op_strings, starts,
#: ends, amounts, subject_ids, object_ids).  All byte strings are
#: native-endian ``array`` payloads ('q'/'I'/'d'); opcodes index into
#: ``op_strings`` (codes remapped to the tuple's order).
PackedRows = tuple[int, bytes, bytes, tuple[str, ...], bytes, bytes,
                   bytes, bytes, bytes]

#: Tri-valued predicate over (entity row index, event row index).
_Predicate = Callable[[int, int], Optional[bool]]


# ---------------------------------------------------------------------------
# the shipped pattern constraint set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternSpec:
    """Picklable constraint set for one pattern's columnar scan.

    Mirrors exactly the clauses ``compile_pattern_sql`` renders (same
    order of concerns, same effective window, same candidate pushdown),
    with entity types pre-mapped to their stored string values so no
    enum crosses the process boundary.
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
    min_event_id: Optional[int] = None


@dataclass(frozen=True)
class ColumnarTask:
    """One scatter task against a segment's ``events.col`` payload."""

    path: str
    spec: PatternSpec


def build_pattern_spec(pattern: ResolvedPattern, query: ResolvedQuery,
                       subject_candidates: Sequence[int] | None = None,
                       object_candidates: Sequence[int] | None = None,
                       min_event_id: int | None = None) -> PatternSpec:
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
        min_event_id=min_event_id,
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


def _dict_enabled() -> bool:
    """Dictionary-accelerated string predicates (``REPRO_COLSCAN_DICT=0``
    falls back to per-row string evaluation, the reference path)."""
    return os.environ.get("REPRO_COLSCAN_DICT", "").strip() != "0"


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


def _getter(segment: ColumnarSegment, section: str,
            numeric: bool) -> Callable[[int], Any]:
    """Reader of one column's cells by row index, as SQL values."""
    values = segment.column(section)
    if not numeric:
        strings = segment.strings
        return lambda index: strings[values[index]]
    if section.startswith("event."):
        return values.__getitem__       # NOT NULL in the schema

    def get_int(index: int) -> Any:
        value = values[index]
        return None if value == NULL_INT else value
    return get_int


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


def _tri_vector(segment: ColumnarSegment, filt: AttributeFilter,
                np: Any) -> bytes:
    """Tri-valued verdict of ``filt`` for every entity row (or every
    event row), one byte each.

    Leaves gather their code table through the attribute's code
    column; ``&&`` / ``||`` / ``!`` are Kleene logic over whole
    vectors.  The caller guarantees one domain (:func:`_domains`).
    """
    if isinstance(filt, NegatedFilter):
        return _tri_vector(segment, filt.operand, np).translate(_KLEENE_NOT)
    if isinstance(filt, BooleanFilter):
        return _bitwise(
            int.__and__ if filt.operator == "&&" else int.__or__,
            [_tri_vector(segment, operand, np) for operand in filt.operands])
    section, numeric, _on_event = _resolve(filt.attribute)
    if numeric or not _dict_enabled():
        # Entity pid or port, or the reference path for strings: one
        # closure verdict per entity row.
        predicate = _compile_filter(filt, segment)
        return bytes(_TRI[predicate(index, 0)]
                     for index in range(segment.entity_count))
    table = _code_table(segment, filt)
    if np is not None:
        return np.frombuffer(table, np.uint8)[
            segment.np_column(section, np)].tobytes()
    return bytes([table[code] for code in segment.column(section)])


def _domains(filt: AttributeFilter) -> set[str]:
    """Row domains of the filter's leaves: ``entity`` (any entity
    attribute), ``event`` (an interned-string event column) or ``row``
    (numeric event attributes and anything only the per-row closure
    can judge or reject)."""
    if isinstance(filt, (AttributeComparison, MembershipFilter)):
        _section, numeric, on_event = _resolve(filt.attribute)
        if not on_event:
            return {"entity"}
        return {"row" if numeric else "event"}
    if isinstance(filt, NegatedFilter):
        return _domains(filt.operand)
    if isinstance(filt, BooleanFilter):
        return set().union(*map(_domains, filt.operands))
    return {"row"}


def _filter_mask(segment: ColumnarSegment, filt: AttributeFilter,
                 np: Any) -> Optional[tuple[bytes, bool, Optional[bool]]]:
    """``(pass mask, is_event_domain, was_memo_hit)`` of one filter, or
    ``None`` when it needs the per-row closure.

    One 0/1 byte per entity row (or event row): whether the filter is
    TRUE there — WHERE keeps TRUE only, so NULL folds to 0.  Memoised
    on the immutable segment; both evaluators read the same bytes.
    """
    domains = _domains(filt)
    if len(domains) != 1 or "row" in domains:
        return None

    def build() -> bytes:
        return _tri_vector(segment, filt, np).translate(_ONLY_TRUE)
    if not _dict_enabled():
        # The reference keeps its shape: no memo (hit ``None``), one
        # closure call per entity row, or per event row as a residual.
        return None if "event" in domains else (build(), False, None)
    # repr, not the filter itself: 1, 1.0 and True are equal as keys
    # but compare differently under TEXT affinity.
    mask, hit = segment.filter_mask(repr(filt), build)
    return mask, "event" in domains, hit


def _compile_filter(filt: AttributeFilter,
                    segment: ColumnarSegment) -> _Predicate:
    """Compile a filter into a tri-valued per-row closure (Kleene
    logic, one string comparison per call): the reference the truth
    tables are tested against, and the only judge of numeric event
    attributes."""
    if isinstance(filt, (AttributeComparison, MembershipFilter)):
        section, numeric, on_event = _resolve(filt.attribute)
        get = _getter(segment, section, numeric)
        if isinstance(filt, AttributeComparison):
            operator, value = filt.operator, filt.value

            def judge(cell: Any) -> Optional[bool]:
                return _eval_comparison(cell, operator, value, numeric)
        else:
            values, negated = filt.values, filt.negated

            def judge(cell: Any) -> Optional[bool]:
                return _eval_membership(cell, values, negated, numeric)
        if on_event:
            return lambda entity_index, event_index: judge(get(event_index))
        return lambda entity_index, event_index: judge(get(entity_index))
    if isinstance(filt, NegatedFilter):
        inner = _compile_filter(filt.operand, segment)

        def negate(entity_index: int, event_index: int) -> Optional[bool]:
            value = inner(entity_index, event_index)
            return None if value is None else not value
        return negate
    if isinstance(filt, BooleanFilter):
        operands = [_compile_filter(operand, segment)
                    for operand in filt.operands]
        decisive = filt.operator == "||"    # the verdict that settles it

        def combine(entity_index: int, event_index: int) -> Optional[bool]:
            unknown = False
            for operand in operands:
                value = operand(entity_index, event_index)
                if value is decisive:
                    return decisive
                if value is None:
                    unknown = True
            return None if unknown else not decisive
        return combine
    if isinstance(filt, BareValueFilter):
        raise TBQLSemanticError("bare value filters must be expanded before "
                                "compilation")
    raise TBQLSemanticError(f"unknown attribute filter: {filt!r}")


def _conjuncts(filt: Optional[AttributeFilter]
               ) -> Iterator[AttributeFilter]:
    """Top-level ``&&`` operands: WHERE keeps a conjunction exactly
    when it keeps every operand, so each compiles (and is memoised) on
    its own, in its own row domain."""
    if isinstance(filt, BooleanFilter) and filt.operator == "&&":
        for operand in filt.operands:
            yield from _conjuncts(operand)
    elif filt is not None:
        yield filt


#: Per thread: its latest scan's ``(memo hits, masks built)``, for spans.
_tally = threading.local()


def last_filter_table_counts() -> tuple[int, int]:
    """``(memo hits, masks built)`` of this thread's latest scan."""
    return getattr(_tally, "last", (0, 0))


def _compile_filters(segment: ColumnarSegment, spec: PatternSpec, np: Any
                     ) -> tuple[dict[Optional[bool], list[bytes]],
                                list[tuple[_Predicate, bool]]]:
    """The spec's filters as ``(masks, residuals)``.

    ``masks`` groups the pass masks by what they index: subject entity
    rows (``True``), object entity rows (``False`` — pattern filters
    resolve entity attributes against the object, as the SQL renderer
    does) or event rows (``None``).  Residual closures are paired with
    whether they judge the subject.
    """
    masks: dict[Optional[bool], list[bytes]] = {True: [], False: [],
                                                None: []}
    residuals: list[tuple[_Predicate, bool]] = []
    hits = built = 0
    for filt, on_subject in ((spec.subject_filter, True),
                             (spec.object_filter, False),
                             (spec.pattern_filter, False)):
        for conjunct in _conjuncts(filt):
            compiled = _filter_mask(segment, conjunct, np)
            if compiled is None:
                residuals.append((_compile_filter(conjunct, segment),
                                  on_subject))
                continue
            mask, on_event, was_hit = compiled
            masks[None if on_event else on_subject].append(mask)
            hits += was_hit is True
            built += was_hit is False
    _tally.last = hits, built
    if hits or built:
        counter = get_registry().counter(
            "repro_tbql_filter_table_total",
            "Per-segment filter masks this process reused from the "
            "segment's memo ('hit') or built from the dictionary ('miss').",
            labels=("result",))
        counter.labels("hit").inc(hits)
        counter.labels("miss").inc(built)
    return masks, residuals


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


def _select_python(segment: ColumnarSegment,
                   spec: PatternSpec) -> list[int]:
    """Pure-python row selection (the portable reference path)."""
    codes = _spec_codes(segment, spec)
    if codes is None:
        return []
    subject_code, object_code, operation_codes = codes
    type_codes = segment.column("entity.type")
    masks, residuals = _compile_filters(segment, spec, None)
    subject_ok, object_ok, event_ok = (
        _bitwise(int.__and__, masks[side]) if masks[side] else None
        for side in (True, False, None))
    ids = segment.column("event.id")
    subjects = segment.column("event.subject_id")
    objects = segment.column("event.object_id")
    operations = segment.column("event.operation")
    starts = segment.column("event.start_time")
    ends = segment.column("event.end_time")
    earliest = latest = None
    if spec.window is not None:
        earliest, latest = spec.window
    min_id = spec.min_event_id
    subject_set = (frozenset(spec.subject_candidates)
                   if spec.subject_candidates is not None else None)
    object_set = (frozenset(spec.object_candidates)
                  if spec.object_candidates is not None else None)
    subject_rows, object_rows = segment.entity_rows()
    selected: list[int] = []
    for row in range(segment.event_count):
        if min_id is not None and ids[row] < min_id:
            continue
        if operation_codes is not None and \
                operations[row] not in operation_codes:
            continue
        if earliest is not None and starts[row] < earliest:
            continue
        if latest is not None and ends[row] > latest:
            continue
        if subject_set is not None and subjects[row] not in subject_set:
            continue
        if object_set is not None and objects[row] not in object_set:
            continue
        subject_index = subject_rows[row]
        object_index = object_rows[row]
        if type_codes[subject_index] != subject_code or \
                type_codes[object_index] != object_code:
            continue
        if subject_ok is not None and not subject_ok[subject_index]:
            continue
        if object_ok is not None and not object_ok[object_index]:
            continue
        if event_ok is not None and not event_ok[row]:
            continue
        if residuals and any(
                residual(subject_index if on_subject else object_index,
                         row) is not True
                for residual, on_subject in residuals):
            continue
        selected.append(row)
    return selected


def _select_numpy(segment: ColumnarSegment, spec: PatternSpec,
                  np: Any) -> Any:
    """Vectorized row selection; same semantics as `_select_python`."""
    codes = _spec_codes(segment, spec)
    if codes is None:
        return np.empty(0, dtype=np.int64)
    subject_code, object_code, operation_codes = codes
    mask = np.ones(segment.event_count, dtype=bool)
    if spec.min_event_id is not None:
        mask &= segment.np_column("event.id", np) >= spec.min_event_id
    if spec.window is not None:
        earliest, latest = spec.window
        if earliest is not None:
            mask &= segment.np_column("event.start_time", np) >= earliest
        if latest is not None:
            mask &= segment.np_column("event.end_time", np) <= latest
    if operation_codes is not None:
        operations = segment.np_column("event.operation", np)
        if len(operation_codes) == 1:
            mask &= operations == next(iter(operation_codes))
        else:
            mask &= np.isin(operations,
                            np.array(sorted(operation_codes),
                                     dtype=np.int64))
    subjects = segment.np_column("event.subject_id", np)
    objects = segment.np_column("event.object_id", np)
    if spec.subject_candidates is not None:
        mask &= np.isin(subjects, np.array(spec.subject_candidates,
                                           dtype=np.int64))
    if spec.object_candidates is not None:
        mask &= np.isin(objects, np.array(spec.object_candidates,
                                          dtype=np.int64))
    subject_rows, object_rows = (np.frombuffer(rows, dtype=np.int64)
                                 for rows in segment.entity_rows())
    type_codes = segment.np_column("entity.type", np)
    masks, residuals = _compile_filters(segment, spec, np)
    for on_subject, type_code, entity_rows in (
            (True, subject_code, subject_rows),
            (False, object_code, object_rows)):
        entity_ok = type_codes == type_code
        for passing in masks[on_subject]:
            entity_ok = entity_ok & np.frombuffer(passing, dtype=bool)
        mask &= entity_ok[entity_rows]
    for passing in masks[None]:
        mask &= np.frombuffer(passing, dtype=bool)
    for residual, on_subject in residuals:
        survivors = np.nonzero(mask)[0]
        if survivors.size == 0:
            break
        entity_rows = subject_rows if on_subject else object_rows
        rejected = [residual(int(entity_rows[row]), int(row)) is not True
                    for row in survivors]
        mask[survivors[np.asarray(rejected, dtype=bool)]] = False
    return np.nonzero(mask)[0]


def _select(segment: ColumnarSegment, spec: PatternSpec, np: Any) -> Any:
    """The matching event rows, ascending (vectorized when ``np``)."""
    _tally.last = 0, 0      # a scan that compiles no filter reports none
    return (_select_numpy(segment, spec, np) if np is not None
            else _select_python(segment, spec))


def _pack_python(segment: ColumnarSegment,
                 selected: list[int]) -> PackedRows:
    ids = segment.column("event.id")
    operations = segment.column("event.operation")
    starts = segment.column("event.start_time")
    ends = segment.column("event.end_time")
    amounts = segment.column("event.data_amount")
    subjects = segment.column("event.subject_id")
    objects = segment.column("event.object_id")
    out_ids = array("q")
    out_ops = array("I")
    out_starts = array("d")
    out_ends = array("d")
    out_amounts = array("q")
    out_subjects = array("q")
    out_objects = array("q")
    remap: dict[int, int] = {}
    strings: list[str] = []
    segment_strings = segment.strings
    for row in selected:
        out_ids.append(ids[row])
        code = operations[row]
        slot = remap.get(code)
        if slot is None:
            slot = remap[code] = len(strings)
            text = segment_strings[code]
            assert text is not None  # operation is NOT NULL
            strings.append(text)
        out_ops.append(slot)
        out_starts.append(starts[row])
        out_ends.append(ends[row])
        out_amounts.append(amounts[row])
        out_subjects.append(subjects[row])
        out_objects.append(objects[row])
    return (len(selected), out_ids.tobytes(), out_ops.tobytes(),
            tuple(strings), out_starts.tobytes(), out_ends.tobytes(),
            out_amounts.tobytes(), out_subjects.tobytes(),
            out_objects.tobytes())


def _pack_numpy(segment: ColumnarSegment, selected: Any,
                np: Any) -> PackedRows:
    operations = segment.np_column("event.operation", np)[selected]
    codes, inverse = np.unique(operations, return_inverse=True)
    strings = []
    for code in codes:
        text = segment.strings[int(code)]
        assert text is not None  # operation is NOT NULL
        strings.append(text)
    return (int(selected.size),
            segment.np_column("event.id", np)[selected].tobytes(),
            inverse.astype(np.uint32).tobytes(),
            tuple(strings),
            segment.np_column("event.start_time", np)[selected].tobytes(),
            segment.np_column("event.end_time", np)[selected].tobytes(),
            segment.np_column("event.data_amount", np)[selected].tobytes(),
            segment.np_column("event.subject_id", np)[selected].tobytes(),
            segment.np_column("event.object_id", np)[selected].tobytes())


def scan_columnar(segment: ColumnarSegment,
                  spec: PatternSpec) -> PackedRows:
    """Evaluate one pattern against a mapped segment; packed result."""
    np = numpy_module()
    selected = _select(segment, spec, np)
    if np is not None:
        return _pack_numpy(segment, selected, np)
    return _pack_python(segment, selected)


def unpack_rows(packed: PackedRows) -> list[dict[str, Any]]:
    """Re-inflate a packed scan result into SQL-shaped row dicts."""
    (count, id_bytes, op_bytes, op_strings, start_bytes, end_bytes,
     amount_bytes, subject_bytes, object_bytes) = packed
    if not count:
        return []
    ids = array("q")
    ids.frombytes(id_bytes)
    operations = array("I")
    operations.frombytes(op_bytes)
    starts = array("d")
    starts.frombytes(start_bytes)
    ends = array("d")
    ends.frombytes(end_bytes)
    amounts = array("q")
    amounts.frombytes(amount_bytes)
    subjects = array("q")
    subjects.frombytes(subject_bytes)
    objects = array("q")
    objects.frombytes(object_bytes)
    return [{"event_id": ids[row],
             "operation": op_strings[operations[row]],
             "start_time": starts[row],
             "end_time": ends[row],
             "data_amount": amounts[row],
             "subject_id": subjects[row],
             "object_id": objects[row]}
            for row in range(count)]


# ---------------------------------------------------------------------------
# per-worker segment cache
# ---------------------------------------------------------------------------

_SEGMENT_CACHE: dict[str, ColumnarSegment] = {}
_SEGMENT_CACHE_LIMIT = 128
_SEGMENT_CACHE_LOCK = threading.Lock()


def _segment_for(path: str) -> ColumnarSegment:
    """Shared mmap readers per payload path (process-wide, bounded,
    least recently used evicted first).

    Not thread-local — :class:`ColumnarSegment` is safe to share.
    Evicted entries (and
    the filter masks memoised on them) are released by GC once
    in-flight scans drop them; closing them eagerly could yank the
    mapping from under a concurrent reader.
    """
    with _SEGMENT_CACHE_LOCK:
        segment = _SEGMENT_CACHE.pop(path, None)
        if segment is None:
            if len(_SEGMENT_CACHE) >= _SEGMENT_CACHE_LIMIT:
                del _SEGMENT_CACHE[next(iter(_SEGMENT_CACHE))]
            segment = ColumnarSegment(path)
        _SEGMENT_CACHE[path] = segment      # most recently used last
    return segment


def scan_segment_columnar(task: ColumnarTask) -> PackedRows:
    """Worker entry point: scan one segment's columnar payload."""
    return scan_columnar(_segment_for(task.path), task.spec)


# ---------------------------------------------------------------------------
# partial-aggregate pushdown
# ---------------------------------------------------------------------------

#: Packed partial-aggregate result: (row_count, ids, starts, ends,
#: opcodes, op_strings, subject_ids, object_ids, group_counts).  Event
#: arrays carry exactly what the coordinator needs to rebuild
#: ``matched_events``; entity ids are global, so display names resolve
#: through the executor's batched entity cache (same source the row
#: path hydrates from) instead of shipping per-segment string tables.
#: ``group_counts`` maps group-key tuples to counts.
PackedAggregate = tuple[int, bytes, bytes, bytes, bytes, tuple[str, ...],
                        bytes, bytes, dict]


@dataclass(frozen=True)
class AggregateTask:
    """One pushdown scatter task: scan + per-segment count partials.

    ``group_columns`` lists the resolved ``group by`` attributes as
    ``(on_subject, entity column)`` pairs; an empty tuple means a
    global ``count()``.
    """

    path: str
    spec: PatternSpec
    group_columns: tuple[tuple[bool, str], ...]


def aggregate_columnar(segment: ColumnarSegment, spec: PatternSpec,
                       group_columns: tuple[tuple[bool, str], ...]
                       ) -> PackedAggregate:
    """Scan one segment and fold matches into per-group count partials.

    Row selection is byte-identical to :func:`scan_columnar` (same
    ``_select_*`` evaluators); only the *shipped* shape changes — one
    44-byte packed record per match (event id/times/opcode/entity ids)
    plus one ``(group key, count)`` dict, instead of the row scatter's
    52-byte packed rows.  Display names stay behind: the coordinator
    hydrates them by entity id through its batched cache, the same way
    the ordinary path hydrates matched events.
    """
    selected = _select(segment, spec, numpy_module())
    ids = segment.column("event.id")
    starts = segment.column("event.start_time")
    ends = segment.column("event.end_time")
    operations = segment.column("event.operation")
    subjects = segment.column("event.subject_id")
    objects = segment.column("event.object_id")
    strings = segment.strings
    subject_rows, object_rows = segment.entity_rows()
    getters = [(on_subject, _getter(segment, f"entity.{column}",
                                    column in _NUMERIC_COLUMNS))
               for on_subject, column in group_columns]
    out_ids = array("q")
    out_starts = array("d")
    out_ends = array("d")
    out_ops = array("I")
    out_subjects = array("q")
    out_objects = array("q")
    op_remap: dict[int, int] = {}
    op_strings: list[str] = []
    group_cache: dict[tuple[int, int], tuple] = {}
    groups: dict[tuple, int] = {}
    for row in selected:
        row = int(row)
        out_ids.append(ids[row])
        out_starts.append(starts[row])
        out_ends.append(ends[row])
        code = operations[row]
        op_slot = op_remap.get(code)
        if op_slot is None:
            op_slot = op_remap[code] = len(op_strings)
            text = strings[code]
            assert text is not None  # operation is NOT NULL
            op_strings.append(text)
        out_ops.append(op_slot)
        subject_id = subjects[row]
        object_id = objects[row]
        out_subjects.append(subject_id)
        out_objects.append(object_id)
        if getters:
            cache_key = (subject_id, object_id)
            key = group_cache.get(cache_key)
            if key is None:
                key = tuple(
                    getter((subject_rows if on_subject
                            else object_rows)[row])
                    for on_subject, getter in getters)
                group_cache[cache_key] = key
        else:
            key = ()
        groups[key] = groups.get(key, 0) + 1
    return (len(out_ids), out_ids.tobytes(), out_starts.tobytes(),
            out_ends.tobytes(), out_ops.tobytes(), tuple(op_strings),
            out_subjects.tobytes(), out_objects.tobytes(), groups)


def unpack_aggregate(packed: PackedAggregate
                     ) -> tuple[list[tuple], dict]:
    """Re-inflate one pushdown partial.

    Returns ``(records, group_counts)`` where each record is
    ``(event_id, start_time, end_time, operation, subject_id,
    object_id)`` — the fields the coordinator needs to rebuild the
    matched-event dicts in global ``(start_time, event_id)`` order,
    with entity display names hydrated by id on the coordinator.
    """
    (count, id_bytes, start_bytes, end_bytes, op_bytes, op_strings,
     subject_bytes, object_bytes, groups) = packed
    if not count:
        return [], groups
    ids = array("q")
    ids.frombytes(id_bytes)
    starts = array("d")
    starts.frombytes(start_bytes)
    ends = array("d")
    ends.frombytes(end_bytes)
    operations = array("I")
    operations.frombytes(op_bytes)
    subjects = array("q")
    subjects.frombytes(subject_bytes)
    objects = array("q")
    objects.frombytes(object_bytes)
    records = [(ids[row], starts[row], ends[row],
                op_strings[operations[row]], subjects[row], objects[row])
               for row in range(count)]
    return records, groups


def scan_segment_aggregate(task: AggregateTask) -> PackedAggregate:
    """Worker entry point: pushdown scan of one segment."""
    return aggregate_columnar(_segment_for(task.path), task.spec,
                              task.group_columns)


__all__ = ["PatternSpec", "ColumnarTask", "AggregateTask", "PackedRows",
           "PackedAggregate", "build_pattern_spec", "scan_columnar",
           "aggregate_columnar", "scan_segment_columnar",
           "scan_segment_aggregate", "unpack_rows", "unpack_aggregate"]
