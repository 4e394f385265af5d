"""The interning single-pass log parser against the frozen seed parser.

Three layers of evidence that ``repro.audit.logfmt`` accepts what the seed
accepted and builds the same events:

* a differential property — events with hostile strings go through
  ``format_record`` and both parsers, and must come out equal field by
  field (or be rejected by both);
* a hand-written corpus of odd and malformed lines with the verdict
  pinned per line, including the few on which the new parser is
  deliberately stricter than the seed;
* garbage in, ``AuditError`` or an event out — never another exception —
  and the C-level split path agreeing with the regular expression that
  owns the language wherever it answers at all.

Plus the interning contract: one object per distinct entity within an
``iter_events`` call, nothing kept between calls.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.entities import (FileEntity, NetworkEntity, Operation,
                                  ProcessEntity, SystemEvent)
from repro.audit.logfmt import (RecordParser, _split_escaped,
                                _split_unescaped, format_log, format_record,
                                parse_fields, parse_record)
from repro.audit.parser import AuditLogParser, parse_audit_log
from repro.errors import AuditError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.storage import DualStore
from repro.storage.dualstore import _BuildBatches

from .reference import logfmt_seed


def signature(event: SystemEvent) -> tuple:
    """Every field of an event and its entities except the global ids."""
    def entity(item) -> tuple:
        fields = dataclasses.asdict(item)
        del fields["entity_id"]
        return type(item).__name__, fields
    return (entity(event.subject), event.operation, entity(event.obj),
            event.start_time, event.end_time, event.data_amount,
            event.failure_code, event.host)


def outcome(parse, line: str):
    try:
        return signature(parse(line))
    except AuditError:
        return "rejected"


# ---------------------------------------------------------------------------
# differential property: format_record -> both parsers
# ---------------------------------------------------------------------------

#: Everything the quoting rules care about: the quote, the escape, the
#: separators, ASCII and non-ASCII whitespace, line ends, non-ASCII text.
HOSTILE = st.text(
    alphabet=st.sampled_from(list('ab/.-_:=" \\\t\n\r\x0c') +
                             ["é", "\u00a0", "\u3000", "\x85", "日"]),
    max_size=10)
PORTS = st.integers(min_value=0, max_value=65535)

PROCESSES = st.builds(ProcessEntity, exename=HOSTILE,
                      pid=st.integers(min_value=-1, max_value=2 ** 31),
                      user=HOSTILE, group=HOSTILE, cmdline=HOSTILE)
FILES = st.builds(FileEntity, path=HOSTILE, name=HOSTILE, user=HOSTILE,
                  group=HOSTILE)
CONNECTIONS = st.builds(NetworkEntity, srcip=HOSTILE, srcport=PORTS,
                        dstip=HOSTILE, dstport=PORTS, protocol=HOSTILE)


@st.composite
def events(draw) -> SystemEvent:
    obj, operation = draw(st.one_of(
        st.tuples(FILES, st.sampled_from([Operation.READ, Operation.WRITE,
                                          Operation.EXECUTE])),
        st.tuples(PROCESSES, st.sampled_from([Operation.START,
                                              Operation.END])),
        st.tuples(CONNECTIONS, st.sampled_from([Operation.CONNECT,
                                                Operation.SEND]))))
    start = draw(st.floats(min_value=0.0, max_value=2e9))
    return SystemEvent(
        subject=draw(PROCESSES), operation=operation, obj=obj,
        start_time=start,
        end_time=start + draw(st.floats(min_value=0.0, max_value=1e4)),
        data_amount=draw(st.integers(min_value=0, max_value=2 ** 40)),
        failure_code=draw(st.integers(min_value=-200, max_value=200)),
        host=draw(HOSTILE))


@settings(max_examples=300, deadline=None)
@given(event=events())
def test_formatted_events_parse_like_the_seed(event):
    line = format_record(event)
    try:
        expected = logfmt_seed.parse_fields(line)
    except AuditError:
        expected = "rejected"
    try:
        assert parse_fields(line) == expected
    except AuditError:
        assert expected == "rejected"
    assert outcome(parse_record, line) == \
        outcome(logfmt_seed.parse_record, line)


@settings(max_examples=300, deadline=None)
@given(event=events())
def test_a_formatted_event_round_trips(event):
    """What the parser accepts is what was written (to the microsecond
    the format keeps), hostile strings included."""
    try:
        parsed = parse_record(format_record(event))
    except AuditError:
        # An empty path / obj_exe / dstip is "missing" in this format.
        obj = event.obj
        assert not (getattr(obj, "path", None) or
                    getattr(obj, "exename", None) or
                    getattr(obj, "dstip", None))
        return
    assert parsed.subject.exename == event.subject.exename
    assert parsed.subject.cmdline == \
        (event.subject.cmdline or event.subject.exename)
    assert parsed.host == event.host
    assert parsed.obj.unique_key == event.obj.unique_key
    assert math.isclose(parsed.start_time, event.start_time, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# pinned corpus
# ---------------------------------------------------------------------------

BASE = ("type=SYSCALL ts=1 te=2 syscall=read pid=7 exe=/bin/x obj=file "
        "path=/tmp/a")
CONNECT = "type=SYSCALL ts=1 syscall=connect pid=1 exe=/bin/x"
EXECVE = "type=SYSCALL ts=1 syscall=execve pid=1 exe=/bin/x"

#: ``(line, verdict)``: ``None`` is "rejected"; a dict holds the dotted
#: attributes the accepted event must show.  Marked "seed:" are the lines
#: the seed parser judged differently — each a deliberate tightening.
CORPUS = [
    (BASE, {"subject.pid": 7, "obj.path": "/tmp/a", "end_time": 2.0}),
    (BASE + "\r\n", {"obj.path": "/tmp/a"}),
    (BASE + "\x0c", {"obj.path": "/tmp/a"}),
    (BASE.replace(" ", "\t"), {"obj.path": "/tmp/a"}),
    (BASE.replace("type=SYSCALL ", ""), {"subject.pid": 7}),
    (BASE.replace(" te=2", ""), {"end_time": 1.0}),
    # Non-finite or reversed spans (seed: nan and +inf ends accepted).
    (BASE.replace("ts=1", "ts=nan"), None),
    (BASE.replace("ts=1", "ts=inf"), None),
    (BASE.replace("te=2", "te=nan"), None),
    (BASE.replace("te=2", "te=inf"), None),
    (BASE.replace("te=2", "te=-inf"), None),
    (BASE.replace("ts=1 te=2", "ts=-inf te=-inf"), None),
    (BASE.replace("te=2", "te=0.5"), None),
    # Quotes (seed: an unterminated quote became '"abc', rest dropped).
    (BASE + ' cmdline="abc def', None),
    (BASE + ' cmdline="abc', None),
    (BASE + ' cmdline="abc\\" def', None),
    (BASE + ' cmdline="abc def" trailing', {"subject.cmdline": "abc def"}),
    (BASE + ' cmdline="abc"host=h1', {"subject.cmdline": "abc",
                                      "host": "h1"}),
    (BASE + ' cmdline=a"b', {"subject.cmdline": 'a"b'}),
    (BASE + ' cmdline=a"b c"', {"subject.cmdline": 'a"b'}),
    (BASE + ' cmdline=""', {"subject.cmdline": ""}),
    (BASE + ' cmdline="a \\"q\\" \\\\ b"',
     {"subject.cmdline": 'a "q" \\ b'}),
    (BASE + ' cmdline="a\\nb"', {"subject.cmdline": "a\\nb"}),
    (BASE + ' cmdline="x=1 y=2"', {"subject.cmdline": "x=1 y=2"}),
    (BASE.replace("path=/tmp/a", "path=C:\\dir\\"),
     {"obj.path": "C:\\dir\\"}),
    (BASE.replace("path=/tmp/a", 'path="C:\\\\my dir\\\\"'),
     {"obj.path": "C:\\my dir\\"}),
    # Duplicate keys: the last one wins, quoted or not.
    (BASE + " pid=9", {"subject.pid": 9}),
    (BASE + ' path="/tmp/b c" path=/tmp/z', {"obj.path": "/tmp/z"}),
    (BASE + ' path=/tmp/z path="/tmp/b c"', {"obj.path": "/tmp/b c"}),
    # A key is the whole word before "=" (seed: "x-pid=7" read as pid=7)
    # and "key=" is an empty value, not an absent key (seed: absent).
    (BASE.replace("pid=7", "x-pid=7"), None),
    (BASE.replace("pid=7", "pid=7 x-pid=9"), {"subject.pid": 7}),
    (BASE.replace("te=2", "te="), None),
    (BASE + ' cmdline= "abc"', {"subject.cmdline": ""}),
    (BASE.replace("pid=7", "pid="), None),
    (BASE.replace("pid=7", "pid=seven"), None),
    (BASE.replace("pid=7", "pid=7.0"), None),
    (BASE + " bytes=1e3", None),
    (BASE + " exit=-13", {"failure_code": -13}),
    # Missing or empty required attributes, unknown records.
    (BASE.replace(" pid=7", ""), None),
    (BASE.replace(" exe=/bin/x", ""), None),
    (BASE.replace(" path=/tmp/a", ""), None),
    (BASE.replace("path=/tmp/a", 'path=""'), None),
    (BASE.replace("exe=/bin/x", 'exe=""'), {"subject.exename": ""}),
    (BASE.replace("syscall=read", "syscall=frobnicate"), None),
    (BASE.replace(" syscall=read", ""), None),
    (BASE.replace("type=SYSCALL", "type=LOGIN"), None),
    (CONNECT + " obj=ip", None),
    (CONNECT + " dstip=10.0.0.1 dstport=https", None),
    (CONNECT + " dstip=10.0.0.1", {"obj.dstport": 0, "obj.srcip": "0.0.0.0"}),
    (EXECVE, None),
    (EXECVE + " obj_exe=/bin/y", {"obj.pid": 0}),
    (EXECVE + " obj_exe=/bin/y obj_pid=q", None),
    ("garbage line here", None),
    ("ts=1", None),
    ("=", None), ('"', None), ('""', None), ("\\", None), ("a=\\", None),
    ("", None), ("   ", None),
]


@pytest.mark.parametrize("line,verdict", CORPUS)
def test_pinned_verdict(line, verdict):
    if verdict is None:
        with pytest.raises(AuditError):
            parse_record(line)
        return
    event = parse_record(line)
    for path, expected in verdict.items():
        value = event
        for attribute in path.split("."):
            value = getattr(value, attribute)
        assert value == expected, path


def test_rejections_are_counted_or_raised():
    bad = [line for line, verdict in CORPUS if verdict is None and
           line.strip()]
    good = [line for line, verdict in CORPUS if verdict is not None]
    parser = AuditLogParser()
    parsed = parser.parse_lines(bad + good)
    assert len(parsed) == len(good)
    assert parser.last_report.malformed_lines == len(bad)
    assert all(math.isfinite(event.start_time) and
               math.isfinite(event.end_time) for event in parsed)
    for line in bad:
        with pytest.raises(AuditError):
            AuditLogParser(strict=True).parse_lines([line])


# ---------------------------------------------------------------------------
# garbage: rejected or parsed, never a crash; the two split paths agree
# ---------------------------------------------------------------------------

GARBAGE = st.text(alphabet=st.sampled_from(
    list('ab1=" \t-\\') + ["\x85", "é", "\x00"]), max_size=30)


@settings(max_examples=500, deadline=None)
@given(line=GARBAGE)
def test_split_paths_agree(line):
    line = line.strip()
    if "\\" in line:
        return
    fast = _split_unescaped(line)
    if fast is not None:
        assert fast == _split_escaped(line)


@settings(max_examples=500, deadline=None)
@given(prefix=st.sampled_from(["", BASE + " ", CONNECT + " dstip=1 "]),
       tail=GARBAGE)
def test_garbage_is_rejected_or_parsed(prefix, tail):
    parser = AuditLogParser()
    parsed = parser.parse_lines([prefix + tail])
    report = parser.last_report
    assert len(parsed) + report.malformed_lines + report.skipped_lines == 1


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------

def _line(pid=7, exe="/bin/x", cmdline=None, path="/tmp/a", ts=1):
    text = (f"type=SYSCALL ts={ts} syscall=read pid={pid} exe={exe} "
            f"obj=file path={path}")
    return text if cmdline is None else f'{text} cmdline="{cmdline}"'


class TestInterning:
    def test_a_repeated_entity_is_one_object(self):
        parser = AuditLogParser()
        first, second, other = parser.iter_events(
            [_line(ts=1), _line(ts=2), _line(ts=3, path="/tmp/b")])
        assert first.subject is second.subject is other.subject
        assert first.obj is second.obj
        assert other.obj is not first.obj
        assert first.event_id != second.event_id
        report = parser.last_report
        assert report.entities_created == 3
        assert report.parsed_events == 3 and report.seconds > 0.0

    def test_subject_and_object_processes_share_a_table(self):
        child = ("type=SYSCALL ts=1 syscall=execve pid=1 exe=/bin/sh "
                 "obj_exe=/bin/x obj_pid=7")
        parent, worker = AuditLogParser().iter_events([child, _line(ts=2)])
        assert parent.obj is worker.subject

    def test_same_tuple_of_another_type_is_another_object(self):
        """A process and a connection can spell the same five strings."""
        process = ("type=SYSCALL ts=1 syscall=execve pid=1 exe=/bin/sh "
                   "obj_exe=10.0.0.1 obj_pid=80 obj_user=10.0.0.2 "
                   "obj_group=443 obj_cmdline=tcp")
        connection = ("type=SYSCALL ts=2 syscall=connect pid=1 exe=/bin/sh "
                      "srcip=10.0.0.1 srcport=80 dstip=10.0.0.2 "
                      "dstport=443 proto=tcp")
        first, second = AuditLogParser().iter_events([process, connection])
        assert isinstance(first.obj, ProcessEntity)
        assert isinstance(second.obj, NetworkEntity)

    def test_two_cmdlines_stay_two_objects_and_the_store_keeps_the_first(
            self):
        lines = [_line(cmdline="x --first", ts=1),
                 _line(cmdline="x --second", ts=2)]
        first, second = parse_audit_log("\n".join(lines))
        assert first.subject is not second.subject
        assert first.subject.unique_key == second.subject.unique_key
        with DualStore() as store:
            store.load_events([first, second])
            rows = store.execute_sql(
                "SELECT cmdline FROM entities WHERE type = 'proc'")
        assert [row["cmdline"] for row in rows] == ["x --first"]

    def test_calls_share_nothing_and_the_parser_keeps_no_table(self):
        parser = AuditLogParser()
        [first] = parser.iter_events([_line()])
        [second] = parser.iter_events([_line()])
        assert first.subject is not second.subject
        assert first.obj is not second.obj
        assert first.subject == dataclasses.replace(
            second.subject, entity_id=first.subject.entity_id)
        assert set(vars(parser)) == {"strict", "last_report"}
        assert parse_record(_line()).obj is not parse_record(_line()).obj

    def test_parsed_events_reach_the_builders_identity_fast_path(self):
        """Within a batch the builder interns each object once; fresh
        objects per line (the seed parser) take the slow path per line."""
        lines = [_line(ts=index, path=f"/tmp/{index % 3}")
                 for index in range(30)]

        def slow_path_entries(events) -> int:
            batches = _BuildBatches(merge_threshold=0.0)
            calls = []
            intern = batches._intern
            batches._intern = lambda entity: (calls.append(entity),
                                              intern(entity))[1]
            batches.consume_reducing(events)
            return len(calls)

        parser = AuditLogParser()
        shared = parser.parse_lines(lines)
        assert slow_path_entries(shared) == \
            parser.last_report.entities_created == 4
        unshared = [logfmt_seed.parse_record(line) for line in lines]
        assert slow_path_entries(unshared) == 2 * len(lines)

    def test_record_parser_counts_what_it_built(self):
        records = RecordParser()
        for line in (_line(), _line(), _line(pid=8)):
            records.parse(line)
        assert records.entities_created == 3


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def test_parse_lines_observes_the_parse_stage_once_per_call():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        parser = AuditLogParser()
        parser.parse_text(format_log(
            [parse_record(_line(ts=1)), parse_record(_line(ts=2))]))
        list(parser.iter_events([_line()]))     # lazy use: not a stage
    finally:
        set_registry(previous)
    text = registry.render()
    assert 'repro_ingest_stage_seconds_count{stage="parse"} 1' in text
