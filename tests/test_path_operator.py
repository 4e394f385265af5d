"""The path operator answers path patterns as giant SQL's recursive CTE
does, with the event patterns' endpoint semantics.

* Endpoint filters match as an event pattern's do: a ``%`` wildcard is
  SQL ``LIKE``, case-insensitive, on either side, on a store that was
  never sealed and on a sealed one.
* An unbounded ``~>`` whose minimum exceeds the 6-hop cap is an error.
* Giant SQL answers paths of one hop and of several as the path
  operator does, below and above their minimum; the expansion reports a
  ``path_expand`` span.
* On a store with a cycle, both give hand-counted answers: trails pass
  a node twice but no event, the final hop judges the object side, the
  operations and the window, and each trail is a row.
* On the join-equivalence corpus's path texts, unselective path texts
  and path texts with ``and not``, aggregates and temporal relations,
  over the three ``test_answer_bytes`` stores, every answer's rows
  equal giant SQL's as multisets.
* On small random stores with mixed-case names, random path patterns
  (bounded, unbounded and length-1 arrows, cycles, windows, pushed
  candidates on either side, a ``then`` join) give giant SQL's rows as
  multisets, and the CTE's ``(start id, trail)`` rows, final hops
  judged, are :func:`~repro.tbql.paths.path_matches`' ``(subject id,
  event ids)``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit.entities import (FileEntity, NetworkEntity, Operation,
                                  ProcessEntity, SystemEvent)
from repro.errors import TBQLSemanticError
from repro.obs.trace import start_trace
from repro.storage import DualStore
from repro.tbql.compiler_sql import compile_giant_sql
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.paths import path_matches
from repro.tbql.semantics import resolve_query

from .test_answer_bytes import STORES, build_store
from .test_path_adjacency import PATH_TEXTS, WIDE_PATH_TEXTS


def _case_store(sealed: bool) -> DualStore:
    tar = ProcessEntity(exename="/bin/Tar", pid=7)
    store = DualStore(reduce=False)
    store.append_events([
        SystemEvent(subject=tar, operation=Operation.READ,
                    obj=FileEntity(path="/etc/passwd"),
                    start_time=1.0, end_time=1.5),
        SystemEvent(subject=tar, operation=Operation.WRITE,
                    obj=FileEntity(path="/tmp/Upload.tar"),
                    start_time=2.0, end_time=2.5)])
    store.flush_appends(seal_segment=sealed)
    return store


@pytest.mark.parametrize("sealed", [False, True],
                         ids=["never_sealed", "sealed"])
@pytest.mark.parametrize("side", ["subject", "object"])
@pytest.mark.parametrize("arrow", ["->[write]", "~>(1~2)[write]"])
def test_endpoint_filters_ignore_case_as_event_patterns_do(sealed, side,
                                                           arrow):
    subject, obj = ('proc p["%/bin/tar%"]', "file f") if side == "subject" \
        else ("proc p", 'file f["%upload%"]')
    event_text = f"{subject} write {obj} return p, f"
    with _case_store(sealed) as store:
        assert bool(store.segment_view().sealed) == sealed
        executor = TBQLExecutor(store)
        expected = executor.execute(event_text).rows
        assert expected == [{"p.exename": "/bin/Tar",
                             "f.name": "/tmp/Upload.tar"}]
        assert executor.execute(f"{subject} {arrow} {obj} return p, f"
                                ).rows == expected
        assert [list(row.values()) for row in
                executor.execute_giant_sql(event_text)] == \
            [list(row.values()) for row in expected]


def _amount_store() -> DualStore:
    """``/bin/a`` forks ``/bin/b``; both write files, in varied amounts."""
    a = ProcessEntity(exename="/bin/a", pid=1)
    b = ProcessEntity(exename="/bin/b", pid=2)
    x, y = FileEntity(path="/tmp/x"), FileEntity(path="/tmp/y")
    store = DualStore(reduce=False)
    store.load_events([
        SystemEvent(subject=subject, operation=operation, obj=obj,
                    start_time=start, end_time=start + 0.5,
                    data_amount=amount)
        for subject, operation, obj, start, amount in (
            (a, Operation.FORK, b, 1.0, 0),
            (b, Operation.WRITE, x, 2.0, 10),
            (a, Operation.WRITE, y, 3.0, 1),
            (b, Operation.WRITE, y, 4.0, 7))])
    return store


@pytest.mark.parametrize("subject", [
    "proc p[data_amount > 5]",
    'proc p["%/bin/a%" && data_amount > 5]',
    'proc p[exename = "/bin/b" || data_amount > 5]',
], ids=["event", "entity_and_event", "entity_or_event"])
def test_event_attributes_in_the_subject_filter_judge_the_final_hop(
        subject):
    text = f"{subject} ~>(1~2)[write] file f return p, f"
    with _amount_store() as store:
        executor = TBQLExecutor(store)
        result = executor.execute(text)
        assert result.rows
        assert _rows(result.rows) == _rows(executor.execute_giant_sql(text))


def test_an_unbounded_path_must_reach_its_minimum_within_the_cap():
    """``~>(N~)`` stops at 6 hops, so a minimum above 6 is an error: no
    trail could reach it."""
    with pytest.raises(TBQLSemanticError, match="stops at 6 hops"):
        resolve_query(parse_tbql("proc p ~>(7~) file f return p"))
    pattern = resolve_query(parse_tbql(
        "proc p ~>(6~) file f return p")).patterns[0]
    assert (pattern.min_length, pattern.max_length) == (6, None)


def _fork_store() -> DualStore:
    """``/bin/a`` forks ``/bin/b``, which writes ``/tmp/x``."""
    a = ProcessEntity(exename="/bin/a", pid=1)
    b = ProcessEntity(exename="/bin/b", pid=2)
    store = DualStore(reduce=False)
    store.load_events([
        SystemEvent(subject=a, operation=Operation.FORK, obj=b,
                    start_time=1.0, end_time=1.5),
        SystemEvent(subject=b, operation=Operation.WRITE,
                    obj=FileEntity(path="/tmp/x"),
                    start_time=2.0, end_time=2.5)])
    return store


@pytest.mark.parametrize("text, rows", [
    ('proc p["/bin/a"] ~>(1~2)[write] file f', [("/bin/a", "/tmp/x")]),
    ('proc p["/bin/a"] ~>[write] file f', [("/bin/a", "/tmp/x")]),
    ('proc p["/bin/a"] ~>(2~2)[write] file f', [("/bin/a", "/tmp/x")]),
    ('proc p["/bin/a"] ~>(2~)[write] file f', [("/bin/a", "/tmp/x")]),
    ('proc p["/bin/b"] ~>(2~3)[write] file f', []),
], ids=["one_to_two", "unbounded", "exactly_two", "two_or_more",
        "below_the_minimum"])
def test_giant_sql_answers_a_path_of_more_than_one_hop(text, rows):
    """Giant SQL once rendered every pattern as one event: it answered
    ``[]`` where the path operator finds the two-hop trail, and a
    one-hop row for a text that asks for two hops or more."""
    text += " return p, f"
    with _fork_store() as store:
        executor = TBQLExecutor(store)
        assert _rows(executor.execute(text).rows) == Counter(map(repr, rows))
        assert _rows(executor.execute_giant_sql(text)) == \
            Counter(map(repr, rows))


@pytest.mark.parametrize("text", [
    "proc p ->[write] file f return p, f",
    'proc p["/bin/a"] ->[fork] proc q return p, q',
    "proc p ~>(1~1) proc q return p, q",
    'proc p ->[fork] proc q as e1 proc q ->[write] file f["/tmp/x"] '
    'as e2 return p, q, f',
])
def test_a_one_hop_path_answers_the_same_under_giant_sql(text):
    with _fork_store() as store:
        executor = TBQLExecutor(store)
        rows = _rows(executor.execute(text).rows)
        assert rows
        assert rows == _rows(executor.execute_giant_sql(text))


def _cycle_store() -> DualStore:
    """``/bin/a`` forks ``/bin/b`` forks ``/bin/c`` forks ``/bin/a``: a
    three-event cycle, off which ``/bin/c`` writes ``/tmp/x`` (10 bytes,
    at 3) and connects to ``10.0.0.1``, ``/bin/b`` writes ``/tmp/y`` (2
    bytes, at 4) and ``/bin/a`` reads ``/tmp/x`` (at 7)."""
    a, b, c = (ProcessEntity(exename=f"/bin/{name}", pid=pid)
               for pid, name in enumerate("abc", 1))
    x, y = FileEntity(path="/tmp/x"), FileEntity(path="/tmp/y")
    ip = NetworkEntity(srcip="10.0.0.9", srcport=40000, dstip="10.0.0.1",
                       dstport=443)
    store = DualStore(reduce=False)
    store.load_events([
        SystemEvent(subject=subject, operation=operation, obj=obj,
                    start_time=float(start), end_time=start + 0.5,
                    data_amount=amount)
        for start, (subject, operation, obj, amount) in enumerate([
            (a, Operation.FORK, b, 0), (b, Operation.FORK, c, 0),
            (c, Operation.WRITE, x, 10), (b, Operation.WRITE, y, 2),
            (c, Operation.CONNECT, ip, 0), (c, Operation.FORK, a, 0),
            (a, Operation.READ, x, 0)], 1)])
    return store


_A, _B, _C, _X, _Y = "/bin/a", "/bin/b", "/bin/c", "/tmp/x", "/tmp/y"


@pytest.mark.parametrize("text, rows", [
    ('proc p["/bin/a"] ~>(2~2)[write] file f return p, f', [(_A, _Y)]),
    ('proc p["/bin/a"] ~>(3~3)[write] file f return p, f', [(_A, _X)]),
    ('proc p["/bin/a"] ~>(4~4)[read] file f return p, f', [(_A, _X)]),
    ('proc p["/bin/a"] ~>(4~6)[fork] proc q return p, q', []),
    ('proc p["/bin/a"] ~>(3~3)[fork] proc q return p, q', [(_A, _A)]),
    ('proc p["/bin/c"] ~>[read] file f return p, f', [(_C, _X)]),
    ('proc p["/bin/a"] ~>(1~3)[read || write] file f return p, f',
     [(_A, _X), (_A, _X), (_A, _Y)]),
    ('proc p[exename in {"/bin/a", "/bin/c"}] ~>(1~2)[write] file f '
     'return distinct p, f', [(_A, _Y), (_C, _X)]),
    ('proc p[exename not in {"/bin/a"}] ~>(1~2)[write] file f '
     'return distinct p, f', [(_B, _X), (_B, _Y), (_C, _X)]),
    ('proc p[exename != "/bin/c"] ~>(1~1)[connect] ip i return p, i', []),
    ('proc p ~>(1~2)[connect] ip i["10.0.0.1"] return p, i',
     [(_B, "10.0.0.1"), (_C, "10.0.0.1")]),
    ('proc p ~>(1~3)[write] file f["%x"] return p, f',
     [(_A, _X), (_B, _X), (_C, _X)]),
    ('proc p ~>(1~2)[write] file f as e1[data_amount > 5] return p, f',
     [(_B, _X), (_C, _X)]),
    ('proc p ~>(1~2)[write] file f as e1 from 4 to 10 return p, f',
     [(_A, _Y), (_B, _Y)]),
    ('proc p ->[fork] proc q and not proc p ~>(3~3)[write] file g '
     'return distinct p', [(_B,)]),
    ('proc p ~>(1~2)[fork] proc q as e1 proc q ~>(1~2)[write] file f '
     'as e2 return distinct p, q, f',
     [(_A, _B, _X), (_A, _B, _Y), (_A, _C, _X), (_B, _A, _Y),
      (_B, _C, _X), (_C, _A, _Y), (_C, _B, _X), (_C, _B, _Y)]),
    ('proc p ~>(1~2)[write] file f then proc p read file g '
     'return p, f, g', [(_A, _Y, _X)]),
    ('proc p ~>(1~3)[write] file f return f, count() group by f',
     [(_X, 3), (_Y, 3)]),
], ids=["final_hop_operation", "three_hops", "around_the_cycle",
        "no_event_twice", "back_to_the_start", "unbounded",
        "one_row_per_trail", "subject_in_list", "subject_not_in_list",
        "subject_not_equal", "object_filter_ip", "object_filter_file",
        "pattern_filter_on_the_final_hop", "window_on_the_final_hop",
        "negated_path", "two_paths_share_a_variable", "then_an_event",
        "count_of_trails"])
def test_giant_sql_answers_trails_as_the_path_operator(text, rows):
    """Hand-counted answers on a store with a cycle: a trail may pass a
    node twice but never an event, the final hop alone carries the
    operations, the object and pattern filters and the window, and
    every trail is a row."""
    with _cycle_store() as store:
        executor = TBQLExecutor(store)
        assert _rows(executor.execute(text).rows) == Counter(map(repr, rows))
        assert _rows(executor.execute_giant_sql(text)) == \
            Counter(map(repr, rows))


def test_the_expansion_has_a_span():
    """``path_expand`` counts the start subjects, the edge lists popped
    from the stack — ``/bin/a``'s, ``/bin/b``'s under it, ``/bin/b``'s
    as a start: 3 lists of 2 edges each — and the trails kept."""
    with _amount_store() as store:
        with start_trace("query") as root:
            TBQLExecutor(store).execute(
                "proc p ~>(1~2)[write] file f return p, f")
    assert root is not None

    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    expansions = [span for span in walk(root) if span.name == "path_expand"]
    assert [span.attributes for span in expansions] == [
        {"starts": 2, "edges": 3, "paths": 5}]


def _rows(rows: list[dict]) -> Counter:
    """Rows as a multiset of their values in order: the executor keys a
    column ``p.exename``, giant SQL ``p_exename``."""
    return Counter(repr(tuple(row.values())) for row in rows)


#: Path texts beside the corpus's: absence, aggregates, temporal
#: relations and sequences around paths of one hop and of several.
GIANT_SQL_PATH_TEXTS = [
    'proc p read file f and not proc p ~>(2~3)[write] file g '
    'return distinct p',
    'proc p ~>(1~3)[read] file f return p, count() group by p',
    'proc p ~>(1~2) file f return f, count() group by f top 3',
    'proc p ~>(1~2)[write] file f then proc p read file g '
    'return p.exename, count()',
    'proc p["%/bin/tar%"] ~>(1~2) file f as e1 '
    'proc q["%/usr/bin/curl%"] ~>[connect] ip i as e2 '
    'with e1 before e2 return p, q, i.dstip',
    'proc p ->[write] file f["%upload%"] then[300 sec] '
    'proc q ~>(1~2)[connect] ip i return distinct p, f, i',
]


@pytest.fixture(scope="module", params=list(STORES))
def corpus_store(request):
    store = build_store(request.param)
    yield store
    store.close()


def test_corpus_path_answers_equal_giant_sql(corpus_store):
    executor = TBQLExecutor(corpus_store)
    for text in PATH_TEXTS + WIDE_PATH_TEXTS + GIANT_SQL_PATH_TEXTS:
        result = executor.execute(text)
        assert _rows(result.rows) == \
            _rows(executor.execute_giant_sql(text)), text
        assert any(step.backend == "path" for step in result.plan), text


# ---------------------------------------------------------------------------
# the differential over random stores
# ---------------------------------------------------------------------------

_PROCS = ["/bin/a", "/bin/Ab", "/usr/bin/c", "/BIN/d"]
_FILES = ["/tmp/x", "/tmp/Xy", "/etc/z"]
_IPS = ["10.0.0.1", "10.0.0.2"]
#: Per object kind, the operations its events draw from.
_OPERATIONS = {"file": [Operation.READ, Operation.WRITE],
               "proc": [Operation.FORK],
               "ip": [Operation.CONNECT, Operation.READ]}

_events = st.lists(st.tuples(
    st.integers(0, len(_PROCS) - 1),
    st.sampled_from(["proc", "file", "file", "ip"]),
    st.integers(0, 3),
    st.integers(0, 1),
    st.integers(0, 40)), min_size=15, max_size=40)

_arrows = st.one_of(
    st.sampled_from(["read", "write", "fork", "connect"]).map(
        lambda op: f"->[{op}]"),
    st.tuples(st.integers(1, 3), st.integers(0, 3),
              st.sampled_from(["[read]", "[write]", "[fork]",
                               "[read || write]", ""])).map(
        lambda drawn: f"~>({drawn[0]}~{drawn[0] + drawn[1]}){drawn[2]}"),
    st.sampled_from(["~>", "~>[write]", "~>(2~)[connect]"]))

_subject_filters = st.sampled_from(
    ["", '["%/bin/a%"]', '["/bin/ab"]', '["%bin%"]', '["/usr/%"]'])
_object_sides = st.sampled_from(
    ["file o", 'file o["%/tmp/x%"]', 'file o["%y"]', "proc o",
     'proc o["%/bin/%"]', "ip o", 'ip o["10.0.0.1"]'])
_windows = st.sampled_from(["", "", "from 5 to 30", "after 12",
                           "before 25"])


@st.composite
def _texts(draw) -> tuple[str, str]:
    """``(text, its path pattern with the text's window)``."""
    arrow, subject = draw(_arrows), draw(_subject_filters)
    obj, window = draw(_object_sides), draw(_windows)
    shape = draw(st.sampled_from(["single", "push_subject", "push_object",
                                  "then"]))
    path = f"proc p{subject} {arrow} {obj}"
    alone = f"{path} as e1 {window}"
    if shape == "single":
        return f"{alone} return p, o", alone
    if shape == "push_subject":
        return (f'proc p["%/bin/a%"] read file f as e1 '
                f"{path} as e2 {window} return p, f, o"), alone
    if shape == "push_object":
        return (f'proc q write {obj} as e1 {path} as e2 {window} '
                "return p, q, o"), alone
    return f"{path} then proc p read file g return p, o, g", path


def _entity(kind: str, index: int):
    if kind == "proc":
        return ProcessEntity(exename=_PROCS[index % len(_PROCS)],
                             pid=100 + index % len(_PROCS))
    if kind == "file":
        return FileEntity(path=_FILES[index % len(_FILES)])
    return NetworkEntity(srcip="10.0.0.9", srcport=40000,
                         dstip=_IPS[index % len(_IPS)], dstport=443)


def _cte_trails(store: DualStore, path: str) -> Counter:
    """``(start id, event ids)`` of the rows of ``path``'s CTE whose
    final hop passes, read by giant SQL's own statement with its select
    list swapped for the trail."""
    compiled = compile_giant_sql(resolve_query(parse_tbql(
        f"{path} return p")))
    select = " SELECT s1.exename AS p_exename FROM p1, "
    assert compiled.sql.count(select) == 1
    sql = compiled.sql.replace(select, " SELECT p1.start_id, p1.trail "
                                       "FROM p1, ")
    return Counter((start, tuple(int(event_id) for event_id
                                 in trail.strip(",").split(",")))
                   for start, trail in store.relational.select_tuples(
                       sql, compiled.params))


def _path_trails(store: DualStore, path: str) -> Counter:
    resolved = resolve_query(parse_tbql(f"{path} return p"))
    return Counter((match.subject_id, match.event_ids) for match in
                   path_matches(store, resolved.patterns[0], resolved))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=_events, texts=st.lists(_texts(), min_size=1, max_size=4),
       sealed=st.booleans())
def test_random_paths_equal_giant_sql(events, texts, sealed):
    entities: dict = {}
    stream = []
    for subject, kind, index, operation, start in sorted(
            events, key=lambda drawn: drawn[4]):
        for key in (("proc", subject), (kind, index)):
            if key not in entities:
                entities[key] = _entity(*key)
        operations = _OPERATIONS[kind]
        stream.append(SystemEvent(
            subject=entities[("proc", subject)],
            operation=operations[operation % len(operations)],
            obj=entities[(kind, index)], start_time=float(start),
            end_time=float(start) + 0.5))
    with DualStore(reduce=False) as store:
        store.append_events(stream)
        store.flush_appends(seal_segment=sealed)
        executor = TBQLExecutor(store)
        for text, path in texts:
            assert _rows(executor.execute(text).rows) == \
                _rows(executor.execute_giant_sql(text)), text
            assert _cte_trails(store, path) == _path_trails(store, path), \
                path
