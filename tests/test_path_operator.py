"""The path operator answers path patterns as the mini-Cypher evaluator
did, with the event patterns' endpoint semantics.

* Endpoint filters match as an event pattern's do: a ``%`` wildcard is
  SQL ``LIKE``, case-insensitive, on either side, on a store that was
  never sealed and on a sealed one (Cypher's ``CONTAINS`` was
  case-sensitive there).
* An unbounded ``~>`` whose minimum exceeds the 6-hop cap is an error.
* Giant SQL answers a one-hop path as the path operator does and refuses
  a longer one; the expansion reports a ``path_expand`` span.
* On the join-equivalence corpus (plus unselective path texts) over the
  three ``test_answer_bytes`` stores, under both columnar evaluators,
  every answer equals the mini-Cypher oracle's
  (``tests/reference/cypher_paths.py``).
* On small random stores — lowercase ASCII names, since the oracle keeps
  Cypher's case rule — random path patterns (bounded, unbounded and
  length-1 arrows, cycles, windows, pushed candidates on either side,
  a ``then`` join) give the oracle's answers as multisets: the oracle
  starts from a ``set`` of nodes.
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
from repro.tbql.executor import TBQLExecutor
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .reference.cypher_paths import CypherPathExecutor
from .test_answer_bytes import STORES, build_store
from .test_path_adjacency import WIDE_PATH_TEXTS
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS


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
        result = TBQLExecutor(store).execute(text)
        assert result.rows
        assert _answer(result) == \
            _answer(CypherPathExecutor(store).execute(text))


def test_an_unbounded_path_must_reach_its_minimum_within_the_cap():
    """``~>(N~)`` stops at 6 hops, so a minimum above 6 is an error, as
    the ``*7..6`` range it compiled to was in mini-Cypher."""
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


@pytest.mark.parametrize("arrow", ["~>(1~2)[write]", "~>[write]",
                                   "~>(2~2)[write]", "~>(2~)[write]"])
def test_giant_sql_refuses_a_path_of_more_than_one_hop(arrow):
    """Giant SQL renders every pattern as one event, so it used to answer
    ``[]`` where the path operator finds the two-hop trail; now it
    raises."""
    text = f'proc p["/bin/a"] {arrow} file f return p, f'
    with _fork_store() as store:
        executor = TBQLExecutor(store)
        assert executor.execute(text).rows == [{"p.exename": "/bin/a",
                                                "f.name": "/tmp/x"}]
        with pytest.raises(TBQLSemanticError,
                           match="pattern 'evt1' .* not exactly one hop"):
            executor.execute_giant_sql(text)


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
        rows = [list(row.values()) for row in executor.execute(text).rows]
        assert rows
        assert sorted(rows) == sorted(
            list(row.values()) for row in executor.execute_giant_sql(text))


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


def _answer(result) -> tuple:
    return (result.rows, result.matched_events, result.joined_events,
            result.per_pattern_matches)


@pytest.fixture(scope="module", params=list(STORES))
def corpus_store(request):
    store = build_store(request.param)
    yield store
    store.close()


@pytest.mark.parametrize("use_numpy", ["1", "0"])
def test_corpus_answers_equal_the_cypher_oracle(corpus_store, monkeypatch,
                                                use_numpy):
    monkeypatch.setenv("REPRO_COLUMNAR_NUMPY", use_numpy)
    executor = TBQLExecutor(corpus_store)
    oracle = CypherPathExecutor(corpus_store)
    for text in EQUIVALENCE_CORPUS + WIDE_PATH_TEXTS:
        result = executor.execute(text)
        assert _answer(result) == _answer(oracle.execute(text)), text
    assert result.plan[0].backend == "path"


# ---------------------------------------------------------------------------
# the differential over random stores
# ---------------------------------------------------------------------------

_PROCS = ["/bin/a", "/bin/ab", "/usr/bin/c", "/bin/d"]
_FILES = ["/tmp/x", "/tmp/xy", "/etc/z"]
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
def _texts(draw) -> str:
    arrow, subject = draw(_arrows), draw(_subject_filters)
    obj, window = draw(_object_sides), draw(_windows)
    shape = draw(st.sampled_from(["single", "push_subject", "push_object",
                                  "then"]))
    path = f"proc p{subject} {arrow} {obj}"
    if shape == "single":
        return f"{path} as e1 {window} return p, o"
    if shape == "push_subject":
        return (f'proc p["%/bin/a%"] read file f as e1 '
                f"{path} as e2 {window} return p, f, o")
    if shape == "push_object":
        return (f'proc q write {obj} as e1 {path} as e2 {window} '
                "return p, q, o")
    return f"{path} then proc p read file g return p, o, g"


def _entity(kind: str, index: int):
    if kind == "proc":
        return ProcessEntity(exename=_PROCS[index % len(_PROCS)],
                             pid=100 + index % len(_PROCS))
    if kind == "file":
        return FileEntity(path=_FILES[index % len(_FILES)])
    return NetworkEntity(srcip="10.0.0.9", srcport=40000,
                         dstip=_IPS[index % len(_IPS)], dstport=443)


def _multiset(result) -> tuple:
    return (Counter(map(repr, result.rows)),
            Counter(map(repr, result.matched_events)),
            result.per_pattern_matches)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(events=_events, texts=st.lists(_texts(), min_size=1, max_size=4),
       sealed=st.booleans())
def test_random_paths_equal_the_cypher_oracle(events, texts, sealed):
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
        executor, oracle = TBQLExecutor(store), CypherPathExecutor(store)
        for text in texts:
            assert _multiset(executor.execute(text)) == \
                _multiset(oracle.execute(text)), text
