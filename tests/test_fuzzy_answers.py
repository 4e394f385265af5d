"""Fuzzy and Poirot answers, pinned against digests recorded once.

The brute-force oracle in ``tests/reference/fuzzy_bruteforce.py``
subclasses :class:`GraphAligner` and inherits its ``alignments()``,
``_score`` and ``candidate_counts``: a drift in alignment order, scores
or candidate counting there would move the oracle with it.  This file
compares against digests recorded once instead.

The store holds 120 sessions of benign noise plus the traces of the 18
attack cases.  The queries are the 18 synthesized ones, three seeded
one-character IOC perturbations of each, and hand-written ones whose
widest node is aimed at a node with one candidate.  Each digest covers
one search's alignments in the order they were found (sorted mapping,
``repr`` of the score, sorted node names) and its candidate counts.

The fixture is only rewritten for an intended answer change::

    PYTHONPATH=src python -m tests.test_fuzzy_answers
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from repro.audit import generate_benign_noise
from repro.benchmark import ALL_CASES
from repro.benchmark.case import CaseBuilder
from repro.hunting import ThreatRaptor
from repro.storage import DualStore
from repro.tbql.fuzzy import FuzzySearcher, FuzzySearchResult
from repro.tbql.poirot import PoirotSearcher

FIXTURE = Path(__file__).parent / "fixtures" / "fuzzy_answers.json"

SEED = 12
SESSIONS = 120
PERTURBATIONS = 3

#: Wide sources (thousands of candidates on the benchmark store) aimed at
#: a target with one candidate: the shape of ``tc_trace_4``'s first edge.
HAND_WRITTEN = [
    'proc p1["%/usr/bin/pine%"] execute file f1["%/tmp/tcexec%"] as evt1 '
    'proc p2["%/tmp/tcexec%"] connect ip i1["61.167.39.128"] as evt2 '
    'return distinct p1, f1, p2, i1',
    'proc p["%bin%"] read file f["%/etc/passwd%"] as evt1 '
    'proc p write file g["%/tmp/%"] as evt2 return distinct p, f, g',
]

_IOC_LITERAL = re.compile(r'"%([^"%]{4,})%"')


def perturb(text: str, rng: random.Random) -> str:
    """Change one character of the first long IOC literal of ``text``."""
    match = _IOC_LITERAL.search(text)
    if match is None:
        return text
    start, end = match.span(1)
    index = rng.randrange(start, end)
    swapped = "x" if text[index] != "x" else "y"
    return text[:index] + swapped + text[index + 1:]


def build_store() -> DualStore:
    noise = generate_benign_noise(SESSIONS, SEED)
    first, last = noise[0].start_time, noise[-1].end_time
    events = list(noise)
    for index, case in enumerate(ALL_CASES):
        offset = first + (last - first) * (index + 0.5) / len(ALL_CASES)
        events += CaseBuilder(start_time=offset).build(
            case, benign_sessions=0).events
    events.sort(key=lambda event: (event.start_time, event.event_id))
    store = DualStore()
    store.load_events(events)
    return store


def build_queries(store: DualStore) -> list[str]:
    raptor = ThreatRaptor(store=store)
    rng = random.Random(SEED)
    queries: list[str] = []
    for case in ALL_CASES:
        text = raptor.synthesize(raptor.extract(case.description)).text
        queries.append(text)
        queries.extend(perturb(text, rng) for _ in range(PERTURBATIONS))
    queries.extend(HAND_WRITTEN)
    return list(dict.fromkeys(queries))


def search_digest(result: FuzzySearchResult) -> str:
    answer = ([(sorted(alignment.mapping.items()), repr(alignment.score),
                sorted(alignment.node_names.items()))
               for alignment in result.alignments],
              sorted(result.candidate_counts.items()))
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def compute_digests(store: DualStore) -> dict[str, dict]:
    digests = {}
    for text in build_queries(store):
        fuzzy = FuzzySearcher(store).search(text)
        poirot = PoirotSearcher(store).search(text)
        digests[text] = {"alignments": len(fuzzy.alignments),
                         "fuzzy": search_digest(fuzzy),
                         "poirot": search_digest(poirot)}
    return digests


@pytest.fixture(scope="module")
def store():
    store = build_store()
    yield store
    store.close()


def test_queries_are_the_recorded_ones(store):
    assert list(json.loads(FIXTURE.read_text())) == build_queries(store)


@pytest.mark.parametrize("searcher", [FuzzySearcher, PoirotSearcher])
def test_answers_match_the_recorded_digests(store, searcher):
    recorded = json.loads(FIXTURE.read_text())
    key = "poirot" if searcher is PoirotSearcher else "fuzzy"
    assert any(entry["alignments"] for entry in recorded.values())
    for text, entry in recorded.items():
        assert search_digest(searcher(store).search(text)) == entry[key], \
            text


if __name__ == "__main__":
    fixture_store = build_store()
    try:
        FIXTURE.write_text(json.dumps(compute_digests(fixture_store),
                                      indent=1) + "\n")
    finally:
        fixture_store.close()
