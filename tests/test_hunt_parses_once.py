"""A hunt that falls back to the fuzzy search tokenizes its TBQL once.

The exact search and the fuzzy fallback share one resolved query:
``ThreatRaptor.hunt`` resolves the text once and hands the same
``ResolvedQuery`` to both, and ``POST /hunt`` takes the fuzzy search's
from the plan cache its exact search just filled.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.hunting import ThreatRaptor
from repro.obs.trace import start_trace
from repro.service import QueryService
from repro.storage import DualStore
from repro.tbql.lexer import Lexer

from .conftest import DATA_LEAK_TEXT, TRANSPORTS, service_client

#: A deviated IOC: the exact search finds nothing, the fuzzy search aligns.
DEVIATED_REPORT = DATA_LEAK_TEXT.replace("/bin/tar", "/bin/tarx")


@pytest.fixture
def lexed(monkeypatch) -> Counter:
    """Counts the texts the TBQL lexer tokenizes."""
    counts: Counter = Counter()
    tokens = Lexer.tokens

    def counting(self):
        counts[self.source] += 1
        return tokens(self)

    monkeypatch.setattr(Lexer, "tokens", counting)
    return counts


@pytest.fixture(scope="module")
def store(data_leak_events):
    with DualStore() as fresh:
        fresh.load_events(data_leak_events)
        yield fresh


def test_threatraptor_hunt_resolves_once(store, lexed):
    raptor = ThreatRaptor(store=store)
    with start_trace("hunt") as root:
        report = raptor.hunt(DEVIATED_REPORT, fallback_to_fuzzy=True)
    assert not report.result.rows
    assert report.fuzzy_result is not None
    assert report.fuzzy_result.alignments
    assert lexed[report.executed_query] == 1
    names = [span.name for span in root.children]
    assert names[0] == "parse" and names[-1] == "fuzzy_search"


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_post_hunt_resolves_once(store, lexed, transport):
    with service_client(QueryService(store), transport) as client:
        response = client.hunt(DEVIATED_REPORT, fuzzy_fallback=True)
    assert not response["result"]["rows"]
    assert response["fuzzy"]["alignments"] > 0
    assert lexed[response["synthesized_tbql"]] == 1
