"""Pieces more than one workload uses."""

from __future__ import annotations

import json
from typing import Optional

from .. import sut
from ..harness import Result
from ..loadgen import Request, Sample, query_request
from ..oracle import Oracle, canonical_rows
from ..texts import QueryText


def join_texts() -> list[QueryText]:
    """The TBQL synthesized from each evaluation case's report."""
    raptor = sut.ThreatRaptor()
    return [QueryText(f"join.{case.case_id}",
                      raptor.synthesize(raptor.extract(
                          case.description)).text)
            for case in sut.ALL_CASES]


class QueryChecker:
    """Judges ``/query`` responses against the oracle.

    A body identical to one already verified for the same text (a cache
    hit is byte-identical to the answer it repeats) is accepted without
    parsing, which keeps the load generator cheap on cache hits.
    With ``subset=True`` an answer only has to be contained in the
    oracle's (a reader racing a writer sees a prefix of the stream).
    """

    def __init__(self, oracle: Optional[Oracle],
                 texts: list[QueryText], subset: bool = False) -> None:
        self.texts = {text.label: text.text for text in texts}
        self.expected = {} if oracle is None else {
            text.label: oracle.expected(text.text, text.label)
            for text in texts}
        self.subset = subset
        self._verified: dict[str, bytes] = {}
        self.mismatches: list[str] = []
        #: The last parsed payload per label (traced runs read plans).
        self.last_payload: dict[str, dict] = {}

    def __call__(self, request: Request, status: int, body: bytes) -> bool:
        label = request.label
        if self._verified.get(label) == body:
            return True
        try:
            payload = json.loads(body)
            rows = canonical_rows(payload["result"]["rows"])
        except (ValueError, KeyError, TypeError):
            self.mismatches.append(f"{label}: unreadable response")
            return False
        self.last_payload[label] = payload
        expected = self.expected.get(label)
        if expected is None:
            return True
        if self.subset:
            correct = set(rows) <= set(expected)
        else:
            correct = rows == expected
        if correct:
            self._verified[label] = body
        elif len(self.mismatches) < 20:
            self.mismatches.append(
                f"{label}: {len(rows)} rows, oracle has {len(expected)}")
        return correct


def requests_for(texts: list[QueryText], use_cache: bool) -> list[Request]:
    return [query_request(text.label, text.text, use_cache=use_cache)
            for text in texts]


def latencies_by_label(samples: list[Sample]) -> dict[str, list[float]]:
    """Each text's latencies in the order they were measured."""
    by_label: dict[str, list[float]] = {}
    for sample in samples:
        by_label.setdefault(sample.label, []).append(sample.latency)
    return dict(sorted(by_label.items()))


def failures(samples: list[Sample]) -> list[str]:
    return [f"{sample.label}: status {sample.status}"
            for sample in samples if not sample.ok]


def account(result: Result, samples: list[Sample]) -> None:
    """Count timed requests as attempted and the wrong ones as failed."""
    result.attempted += len(samples)
    for message in failures(samples):
        result.fail(message)
