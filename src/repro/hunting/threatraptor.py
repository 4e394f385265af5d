"""The ThreatRaptor facade: OSCTI-driven threat hunting end to end.

Mirrors Figure 1 of the paper: audit logs are collected and stored in the
dual database backends; an OSCTI report is turned into a threat behavior
graph; a TBQL query is synthesized from the graph (the analyst may revise
it); the query is executed in exact mode, or in fuzzy mode when exact search
does not retrieve meaningful results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from ..audit.entities import SystemEvent
from ..audit.parser import parse_audit_log
from ..extraction.pipeline import (ExtractionResult,
                                   ThreatBehaviorExtractor)
from ..obs.trace import start_span
from ..storage.dualstore import DualStore
from ..tbql.executor import QueryResult, TBQLExecutor
from ..tbql.fuzzy import FuzzySearcher, FuzzySearchResult
from ..tbql.parser import parse_tbql
from ..tbql.semantics import ResolvedQuery, resolve_query
from ..tbql.synthesis import SynthesisPlan, SynthesizedQuery, TBQLSynthesizer


@dataclass
class HuntReport:
    """Everything ThreatRaptor produced for one OSCTI-driven hunt."""

    extraction: ExtractionResult
    synthesized: SynthesizedQuery
    executed_query: str
    result: QueryResult
    synthesis_seconds: float = 0.0
    fuzzy_result: Optional[FuzzySearchResult] = None

    @property
    def total_pipeline_seconds(self) -> float:
        """Extraction + graph construction + synthesis time (RQ3)."""
        return (self.extraction.extraction_seconds +
                self.extraction.graph_seconds + self.synthesis_seconds)


@dataclass
class ThreatRaptor:
    """Facade over the auditing, extraction, and query subsystems."""

    store: DualStore = field(default_factory=DualStore)
    extractor: ThreatBehaviorExtractor = field(
        default_factory=ThreatBehaviorExtractor)
    synthesis_plan: SynthesisPlan = field(default_factory=SynthesisPlan)
    use_scheduler: bool = True

    @classmethod
    def open_snapshot(cls, path: str | Path, **kwargs) -> "ThreatRaptor":
        """Hunt against a persisted dual-store snapshot (read-only).

        The snapshot must have been written by :meth:`DualStore.save`
        (``repro snapshot``); the opened store serves queries only.
        """
        return cls(store=DualStore.open(path), **kwargs)

    # ------------------------------------------------------------------
    # data ingestion
    # ------------------------------------------------------------------
    def ingest_log_text(self, log_text: str) -> int:
        """Parse auditd-style log text and load it into both backends."""
        events = parse_audit_log(log_text)
        return self.store.load_events(events)

    def ingest_events(self, events: Iterable[SystemEvent]) -> int:
        """Load already-parsed system events into both backends."""
        return self.store.load_events(events)

    # ------------------------------------------------------------------
    # OSCTI-driven hunting
    # ------------------------------------------------------------------
    def extract(self, oscti_text: str) -> ExtractionResult:
        """Extract the threat behavior graph from an OSCTI report."""
        return self.extractor.extract(oscti_text)

    def synthesize(self, extraction: ExtractionResult) -> SynthesizedQuery:
        """Synthesize a TBQL query from an extraction result."""
        return TBQLSynthesizer(self.synthesis_plan).synthesize(
            extraction.graph)

    def hunt(self, oscti_text: str, revised_query: Optional[str] = None,
             fallback_to_fuzzy: bool = False) -> HuntReport:
        """Run the full pipeline: extract, synthesize, (optionally) execute
        a revised query, and search the audit data.

        Args:
            oscti_text: the OSCTI report describing the attack.
            revised_query: optional analyst-edited TBQL replacing the
                synthesized query (human-in-the-loop analysis).
            fallback_to_fuzzy: run the fuzzy search mode when the exact
                search returns no results.
        """
        extraction = self.extract(oscti_text)
        synthesis_start = time.perf_counter()
        synthesized = self.synthesize(extraction)
        synthesis_seconds = time.perf_counter() - synthesis_start
        query_text = revised_query if revised_query is not None \
            else synthesized.text
        # One resolution serves the exact search and the fuzzy fallback.
        with start_span("parse"):
            resolved = resolve_query(parse_tbql(query_text))
        result = self.execute_tbql(resolved)
        fuzzy_result = None
        if fallback_to_fuzzy and not result.rows:
            fuzzy_result = self.fuzzy_search(resolved)
        return HuntReport(extraction=extraction, synthesized=synthesized,
                          executed_query=query_text, result=result,
                          synthesis_seconds=synthesis_seconds,
                          fuzzy_result=fuzzy_result)

    # ------------------------------------------------------------------
    # proactive hunting with manually constructed queries
    # ------------------------------------------------------------------
    def execute_tbql(self, query_text: str | ResolvedQuery,
                     now: Optional[float] = None) -> QueryResult:
        """Execute a TBQL query (text or resolved) in exact search mode.

        The executor is reused across calls, so its hydrated-entity cache
        stays warm over a hunting session; it invalidates itself when the
        store's data is replaced (``DualStore.data_version``).
        """
        return self._executor().execute(query_text, now=now)

    def _executor(self) -> TBQLExecutor:
        executor: Optional[TBQLExecutor] = \
            self.__dict__.get("_cached_executor")
        if executor is None or executor.store is not self.store or \
                executor.use_scheduler != self.use_scheduler:
            executor = TBQLExecutor(self.store,
                                    use_scheduler=self.use_scheduler)
            self.__dict__["_cached_executor"] = executor
        return executor

    def fuzzy_search(self, query_text: str | ResolvedQuery
                     ) -> FuzzySearchResult:
        """Execute a TBQL query (text or resolved) in fuzzy (inexact
        graph matching) mode."""
        return FuzzySearcher(self.store).search(query_text)


__all__ = ["ThreatRaptor", "HuntReport"]
