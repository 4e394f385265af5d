"""Experiment drivers that regenerate every table of the paper's evaluation.

Each ``run_*`` function corresponds to one table:

* :func:`run_extraction_accuracy`  -> Table V   (RQ1)
* :func:`run_hunting_accuracy`     -> Table VI  (RQ2)
* :func:`run_extraction_timing`    -> Table VII (RQ3)
* :func:`run_query_execution`      -> Table VIII (RQ4, exact mode)
* :func:`run_fuzzy_comparison`     -> Table IX  (RQ4, fuzzy mode vs Poirot)
* :func:`run_conciseness`          -> Table X   (RQ5)

The functions return plain data structures (lists of row dictionaries) so the
pytest-benchmark harnesses and the examples can both print the same rows the
paper reports.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..extraction.openie import ClauseOpenIE, PatternOpenIE
from ..extraction.pipeline import PipelineConfig, ThreatBehaviorExtractor
from ..hunting.threatraptor import ThreatRaptor
from ..storage.dualstore import DualStore
from ..tbql.conciseness import measure_conciseness
from ..tbql.executor import TBQLExecutor
from ..tbql.fuzzy import FuzzySearcher, _forget_index
from ..tbql.poirot import PoirotSearcher
from ..tbql.synthesis import TBQLSynthesizer
from .case import AttackCase, CaseBuilder, step_signature
from .cases import ALL_CASES
from .metrics import (PRF, aggregate, score_hunting, score_ioc_entities,
                      score_ioc_relations)
from .queries import CaseQueries, build_case_queries


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def build_case_store(case: AttackCase,
                     benign_sessions: int | None = None) -> tuple[DualStore,
                                                                  set]:
    """Materialize a case into a loaded store plus hunting ground truth."""
    built = CaseBuilder().build(case, benign_sessions=benign_sessions)
    store = DualStore()
    store.load_events(built.events)
    return store, built.attack_signatures


# ---------------------------------------------------------------------------
# Table V: accuracy of threat behavior extraction
# ---------------------------------------------------------------------------


@dataclass
class ExtractionApproach:
    """One row of Table V: an extraction approach to score."""

    name: str
    extract_entities: Callable[[str], list[str]]
    extract_relations: Callable[[str], list[tuple[str, str, str]]]


def _threatraptor_approach(ioc_protection: bool) -> ExtractionApproach:
    config = PipelineConfig(ioc_protection=ioc_protection)

    def entities(text: str) -> list[str]:
        return ThreatBehaviorExtractor(config).extract(text).ioc_values

    def relations(text: str) -> list[tuple[str, str, str]]:
        return ThreatBehaviorExtractor(config).extract(text).relation_triples

    suffix = "" if ioc_protection else " - IOC Protection"
    return ExtractionApproach(name=f"ThreatRaptor{suffix}",
                              extract_entities=entities,
                              extract_relations=relations)


def _openie_approach(name: str, cls, ioc_protection: bool
                     ) -> ExtractionApproach:
    def entities(text: str) -> list[str]:
        return cls(ioc_protection=ioc_protection).entities(text)

    def relations(text: str) -> list[tuple[str, str, str]]:
        return [(t.subject, t.relation, t.obj)
                for t in cls(ioc_protection=ioc_protection).extract(text)]

    suffix = " + IOC Protection" if ioc_protection else ""
    return ExtractionApproach(name=f"{name}{suffix}",
                              extract_entities=entities,
                              extract_relations=relations)


def default_approaches() -> list[ExtractionApproach]:
    """The six approaches compared in Table V."""
    return [
        _threatraptor_approach(ioc_protection=True),
        _threatraptor_approach(ioc_protection=False),
        _openie_approach("Stanford Open IE", ClauseOpenIE, False),
        _openie_approach("Stanford Open IE", ClauseOpenIE, True),
        _openie_approach("Open IE 5", PatternOpenIE, False),
        _openie_approach("Open IE 5", PatternOpenIE, True),
    ]


def run_extraction_accuracy(cases: Sequence[AttackCase] = ALL_CASES,
                            approaches: Iterable[ExtractionApproach] | None
                            = None) -> list[dict]:
    """Regenerate Table V: entity/relation extraction P/R/F1 per approach."""
    rows = []
    for approach in (approaches or default_approaches()):
        entity_scores: list[PRF] = []
        relation_scores: list[PRF] = []
        for case in cases:
            predicted_entities = approach.extract_entities(case.description)
            predicted_relations = approach.extract_relations(case.description)
            entity_scores.append(score_ioc_entities(
                predicted_entities, case.ground_truth_iocs))
            relation_scores.append(score_ioc_relations(
                predicted_relations, case.ground_truth_relations))
        entity_total = aggregate(entity_scores)
        relation_total = aggregate(relation_scores)
        rows.append({
            "approach": approach.name,
            "entity_precision": entity_total.precision,
            "entity_recall": entity_total.recall,
            "entity_f1": entity_total.f1,
            "relation_precision": relation_total.precision,
            "relation_recall": relation_total.recall,
            "relation_f1": relation_total.f1,
        })
    return rows


# ---------------------------------------------------------------------------
# Table VI: accuracy of threat hunting
# ---------------------------------------------------------------------------


def run_hunting_accuracy(cases: Sequence[AttackCase] = ALL_CASES,
                         benign_sessions: int | None = None) -> list[dict]:
    """Regenerate Table VI: per-case precision/recall of found events."""
    rows = []
    for case in cases:
        store, ground_truth = build_case_store(case, benign_sessions)
        raptor = ThreatRaptor(store=store)
        report = raptor.hunt(case.description)
        found = report.result.matched_event_signatures
        score = score_hunting(found, ground_truth)
        rows.append({
            "case": case.case_id,
            "tp": score.true_positives,
            "fp": score.false_positives,
            "fn": score.false_negatives,
            "precision": score.precision,
            "recall": score.recall,
            "f1": score.f1,
            "expected_misses": len({step_signature(step)
                                    for step in case.expected_misses}),
        })
        store.close()
    total = aggregate(PRF(row["tp"], row["fp"], row["fn"]) for row in rows)
    rows.append({"case": "Total", "tp": total.true_positives,
                 "fp": total.false_positives, "fn": total.false_negatives,
                 "precision": total.precision, "recall": total.recall,
                 "f1": total.f1, "expected_misses": None})
    return rows


# ---------------------------------------------------------------------------
# Table VII: efficiency of threat behavior extraction
# ---------------------------------------------------------------------------


def run_extraction_timing(cases: Sequence[AttackCase] = ALL_CASES
                          ) -> list[dict]:
    """Regenerate Table VII: per-stage execution time per case."""
    rows = []
    for case in cases:
        extractor = ThreatBehaviorExtractor()
        extraction = extractor.extract(case.description)
        synthesis_start = time.perf_counter()
        TBQLSynthesizer().synthesize(extraction.graph)
        synthesis_seconds = time.perf_counter() - synthesis_start

        baseline_times = {}
        for name, cls, protection in (
                ("stanford_openie", ClauseOpenIE, False),
                ("stanford_openie_prot", ClauseOpenIE, True),
                ("openie5", PatternOpenIE, False),
                ("openie5_prot", PatternOpenIE, True)):
            start = time.perf_counter()
            cls(ioc_protection=protection).extract(case.description)
            baseline_times[name] = time.perf_counter() - start
        rows.append({
            "case": case.case_id,
            "text_to_entities_relations": extraction.extraction_seconds,
            "entities_relations_to_graph": extraction.graph_seconds,
            "graph_to_tbql": synthesis_seconds,
            **baseline_times,
        })
    return rows


# ---------------------------------------------------------------------------
# Table VIII: efficiency of TBQL query execution (exact mode)
# ---------------------------------------------------------------------------


def run_query_execution(case: AttackCase, rounds: int = 5,
                        benign_sessions: int | None = None,
                        queries: CaseQueries | None = None) -> dict:
    """Regenerate one row of Table VIII for ``case``.

    Returns mean/std execution time over ``rounds`` rounds for scheduled
    TBQL, giant SQL, scheduled TBQL with length-1 path patterns, and the
    giant SQL of that path variant.  The paper's fourth column, giant
    Cypher on Neo4j, is not reproduced: there is no graph database.
    """
    store, _ = build_case_store(case, benign_sessions)
    queries = queries or build_case_queries(case)
    executor = TBQLExecutor(store)

    def time_call(callable_) -> tuple[float, float]:
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            callable_()
            samples.append(time.perf_counter() - start)
        mean = statistics.fmean(samples)
        std = statistics.pstdev(samples) if len(samples) > 1 else 0.0
        return mean, std

    tbql_mean, tbql_std = time_call(lambda: executor.execute(queries.tbql))
    sql_mean, sql_std = time_call(
        lambda: store.execute_sql(*_split_sql(queries.sql)))
    path_mean, path_std = time_call(
        lambda: executor.execute(queries.tbql_path))
    sql_path_mean, sql_path_std = time_call(
        lambda: store.execute_sql(*_split_sql(queries.sql_path)))
    store.close()
    return {
        "case": case.case_id,
        "tbql_mean": tbql_mean, "tbql_std": tbql_std,
        "sql_mean": sql_mean, "sql_std": sql_std,
        "tbql_path_mean": path_mean, "tbql_path_std": path_std,
        "sql_path_mean": sql_path_mean, "sql_path_std": sql_path_std,
    }


def _split_sql(sql_text: str) -> tuple[str, list]:
    return sql_text, []


def run_query_execution_all(cases: Sequence[AttackCase] = ALL_CASES,
                            rounds: int = 3,
                            benign_sessions: int | None = None
                            ) -> list[dict]:
    """Regenerate Table VIII for every case plus the total row."""
    rows = [run_query_execution(case, rounds=rounds,
                                benign_sessions=benign_sessions)
            for case in cases]
    totals = {"case": "Total"}
    for key in ("tbql_mean", "sql_mean", "tbql_path_mean", "sql_path_mean"):
        totals[key] = sum(row[key] for row in rows)
    rows.append(totals)
    return rows


# ---------------------------------------------------------------------------
# Table IX: fuzzy search mode vs Poirot
# ---------------------------------------------------------------------------


def run_fuzzy_comparison(case: AttackCase,
                         benign_sessions: int | None = None,
                         queries: CaseQueries | None = None) -> dict:
    """Regenerate one row of Table IX for ``case``."""
    store, ground_truth = build_case_store(case, benign_sessions)
    queries = queries or build_case_queries(case)
    fuzzy = FuzzySearcher(store).search(queries.tbql)
    _forget_index(store)   # Poirot loads and preprocesses in the table too
    poirot = PoirotSearcher(store).search(queries.tbql)
    store.close()
    return {
        "case": case.case_id,
        "fuzzy_loading": fuzzy.loading_seconds,
        "fuzzy_preprocessing": fuzzy.preprocessing_seconds,
        "fuzzy_searching": fuzzy.searching_seconds,
        "fuzzy_total": fuzzy.total_seconds,
        "fuzzy_alignments": len(fuzzy.alignments),
        "poirot_loading": poirot.loading_seconds,
        "poirot_preprocessing": poirot.preprocessing_seconds,
        "poirot_searching": poirot.searching_seconds,
        "poirot_total": poirot.total_seconds,
        "poirot_alignments": len(poirot.alignments),
        "ground_truth_events": len(ground_truth),
    }


# ---------------------------------------------------------------------------
# Table X: conciseness
# ---------------------------------------------------------------------------


def run_conciseness(cases: Sequence[AttackCase] = ALL_CASES) -> list[dict]:
    """Regenerate Table X: characters and words per query language."""
    rows = []
    totals = {"tbql_chars": 0, "tbql_words": 0, "sql_chars": 0,
              "sql_words": 0, "path_chars": 0, "path_words": 0,
              "cypher_chars": 0, "cypher_words": 0, "patterns": 0}
    for case in cases:
        queries = build_case_queries(case)
        tbql = measure_conciseness(queries.tbql)
        sql = measure_conciseness(queries.sql)
        path = measure_conciseness(queries.tbql_path)
        cypher = measure_conciseness(queries.cypher)
        rows.append({
            "case": case.case_id,
            "patterns": queries.pattern_count,
            "tbql_chars": tbql.characters, "tbql_words": tbql.words,
            "sql_chars": sql.characters, "sql_words": sql.words,
            "path_chars": path.characters, "path_words": path.words,
            "cypher_chars": cypher.characters, "cypher_words": cypher.words,
        })
        totals["patterns"] += queries.pattern_count
        totals["tbql_chars"] += tbql.characters
        totals["tbql_words"] += tbql.words
        totals["sql_chars"] += sql.characters
        totals["sql_words"] += sql.words
        totals["path_chars"] += path.characters
        totals["path_words"] += path.words
        totals["cypher_chars"] += cypher.characters
        totals["cypher_words"] += cypher.words
    rows.append({"case": "Total", **totals})
    return rows


# ---------------------------------------------------------------------------
# pretty-printing helpers shared by benches and examples
# ---------------------------------------------------------------------------


def format_table(rows: list[dict], columns: list[str] | None = None,
                 floatfmt: str = "{:.2f}") -> str:
    """Render rows as a fixed-width text table (for bench output)."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    rendered: list[list[str]] = []
    for row in rows:
        line = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                line.append(floatfmt.format(value))
            else:
                line.append(str(value))
        rendered.append(line)
    widths = [max(len(columns[i]), max(len(line[i]) for line in rendered))
              for i in range(len(columns))]
    header = "  ".join(column.ljust(width)
                       for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(line, widths))
                     for line in rendered)
    return "\n".join([header, separator, body])


__all__ = [
    "ExtractionApproach",
    "default_approaches",
    "build_case_store",
    "run_extraction_accuracy",
    "run_hunting_accuracy",
    "run_extraction_timing",
    "run_query_execution",
    "run_query_execution_all",
    "run_fuzzy_comparison",
    "run_conciseness",
    "format_table",
]
