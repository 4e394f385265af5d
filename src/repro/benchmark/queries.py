"""Equivalent query generation for the RQ4 / RQ5 comparisons.

For every attack case the evaluation compares four semantically equivalent
queries (Section IV-B4):

(a) the TBQL query with event-pattern syntax (scheduled, PostgreSQL backend),
(b) a single giant SQL query,
(c) the TBQL query with length-1 event path pattern syntax (scheduled,
    the path operator over the stored rows),
(d) a single giant Cypher query.

Without a graph database (d) is text only: Table X measures it, and
Table VIII times in its place the giant SQL of (c), whose length-1 paths
are recursive CTEs (``sql_path``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..extraction.pipeline import ThreatBehaviorExtractor
from ..tbql.compiler_sql import compile_giant_sql
from ..tbql.parser import parse_tbql
from ..tbql.semantics import resolve_query
from ..tbql.synthesis import SynthesisPlan, TBQLSynthesizer
from .case import AttackCase
from .cypher import compile_giant_cypher


@dataclass(frozen=True)
class CaseQueries:
    """The four equivalent query texts for one case, and the giant SQL
    of the length-1 path variant."""

    case_id: str
    tbql: str
    sql: str
    tbql_path: str
    cypher: str
    pattern_count: int
    sql_path: str

    def as_dict(self) -> dict[str, str]:
        return {"TBQL": self.tbql, "SQL": self.sql,
                "TBQL (length-1 path)": self.tbql_path,
                "Cypher": self.cypher}


def build_case_queries(case: AttackCase,
                       extractor: ThreatBehaviorExtractor | None = None
                       ) -> CaseQueries:
    """Extract the case's behavior graph and derive all four query variants."""
    extractor = extractor or ThreatBehaviorExtractor()
    extraction = extractor.extract(case.description)
    event_plan = SynthesisPlan()
    path_plan = SynthesisPlan(use_path_patterns=True, fuzzy_paths=False,
                              temporal_order=False)
    tbql = TBQLSynthesizer(event_plan).synthesize(extraction.graph)
    tbql_path = TBQLSynthesizer(path_plan).synthesize(extraction.graph)
    resolved = resolve_query(parse_tbql(tbql.text))
    resolved_path = resolve_query(parse_tbql(tbql_path.text))
    sql = compile_giant_sql(resolved)
    sql_path = compile_giant_sql(resolved_path)
    cypher = compile_giant_cypher(resolved_path)
    return CaseQueries(case_id=case.case_id, tbql=tbql.text,
                       sql=_inline_sql_params(sql.sql, sql.params),
                       tbql_path=tbql_path.text, cypher=cypher,
                       pattern_count=tbql.pattern_count,
                       sql_path=_inline_sql_params(sql_path.sql,
                                                   sql_path.params))


def _inline_sql_params(sql: str, params: list) -> str:
    """Inline bound parameters so the SQL text is the analyst-written form.

    The conciseness comparison (Table X) measures the query text an analyst
    would have to write by hand, which contains literal values rather than
    placeholders.
    """
    rendered = sql
    for value in params:
        literal = f"'{value}'" if isinstance(value, str) else str(value)
        rendered = rendered.replace("?", literal, 1)
    return rendered


__all__ = ["CaseQueries", "build_case_queries"]
