"""TBQL: the Threat Behavior Query Language subsystem.

Parser (Grammar 1), semantic resolution, query synthesis from threat behavior
graphs, compilation to SQL data queries, the path operator over the stored
event rows, pruning-score scheduling, the exact execution engine, and the
fuzzy (Poirot-extended) search mode.
"""

from .aggregate import apply_aggregation
from .ast import (AttributeComparison, AttributeRelation, BareValueFilter,
                  BooleanFilter, EntityDecl, EventPattern, MembershipFilter,
                  OperationAtom, OperationPath, ReturnClause, ReturnItem,
                  SequenceLink, TBQLQuery, TemporalRelation, TimeWindow)
from .compiler_sql import compile_giant_sql, compile_pattern_sql
from .conciseness import (ConcisenessMetrics, compare_conciseness,
                          measure_conciseness)
from .diagnostics import ParseDiagnostic, make_diagnostic
from .executor import PatternMatch, QueryResult, TBQLExecutor
from .formatter import format_pattern, format_query
from .fuzzy import (Alignment, FuzzySearcher, FuzzySearchResult,
                    levenshtein_distance, string_similarity)
from .lexer import tokenize
from .parser import OPERATION_NAMES, TBQLParser, parse_tbql
from .poirot import PoirotSearcher
from .scheduler import ScheduledStep, naive_schedule, pruning_score, schedule
from .semantics import (ResolvedAggregation, ResolvedPattern, ResolvedQuery,
                        resolve_query, parse_datetime)
from .synthesis import (SynthesisPlan, SynthesizedQuery, TBQLSynthesizer,
                        synthesize_tbql)

__all__ = [
    "apply_aggregation",
    "AttributeComparison",
    "AttributeRelation",
    "BareValueFilter",
    "BooleanFilter",
    "EntityDecl",
    "EventPattern",
    "MembershipFilter",
    "OperationAtom",
    "OperationPath",
    "ReturnClause",
    "ReturnItem",
    "SequenceLink",
    "TBQLQuery",
    "TemporalRelation",
    "TimeWindow",
    "compile_giant_sql",
    "compile_pattern_sql",
    "ConcisenessMetrics",
    "compare_conciseness",
    "measure_conciseness",
    "ParseDiagnostic",
    "make_diagnostic",
    "PatternMatch",
    "QueryResult",
    "TBQLExecutor",
    "format_pattern",
    "format_query",
    "Alignment",
    "FuzzySearcher",
    "FuzzySearchResult",
    "levenshtein_distance",
    "string_similarity",
    "tokenize",
    "OPERATION_NAMES",
    "TBQLParser",
    "parse_tbql",
    "PoirotSearcher",
    "ScheduledStep",
    "naive_schedule",
    "pruning_score",
    "schedule",
    "ResolvedAggregation",
    "ResolvedPattern",
    "ResolvedQuery",
    "resolve_query",
    "parse_datetime",
    "SynthesisPlan",
    "SynthesizedQuery",
    "TBQLSynthesizer",
    "synthesize_tbql",
]
