"""TBQL v2 operator tests: sequence, negation, aggregation, diagnostics.

Each operator family is checked end-to-end (parse -> resolve -> execute)
and differentially: the optimized implementation against its naive
reference in ``tests/reference/executor_seed.py``, and the executor
against the single-statement SQL baseline where expressible.
"""

from __future__ import annotations

import pytest

from repro.benchmark.cypher import compile_giant_cypher
from repro.errors import TBQLSemanticError, TBQLSyntaxError
from repro.storage import DualStore
from repro.tbql.aggregate import apply_aggregation
from repro.tbql.diagnostics import ParseDiagnostic, make_diagnostic
from repro.tbql.executor import TBQLExecutor
from repro.tbql.formatter import format_query
from repro.tbql.lexer import tokenize
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import (ResolvedAggregation, resolve_query,
                                  query_is_time_dependent)

from .reference.executor_seed import (BacktrackingJoinExecutor,
                                      ScanAggregationExecutor,
                                      ScanNegationExecutor,
                                      apply_aggregation_scan)
from .test_tbql_join_equivalence import EQUIVALENCE_CORPUS

#: The corpus entries added for the v2 operators (kept at the tail).
V2_CORPUS = [text for text in EQUIVALENCE_CORPUS
             if "then" in text or "and not" in text or "count()" in text]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
class TestSequenceParsing:
    def test_then_builds_sequence_link(self):
        query = parse_tbql("proc p read file f "
                           "then proc p write file g return p")
        assert len(query.patterns) == 2
        assert len(query.sequence_links) == 1
        link = query.sequence_links[0]
        assert (link.left_index, link.right_index) == (0, 1)
        assert link.max_gap is None

    def test_then_with_gap_bound(self):
        query = parse_tbql("proc p read file f "
                           "then[90 sec] proc p write file g return p")
        link = query.sequence_links[0]
        assert link.max_gap == 90.0
        assert link.unit == "sec"

    def test_then_chain(self):
        query = parse_tbql("proc p read file f "
                           "then proc p write file g "
                           "then[5 min] proc q read file g return p, q")
        assert [(link.left_index, link.right_index)
                for link in query.sequence_links] == [(0, 1), (1, 2)]
        assert query.sequence_links[1].unit == "min"

    def test_then_requires_pattern(self):
        with pytest.raises(TBQLSyntaxError, match="after 'then'"):
            parse_tbql("proc p read file f then return p")

    def test_then_cannot_target_absence_pattern(self):
        with pytest.raises(TBQLSyntaxError, match="absence"):
            parse_tbql("proc p read file f "
                       "then and not proc p write file g return p")


class TestNegationParsing:
    def test_and_not_marks_pattern_negated(self):
        query = parse_tbql("proc p read file f "
                           "and not proc p connect ip i return p")
        assert [pattern.negated for pattern in query.patterns] == \
            [False, True]

    def test_and_alone_still_an_identifier(self):
        # 'and' is not a keyword; a pattern id may legally be 'and'.
        tokens = tokenize("and not")
        assert tokens[0].kind == "ident"
        assert tokens[1].kind == "keyword"

    def test_multiple_absence_patterns(self):
        query = parse_tbql("proc p read file f "
                           "and not proc p connect ip i "
                           "and not proc p delete file f return p")
        assert [pattern.negated for pattern in query.patterns] == \
            [False, True, True]


class TestAggregationParsing:
    def test_count_group_by_top(self):
        query = parse_tbql("proc p read file f "
                           "return p, count() group by p top 3")
        clause = query.return_clause
        assert [item.aggregate for item in clause.items] == [None, "count"]
        assert [item.entity_id for item in clause.group_by] == ["p"]
        assert clause.top_n == 3

    def test_group_by_attribute(self):
        query = parse_tbql("proc p read file f "
                           "return p.pid, count() group by p.pid")
        assert query.return_clause.group_by[0].attribute == "pid"

    def test_top_requires_positive_integer(self):
        with pytest.raises(TBQLSyntaxError, match="positive"):
            parse_tbql("proc p read file f return count() top 0")

    def test_keywords_usable_as_attribute_names(self):
        # 'group' / 'count' / 'top' became keywords; after a dot they must
        # still parse as attribute names.
        query = parse_tbql("proc p read file f return p.group")
        assert query.return_clause.items[0].attribute == "group"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------
class TestParseDiagnostics:
    def test_parser_error_carries_diagnostic(self):
        source = "proc p read file f\nreturn p,"
        with pytest.raises(TBQLSyntaxError) as excinfo:
            parse_tbql(source)
        diagnostic = excinfo.value.diagnostic
        assert isinstance(diagnostic, ParseDiagnostic)
        assert diagnostic.line == 2
        assert diagnostic.context == "return p,"

    def test_lexer_error_carries_diagnostic(self):
        with pytest.raises(TBQLSyntaxError) as excinfo:
            tokenize("proc p @ read file f")
        diagnostic = excinfo.value.diagnostic
        assert diagnostic is not None
        assert diagnostic.line == 1
        assert diagnostic.column == 8
        assert diagnostic.context == "proc p @ read file f"

    def test_caret_points_at_column(self):
        diagnostic = make_diagnostic("proc p read fil f", "boom", 1, 13)
        assert diagnostic.caret_line() == " " * 12 + "^"
        rendered = diagnostic.render()
        assert "line 1, column 13: boom" in rendered
        assert rendered.splitlines()[-1] == "  " + " " * 12 + "^"

    def test_as_dict_round_trip(self):
        diagnostic = make_diagnostic("proc p", "boom", 1, 3)
        assert diagnostic.as_dict() == {"message": "boom", "line": 1,
                                        "column": 3, "context": "proc p"}

    def test_line_beyond_source_renders_header_only(self):
        diagnostic = make_diagnostic("ab", "eof", 99, 1)
        assert diagnostic.context == ""
        assert diagnostic.render() == "line 99, column 1: eof"


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------
class TestV2Semantics:
    def test_then_resolves_to_temporal_relation(self):
        resolved = resolve_query(parse_tbql(
            "proc p read file f then[60 sec] proc p write file g "
            "return p"))
        assert len(resolved.temporal_relations) == 1
        relation = resolved.temporal_relations[0]
        assert relation.kind == "then"
        assert relation.max_gap == 60.0

    def test_all_negated_rejected(self):
        with pytest.raises(TBQLSemanticError, match="solely"):
            resolve_query(parse_tbql(
                "and not proc p read file f return p"))

    def test_return_of_negation_only_entity_rejected(self):
        with pytest.raises(TBQLSemanticError, match="absence"):
            resolve_query(parse_tbql(
                "proc p read file f and not proc q connect ip i "
                "return p, q"))

    def test_temporal_reference_to_negated_pattern_rejected(self):
        with pytest.raises(TBQLSemanticError, match="absence"):
            resolve_query(parse_tbql(
                "proc p read file f as e1 "
                "and not proc p connect ip i as e2 "
                "with e1 before e2 return p"))

    def test_attribute_relation_to_negation_only_entity_rejected(self):
        with pytest.raises(TBQLSemanticError, match="absence"):
            resolve_query(parse_tbql(
                "proc p read file f "
                "and not proc q connect ip i "
                "with p.pid = q.pid return p"))

    def test_group_by_requires_count(self):
        with pytest.raises(TBQLSemanticError, match="count"):
            resolve_query(parse_tbql(
                "proc p read file f return p group by p"))

    def test_top_requires_count(self):
        with pytest.raises(TBQLSemanticError, match="count"):
            resolve_query(parse_tbql(
                "proc p read file f return p top 3"))

    def test_at_most_one_count(self):
        with pytest.raises(TBQLSemanticError, match="at most one"):
            resolve_query(parse_tbql(
                "proc p read file f return count(), count()"))

    def test_distinct_count_rejected(self):
        with pytest.raises(TBQLSemanticError, match="distinct"):
            resolve_query(parse_tbql(
                "proc p read file f return distinct p, count()"))

    def test_plain_item_must_be_grouped(self):
        with pytest.raises(TBQLSemanticError, match="group by"):
            resolve_query(parse_tbql(
                "proc p read file f return p, f, count() group by p"))

    def test_implicit_grouping(self):
        resolved = resolve_query(parse_tbql(
            "proc p read file f return p.pid, count()"))
        assert resolved.aggregation == ResolvedAggregation(
            group_by=[("p", "pid")], output=[("p", "pid"), None],
            top_n=None)
        # return_items mirrors the grouping keys for the compilers.
        assert resolved.return_items == [("p", "pid")]

    def test_default_return_skips_negated_entities(self):
        resolved = resolve_query(parse_tbql(
            "proc p read file f and not proc p connect ip i"))
        assert {entity for entity, _attr in resolved.return_items} == \
            {"p", "f"}

    def test_sequence_query_not_time_dependent(self):
        query = parse_tbql("proc p read file f then proc p write file g "
                           "return p")
        assert not query_is_time_dependent(query)


# ---------------------------------------------------------------------------
# execution (differential against references)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def v2_store(data_leak_events):
    store = DualStore()
    store.load_events(data_leak_events)
    yield store
    store.close()


class TestSequenceExecution:
    def test_then_orders_matches(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'then proc q["%/usr/bin/curl%"] connect ip i '
            'return distinct p, q, i.dstip').rows
        assert rows == [{"p.exename": "/bin/tar",
                         "q.exename": "/usr/bin/curl",
                         "i.dstip": "192.168.29.128"}]

    def test_then_reversed_is_empty(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            'proc q["%/usr/bin/curl%"] connect ip i '
            'then proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'return p').rows
        assert rows == []

    def test_tight_gap_prunes(self, v2_store):
        unbounded = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'then proc q["%/usr/bin/curl%"] connect ip i '
            'return distinct p, q').rows
        bounded = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'then[1 sec] proc q["%/usr/bin/curl%"] connect ip i '
            'return distinct p, q').rows
        assert len(unbounded) == 1
        assert bounded == []   # the attack takes longer than a second

    def test_then_strictly_stronger_than_shared_window(self, v2_store):
        # Both orderings match a plain two-pattern join; 'then' keeps
        # exactly the ordered subset.
        joined = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'proc q["%/usr/bin/curl%"] connect ip i '
            'return distinct p, q').rows
        sequenced = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'then proc q["%/usr/bin/curl%"] connect ip i '
            'return distinct p, q').rows
        assert sequenced == joined   # attack is ordered: read then exfil


class TestNegationExecution:
    def test_absence_holds(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'and not proc p connect ip i return distinct p').rows
        assert rows == [{"p.exename": "/bin/tar"}]

    def test_absence_vetoes(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            'proc p["%/usr/bin/curl%"] read file f '
            'and not proc p connect ip i return p, f').rows
        assert rows == []

    def test_unrelated_absence_is_global(self, v2_store):
        # A negated pattern sharing no entity with the positives acts as
        # a global guard: any match at all vetoes everything.
        rows = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'and not proc q["%curl%"] connect ip i return p').rows
        assert rows == []

    def test_negated_path_pattern(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'and not proc p ~>(1~2)[connect] ip i '
            'return distinct p').rows
        assert rows == [{"p.exename": "/bin/tar"}]

    @pytest.mark.parametrize("text", V2_CORPUS)
    def test_hash_matches_scan_reference(self, v2_store, text):
        results = []
        for executor_class in (TBQLExecutor, ScanNegationExecutor):
            result = executor_class(v2_store).execute(text)
            results.append((result.rows, result.matched_events))
        assert results[0] == results[1]

    def test_plan_marks_negated_steps(self, v2_store):
        result = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
            'and not proc p connect ip i return p')
        flags = {step.pattern_id: step.negated for step in result.plan}
        assert sorted(flags.values()) == [False, True]
        # Negated steps run after every positive step.
        assert [step.negated for step in result.plan] == \
            sorted(step.negated for step in result.plan)


class TestAggregationExecution:
    def test_top_n_noisy_processes(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            "proc p read file f return p, count() group by p top 3").rows
        assert len(rows) == 3
        counts = [row["count"] for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert all(set(row) == {"p.exename", "count"} for row in rows)

    def test_global_count(self, v2_store):
        rows = TBQLExecutor(v2_store).execute(
            'proc p["%/bin/tar%"] read file f return count()').rows
        assert len(rows) == 1
        assert rows[0]["count"] >= 1

    @pytest.mark.parametrize("text", V2_CORPUS)
    def test_hash_matches_scan_reference(self, v2_store, text):
        results = []
        for executor_class in (TBQLExecutor, ScanAggregationExecutor):
            results.append(executor_class(v2_store).execute(text).rows)
        assert results[0] == results[1]

    def test_tie_order_is_first_seen_stable(self):
        aggregation = ResolvedAggregation(group_by=[("p", "pid")],
                                          output=[("p", "pid"), None],
                                          top_n=None)
        rows = [{"p.pid": 2}, {"p.pid": 1}, {"p.pid": 2}, {"p.pid": 1}]
        expected = [{"p.pid": 1, "count": 2}, {"p.pid": 2, "count": 2}]
        for aggregate in (apply_aggregation, apply_aggregation_scan):
            assert aggregate(rows, aggregation) == expected


class TestJoinStrategyEquivalenceV2:
    @pytest.mark.parametrize("text", V2_CORPUS)
    def test_hash_join_matches_backtracking(self, v2_store, text):
        results = []
        for executor_class in (TBQLExecutor, BacktrackingJoinExecutor):
            result = executor_class(v2_store).execute(text)
            results.append((result.rows, result.matched_events))
        assert results[0] == results[1]


class TestGiantBaselinesV2:
    @pytest.mark.parametrize("text", V2_CORPUS)
    def test_giant_sql_agrees_with_executor(self, v2_store, text):
        executor = TBQLExecutor(v2_store)
        resolved = resolve_query(parse_tbql(text))
        giant = executor.execute_giant_sql(resolved)
        rows = executor.execute(resolved).rows
        normalized = [{key.replace("_", ".", 1) if key != "count"
                       else key: value for key, value in row.items()}
                      for row in giant]
        if resolved.distinct:
            deduped = []
            for row in normalized:
                if row not in deduped:
                    deduped.append(row)
            normalized = deduped
        assert sorted(map(repr, normalized)) == sorted(map(repr, rows))

    def test_giant_cypher_rejects_negation(self, v2_store):
        resolved = resolve_query(parse_tbql(
            "proc p read file f and not proc p connect ip i return p"))
        with pytest.raises(TBQLSemanticError, match="NOT EXISTS"):
            compile_giant_cypher(resolved)

    def test_giant_cypher_rejects_aggregation(self, v2_store):
        resolved = resolve_query(parse_tbql(
            "proc p read file f return count()"))
        with pytest.raises(TBQLSemanticError, match="aggregation"):
            compile_giant_cypher(resolved)


class TestFormatterV2:
    @pytest.mark.parametrize("text", V2_CORPUS)
    def test_canonical_text_round_trips(self, text):
        formatted = format_query(parse_tbql(text))
        assert format_query(parse_tbql(formatted)) == formatted

    def test_rendering(self):
        formatted = format_query(parse_tbql(
            'proc p read file f then[60 sec] proc p write file g '
            'and not proc p connect ip i '
            'return p, count() group by p top 5'))
        assert "then[60 sec] proc p write file g" in formatted
        assert "and not proc p connect ip i" in formatted
        assert formatted.endswith("return p, count()\ngroup by p\ntop 5")
