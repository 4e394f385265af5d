"""Unit tests for the TBQL -> SQL compiler, and for the TBQL -> Cypher
compilers of the giant-Cypher baseline and the path oracle."""

import pytest

from repro.benchmark.cypher import (compile_giant_cypher, execute_cypher,
                                    graph_from_store, parse_cypher)
from repro.errors import TBQLSemanticError
from repro.tbql.compiler_sql import compile_giant_sql, compile_pattern_sql
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .reference.cypher_paths import compile_pattern_cypher


def resolve(text):
    return resolve_query(parse_tbql(text))


def _sql(compiled):
    return compiled.sql, compiled.params


class TestPatternSQL:
    def test_basic_pattern_compiles_to_join(self):
        resolved = resolve('proc p["%/bin/tar%"] read file f["%/etc/p%"] '
                           'return p')
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        assert "JOIN entities s" in compiled.sql
        assert "JOIN entities o" in compiled.sql
        assert "LIKE" in compiled.sql
        assert "%/bin/tar%" in compiled.params

    def test_operation_filter(self):
        resolved = resolve("proc p read || write file f return p")
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        assert "e.operation IN (?, ?)" in compiled.sql
        assert set(compiled.params) >= {"read", "write"}

    def test_entity_type_constraints_always_present(self):
        resolved = resolve("proc p read file f return p")
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        assert "s.type = ?" in compiled.sql and "o.type = ?" in compiled.sql

    def test_candidate_injection(self):
        resolved = resolve("proc p read file f return p")
        compiled = compile_pattern_sql(resolved.patterns[0], resolved,
                                       subject_candidates=[1, 2, 3])
        assert "s.id IN (?, ?, ?)" in compiled.sql

    @pytest.mark.parametrize("side", ["subject", "object", "both"])
    def test_pushed_id_list_drives_the_statement(self, data_leak_store,
                                                 side):
        # A pushed id list is a handful of entities: the events table is
        # reached from them (or by primary key), never by walking every
        # event of the operation; the rows are what the unhinted
        # statement returns.
        resolved = resolve("proc p read || write file f return p, f")
        pattern = resolved.patterns[0]
        every = data_leak_store.execute_sql(
            *_sql(compile_pattern_sql(pattern, resolved)))
        pushed = {
            "subject_candidates": sorted({row["subject_id"]
                                          for row in every})[:5],
            "object_candidates": sorted({row["object_id"]
                                         for row in every})[:5]}
        if side != "both":
            del pushed["object_candidates" if side == "subject"
                       else "subject_candidates"]
        compiled = compile_pattern_sql(pattern, resolved, **pushed)
        assert "+e.operation IN (?, ?)" in compiled.sql
        plan = [row["detail"] for row in data_leak_store.execute_sql(
            "EXPLAIN QUERY PLAN " + compiled.sql, compiled.params)]
        [events] = [line for line in plan if " e " in line + " "]
        assert "idx_events_operation" not in events
        assert any(index in events for index in (
            "idx_events_subject", "idx_events_object", "PRIMARY KEY"))
        got = data_leak_store.execute_sql(*_sql(compiled))
        assert got == [row for row in every if
                       row["subject_id"] in pushed.get(
                           "subject_candidates", [row["subject_id"]]) and
                       row["object_id"] in pushed.get(
                           "object_candidates", [row["object_id"]])]
        assert got

    def test_unpushed_statement_keeps_the_operation_index(self):
        resolved = resolve("proc p read file f return p")
        for floor in (None, 7):
            compiled = compile_pattern_sql(resolved.patterns[0], resolved,
                                           min_event_id=floor)
            assert " e.operation IN (?)" in compiled.sql
            assert "+e.operation" not in compiled.sql

    def test_window_filter(self):
        resolved = resolve('proc p read file f as e1 from "100" to "200" '
                           'return p')
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        assert "e.start_time >= ?" in compiled.sql
        assert "e.end_time <= ?" in compiled.sql

    def test_event_attribute_filter(self):
        resolved = resolve("proc p read file f as e1[data_amount > 10] "
                           "return p")
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        assert "e.data_amount > ?" in compiled.sql

    def test_group_attribute_maps_to_grp_column(self):
        resolved = resolve('proc p[group = "wheel"] read file f return p')
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        assert "s.grp = ?" in compiled.sql

    def test_runs_on_relational_store(self, data_leak_store):
        resolved = resolve('proc p["%/bin/tar%"] read file '
                           'f["%/etc/passwd%"] return p, f')
        compiled = compile_pattern_sql(resolved.patterns[0], resolved)
        rows = data_leak_store.execute_sql(compiled.sql, compiled.params)
        assert rows
        assert all(row["operation"] == "read" for row in rows)


class TestGiantSQL:
    def test_one_alias_triple_per_pattern(self):
        resolved = resolve("proc p read file f as e1 "
                           "proc p write file g as e2 return p")
        sql = compile_giant_sql(resolved).sql
        assert "events e1" in sql and "events e2" in sql
        assert "entities s1" in sql and "entities o2" in sql

    def test_shared_entity_join_constraint(self):
        resolved = resolve("proc p read file f as e1 "
                           "proc p write file g as e2 return p")
        sql = compile_giant_sql(resolved).sql
        assert "s1.id = s2.id" in sql

    def test_temporal_clause(self):
        resolved = resolve("proc p read file f as e1 "
                           "proc p write file g as e2 "
                           "with e1 before e2 return p")
        sql = compile_giant_sql(resolved).sql
        assert "e1.end_time <= e2.start_time" in sql

    def test_bounded_temporal_clause(self):
        resolved = resolve("proc p read file f as e1 "
                           "proc p write file g as e2 "
                           "with e1 before[0-5 min] e2 return p")
        assert "e2.start_time - e1.end_time <= 300" in \
            compile_giant_sql(resolved).sql

    def test_attribute_relation_clause(self):
        resolved = resolve("proc p read file f as e1 "
                           "proc q write file g as e2 "
                           "with p.pid = q.pid return p")
        assert "s1.pid = s2.pid" in compile_giant_sql(resolved).sql

    def test_distinct_return(self):
        resolved = resolve("proc p read file f return distinct p, f.name")
        sql = compile_giant_sql(resolved).sql
        assert sql.startswith("SELECT DISTINCT")
        assert "AS p_exename" in sql and "AS f_name" in sql

    def test_executes_on_store(self, data_leak_store, data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        text = synthesize_tbql(data_leak_extraction.graph).text
        resolved = resolve(text)
        compiled = compile_giant_sql(resolved)
        rows = data_leak_store.execute_sql(compiled.sql, compiled.params)
        assert len(rows) == 1
        assert rows[0]["p1_exename"] == "/bin/tar"


class TestPatternCypher:
    def test_event_pattern_compiles(self):
        resolved = resolve('proc p["%/bin/tar%"] ->[read] file f return p')
        cypher = compile_pattern_cypher(resolved.patterns[0], resolved)
        assert "MATCH (s:proc)-[e:EVENT {operation: 'read'}]->(o:file)" in \
            cypher
        assert "s.exename CONTAINS '/bin/tar'" in cypher
        parse_cypher(cypher)        # must be valid mini-Cypher

    def test_variable_length_pattern(self):
        resolved = resolve("proc p ~>(2~4)[read] file f return p")
        cypher = compile_pattern_cypher(resolved.patterns[0], resolved)
        assert "[e:EVENT*2..4 {operation: 'read'}]" in cypher
        parse_cypher(cypher)

    def test_unbounded_path_gets_default_max(self):
        resolved = resolve("proc p ~> file f return p")
        cypher = compile_pattern_cypher(resolved.patterns[0], resolved)
        assert "*1..6" in cypher

    def test_multi_operation_filter_in_where(self):
        resolved = resolve("proc p ->[read || write] file f return p")
        cypher = compile_pattern_cypher(resolved.patterns[0], resolved)
        assert "e.operation = 'read' OR e.operation = 'write'" in cypher
        parse_cypher(cypher)

    def test_wildcard_translation(self):
        resolved = resolve('proc p["/bin/%"] ->[read] file f["%.tar"] '
                           'return p')
        cypher = compile_pattern_cypher(resolved.patterns[0], resolved)
        assert "STARTS WITH '/bin/'" in cypher
        assert "ENDS WITH '.tar'" in cypher

    def test_runs_on_graph_store(self, data_leak_store):
        resolved = resolve('proc p["%/usr/bin/curl%"] ->[connect] ip '
                           'i["192.168.29.128"] return p, i')
        cypher = compile_pattern_cypher(resolved.patterns[0], resolved)
        rows = execute_cypher(graph_from_store(data_leak_store), cypher)
        assert rows
        assert all("subject_id" in row for row in rows)


class TestGiantCypher:
    def test_every_pattern_in_match(self):
        resolved = resolve("proc p ->[read] file f as e1 "
                           "proc p ->[write] file g as e2 return p")
        cypher = compile_giant_cypher(resolved)
        assert cypher.count("-[e1:EVENT") == 1
        assert cypher.count("-[e2:EVENT") == 1
        parse_cypher(cypher)

    def test_shared_variables_not_redeclared(self):
        resolved = resolve("proc p ->[read] file f as e1 "
                           "proc p ->[write] file g as e2 return p")
        cypher = compile_giant_cypher(resolved)
        assert cypher.count("(p:proc)") == 1

    def test_return_aliases(self):
        resolved = resolve("proc p ->[read] file f return distinct p, f")
        cypher = compile_giant_cypher(resolved)
        assert "RETURN DISTINCT p.exename AS p_exename" in cypher

    def test_executes_on_store(self, data_leak_store, data_leak_extraction):
        from repro.tbql.synthesis import SynthesisPlan, TBQLSynthesizer
        plan = SynthesisPlan(use_path_patterns=True, fuzzy_paths=False,
                             temporal_order=False)
        text = TBQLSynthesizer(plan).synthesize(
            data_leak_extraction.graph).text
        resolved = resolve(text)
        rows = execute_cypher(graph_from_store(data_leak_store),
                              compile_giant_cypher(resolved))
        assert len(rows) == 1
        assert rows[0]["p1_exename"] == "/bin/tar"

    def test_bare_value_filter_rejected_uncompiled(self):
        from repro.tbql.ast import BareValueFilter
        from repro.benchmark.cypher import render_filter_cypher
        from repro.tbql.compiler_sql import render_filter
        with pytest.raises(TBQLSemanticError):
            render_filter(BareValueFilter("x"), "s", "e", [])
        with pytest.raises(TBQLSemanticError):
            render_filter_cypher(BareValueFilter("x"), "s", "e")
