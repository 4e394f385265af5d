"""Unit tests for the TBQL -> SQL compiler, and for the TBQL -> Cypher
compiler of the giant-Cypher text."""

import pytest

from repro.benchmark.cypher import compile_giant_cypher
from repro.errors import TBQLSemanticError
from repro.tbql.compiler_sql import compile_giant_sql, compile_pattern_sql
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query


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


    def test_event_patterns_render_as_before(self):
        """Only path patterns are CTEs: a text without one renders
        exactly this statement, which the e2e oracle and Table VIII's
        SQL column rely on."""
        compiled = compile_giant_sql(resolve(
            'proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 '
            'proc p[data_amount > 5] write file g as e2 '
            'and not proc p connect ip i '
            'with e1 before[0-5 min] e2 return distinct p, g.name'))
        assert compiled.sql == (
            "SELECT DISTINCT s1.exename AS p_exename, o2.name AS g_name "
            "FROM events e1, entities s1, entities o1, events e2, "
            "entities s2, entities o2 "
            "WHERE e1.subject_id = s1.id AND e1.object_id = o1.id "
            "AND s1.type = ? AND o1.type = ? AND e1.operation IN (?) "
            "AND s1.exename LIKE ? ESCAPE '\\' "
            "AND o1.name LIKE ? ESCAPE '\\' "
            "AND e2.subject_id = s2.id AND e2.object_id = o2.id "
            "AND s2.type = ? AND o2.type = ? AND e2.operation IN (?) "
            "AND e2.data_amount > ? AND s1.id = s2.id "
            "AND NOT EXISTS (SELECT 1 FROM events ne3 "
            "JOIN entities ns3 ON ne3.subject_id = ns3.id "
            "JOIN entities no3 ON ne3.object_id = no3.id "
            "WHERE ns3.type = ? AND no3.type = ? AND ne3.operation IN (?) "
            "AND ns3.id = s1.id) "
            "AND e1.end_time <= e2.start_time "
            "AND e2.start_time - e1.end_time <= 300.0")
        assert compiled.params == [
            "proc", "file", "read", "%/bin/tar%", "%/etc/passwd%", "proc",
            "file", "write", 5, "proc", "ip", "connect"]

    def test_path_pattern_is_a_recursive_cte(self):
        compiled = compile_giant_sql(resolve(
            'proc p["%/bin/tar%" && data_amount > 5] ~>(2~4)[read] '
            'file f return p'))
        sql = compiled.sql
        assert sql.startswith(
            "WITH RECURSIVE p1(start_id, node, hops, trail, last_id) AS ("
            "SELECT s.id, s.id, 0, ',', NULL FROM entities s "
            "WHERE s.type = ? AND s.exename LIKE ? ESCAPE '\\' UNION ALL")
        assert "p1.hops < 4 AND instr(p1.trail, ',' || e.id || ',') = 0" \
            in sql
        # The start is the subject; the final hop is the pattern's event
        # and carries the event attribute of the subject filter.
        assert "e1.id = p1.last_id AND p1.hops >= 2" in sql
        assert "s1.id = p1.start_id" in sql
        assert "e1.object_id = o1.id" in sql
        assert "e1.data_amount > ?" in sql
        assert compiled.params[:2] == ["proc", "%/bin/tar%"]

    def test_unbounded_path_stops_at_the_default_cap(self):
        sql = compile_giant_sql(resolve("proc p ~> file f return p")).sql
        assert "p1.hops < 6 " in sql and "p1.hops >= 1" in sql

    def test_negated_path_is_a_not_exists_over_its_cte(self):
        sql = compile_giant_sql(resolve(
            "proc p read file f and not proc p ~>(1~2) ip i "
            "return p")).sql
        assert sql.startswith("WITH RECURSIVE p2(")
        assert ("NOT EXISTS (SELECT 1 FROM p2 JOIN events ne2 "
                "ON ne2.id = p2.last_id AND p2.hops >= 1 "
                "JOIN entities ns2 ON ns2.id = p2.start_id "
                "JOIN entities no2 ON ne2.object_id = no2.id WHERE") in sql

    def test_path_variant_executes_on_store(self, data_leak_store,
                                            data_leak_extraction):
        from repro.tbql.synthesis import SynthesisPlan, TBQLSynthesizer
        plan = SynthesisPlan(use_path_patterns=True, fuzzy_paths=False,
                             temporal_order=False)
        text = TBQLSynthesizer(plan).synthesize(
            data_leak_extraction.graph).text
        compiled = compile_giant_sql(resolve(text))
        rows = data_leak_store.execute_sql(compiled.sql, compiled.params)
        assert len(rows) == 1
        assert rows[0]["p1_exename"] == "/bin/tar"


class TestGiantCypher:
    def test_every_pattern_in_match(self):
        resolved = resolve("proc p ->[read] file f as e1 "
                           "proc p ->[write] file g as e2 return p")
        cypher = compile_giant_cypher(resolved)
        assert cypher.count("-[e1:EVENT") == 1
        assert cypher.count("-[e2:EVENT") == 1

    def test_shared_variables_not_redeclared(self):
        resolved = resolve("proc p ->[read] file f as e1 "
                           "proc p ->[write] file g as e2 return p")
        cypher = compile_giant_cypher(resolved)
        assert cypher.count("(p:proc)") == 1

    def test_return_aliases(self):
        resolved = resolve("proc p ->[read] file f return distinct p, f")
        cypher = compile_giant_cypher(resolved)
        assert "RETURN DISTINCT p.exename AS p_exename" in cypher

    @pytest.mark.parametrize("text, fragment", [
        ('proc p["%/bin/tar%"] ->[read] file f',
         "MATCH (p:proc)-[evt1:EVENT {operation: 'read'}]->(f:file) "
         "WHERE p.exename CONTAINS '/bin/tar' RETURN"),
        ("proc p ~>(2~4)[read] file f",
         "-[evt1:EVENT*2..4 {operation: 'read'}]->"),
        ("proc p ~> file f", "-[evt1:EVENT*1..6]->"),
        ("proc p ->[read || write] file f",
         "WHERE (evt1.operation = 'read' OR evt1.operation = 'write')"),
        ('proc p["/bin/%"] ->[read] file f["%.tar"]',
         "WHERE p.exename STARTS WITH '/bin/' AND f.name ENDS WITH '.tar'"),
        ('proc p["/bin/%/tar"] read file f', "p.exename =~ '^/bin/.*/tar$'"),
        ('proc p read file f[name != "%.tmp"]',
         "WHERE NOT (f.name ENDS WITH '.tmp')"),
        ('proc p[exename in {"/bin/sh", "%bash"}] read file f',
         "WHERE (p.exename = '/bin/sh' OR p.exename ENDS WITH 'bash')"),
        ('proc p read file f[name not in {"/tmp/a"}]',
         "WHERE NOT (f.name = '/tmp/a')"),
        ('proc p[pid = 3 || !(exename = "/bin/sh")] read file f '
         'as e1[data_amount >= 100]',
         "WHERE (p.pid = 3 OR NOT (p.exename = '/bin/sh')) "
         "AND e1.data_amount >= 100"),
        ('proc p["it\'s"] read file f', "WHERE p.exename = 'it\\'s'"),
        ("proc p read file f as e1 from 10 to 20",
         "WHERE e1.start_time >= 10.0 AND e1.end_time <= 20.0"),
        ("proc p read file f as e1 proc p write file g as e2 "
         "with e1 before[0-5 min] e2",
         "WHERE e1.end_time <= e2.start_time RETURN"),
        ("proc p read file f as e1 proc p write file g as e2 "
         "with e1 after e2", "WHERE e2.end_time <= e1.start_time RETURN"),
        ("proc p read file f then proc p write file g",
         "WHERE evt1.end_time <= evt2.start_time RETURN"),
        ("proc p read file f as e1 proc q write file f as e2 "
         "with p.pid != q.pid",
         "(q:proc)-[e2:EVENT {operation: 'write'}]->(f) "
         "WHERE p.pid <> q.pid RETURN"),
    ], ids=["event_pattern", "variable_length", "unbounded_gets_the_cap",
            "operations_in_where", "prefix_and_suffix_wildcards",
            "interior_wildcard_is_a_regex", "not_equal_wildcard",
            "in_list", "not_in_list", "boolean_negation_and_event_filter",
            "quote_escaped", "window", "before_drops_its_gap_bound",
            "after", "then", "attribute_relation"])
    def test_renders_the_text_a_neo4j_user_would(self, text, fragment):
        assert fragment in compile_giant_cypher(resolve(f"{text} return p"))

    def test_bare_value_filter_rejected_uncompiled(self):
        from repro.tbql.ast import BareValueFilter
        from repro.benchmark.cypher import render_filter_cypher
        from repro.tbql.compiler_sql import render_filter
        with pytest.raises(TBQLSemanticError):
            render_filter(BareValueFilter("x"), "s", "e", [])
        with pytest.raises(TBQLSemanticError):
            render_filter_cypher(BareValueFilter("x"), "s", "e")
