"""Unit tests for the mini-Cypher lexer, parser, and evaluator of the
giant-Cypher baseline (``repro.benchmark.cypher``)."""

import pytest

from repro.benchmark.cypher import PropertyGraph, parse_cypher
from repro.benchmark.cypher.cypher_ast import (Comparison, NodePattern,
                                               PropertyRef)
from repro.benchmark.cypher.cypher_eval import (CypherEvaluator,
                                                evaluate_where)
from repro.benchmark.cypher.cypher_parser import tokenize
from repro.errors import CypherError


@pytest.fixture()
def chain_graph():
    """proc tar -> file passwd, tar -> file upload, bzip2 -> upload."""
    graph = PropertyGraph()
    tar = graph.add_node("proc", {"type": "proc", "exename": "/bin/tar",
                                  "pid": 5})
    passwd = graph.add_node("file", {"type": "file", "name": "/etc/passwd"})
    upload = graph.add_node("file", {"type": "file",
                                     "name": "/tmp/upload.tar"})
    bzip2 = graph.add_node("proc", {"type": "proc", "exename": "/bin/bzip2",
                                    "pid": 6})
    bz2 = graph.add_node("file", {"type": "file",
                                  "name": "/tmp/upload.tar.bz2"})
    graph.add_edge(tar, passwd, "EVENT", {"operation": "read",
                                          "start_time": 1.0,
                                          "end_time": 1.1})
    graph.add_edge(tar, upload, "EVENT", {"operation": "write",
                                          "start_time": 2.0,
                                          "end_time": 2.1})
    graph.add_edge(bzip2, upload, "EVENT", {"operation": "read",
                                            "start_time": 3.0,
                                            "end_time": 3.1})
    graph.add_edge(bzip2, bz2, "EVENT", {"operation": "write",
                                         "start_time": 4.0,
                                         "end_time": 4.1})
    return graph


class TestLexerParser:
    def test_tokenize_symbols(self):
        kinds = [t.kind for t in tokenize("MATCH (a)-[r]->(b) RETURN a")]
        assert "eof" in kinds
        assert kinds.count("keyword") == 2

    def test_unexpected_character_raises(self):
        with pytest.raises(CypherError):
            tokenize("MATCH (a) RETURN a ; DROP")
        # ';' is not part of the dialect

    def test_parse_simple_query(self):
        query = parse_cypher(
            "MATCH (p:proc {exename: '/bin/tar'})-[e:EVENT]->(f:file) "
            "RETURN p.exename, f.name")
        assert len(query.patterns) == 1
        pattern = query.patterns[0]
        assert pattern.nodes[0].label == "proc"
        assert pattern.nodes[0].properties == {"exename": "/bin/tar"}
        assert pattern.relationships[0].label == "EVENT"
        assert [item.output_name for item in query.return_items] == \
            ["p.exename", "f.name"]

    def test_parse_variable_length(self):
        query = parse_cypher(
            "MATCH (p:proc)-[e:EVENT*2..4 {operation: 'read'}]->(f:file) "
            "RETURN f.name")
        rel = query.patterns[0].relationships[0]
        assert rel.min_length == 2
        assert rel.max_length == 4
        assert rel.is_variable_length

    def test_parse_where_and_distinct_and_limit(self):
        query = parse_cypher(
            "MATCH (p:proc)-[e:EVENT]->(f:file) "
            "WHERE p.exename CONTAINS 'tar' AND NOT f.name = '/x' "
            "RETURN DISTINCT f.name LIMIT 3")
        assert query.distinct
        assert query.limit == 3
        assert query.where is not None

    def test_parse_multiple_patterns(self):
        query = parse_cypher(
            "MATCH (a:proc)-[e1:EVENT]->(b:file), (c:proc)-[e2:EVENT]->(b) "
            "RETURN a, c")
        assert len(query.patterns) == 2
        assert query.variables() == {"a", "b", "c", "e1", "e2"}

    def test_parse_alias(self):
        query = parse_cypher("MATCH (a:proc)-[e:EVENT]->(b:file) "
                             "RETURN a.exename AS subject")
        assert query.return_items[0].output_name == "subject"

    def test_missing_return_raises(self):
        with pytest.raises(CypherError):
            parse_cypher("MATCH (a)-[r]->(b)")

    def test_invalid_range_raises(self):
        with pytest.raises(CypherError):
            parse_cypher("MATCH (a)-[r:EVENT*4..2]->(b) RETURN a")

    def test_path_pattern_length_mismatch_guard(self):
        with pytest.raises(ValueError):
            from repro.benchmark.cypher.cypher_ast import PathPattern
            PathPattern(nodes=(NodePattern("a", None),), relationships=(
                parse_cypher("MATCH (x)-[r]->(y) RETURN x")
                .patterns[0].relationships[0],))


class TestEvaluator:
    def _run(self, graph, text):
        return CypherEvaluator(graph).execute(parse_cypher(text))

    def test_single_pattern_with_property_filter(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc {exename: '/bin/tar'})"
                         "-[e:EVENT {operation: 'read'}]->(f:file) "
                         "RETURN f.name")
        assert rows == [{"f.name": "/etc/passwd"}]

    def test_wildcard_property_filter(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc {exename: '%bzip2%'})"
                         "-[e:EVENT]->(f:file) RETURN DISTINCT f.name")
        assert {row["f.name"] for row in rows} == {"/tmp/upload.tar",
                                                   "/tmp/upload.tar.bz2"}

    def test_where_contains(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc)-[e:EVENT]->(f:file) "
                         "WHERE f.name CONTAINS 'passwd' RETURN p.exename")
        assert rows == [{"p.exename": "/bin/tar"}]

    def test_where_regex_and_comparison(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc)-[e:EVENT]->(f:file) "
                         "WHERE p.exename =~ '.*tar$' AND e.start_time < 1.5 "
                         "RETURN f.name")
        assert rows == [{"f.name": "/etc/passwd"}]

    def test_multi_pattern_join_on_shared_variable(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (a:proc)-[e1:EVENT {operation: 'write'}]->"
                         "(shared:file), (b:proc)-[e2:EVENT "
                         "{operation: 'read'}]->(shared) "
                         "WHERE a.exename <> b.exename "
                         "RETURN a.exename, b.exename, shared.name")
        assert {"a.exename": "/bin/tar", "b.exename": "/bin/bzip2",
                "shared.name": "/tmp/upload.tar"} in rows

    def test_temporal_constraint_across_patterns(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (a:proc)-[e1:EVENT]->(f:file), "
                         "(b:proc)-[e2:EVENT]->(g:file) "
                         "WHERE e1.end_time <= e2.start_time AND "
                         "f.name = '/etc/passwd' AND "
                         "g.name = '/tmp/upload.tar.bz2' "
                         "RETURN a.exename, b.exename")
        assert rows == [{"a.exename": "/bin/tar", "b.exename": "/bin/bzip2"}]

    def test_variable_length_path(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc {exename: '/bin/tar'})"
                         "-[e:EVENT*1..3]->(f:file) RETURN DISTINCT f.name")
        names = {row["f.name"] for row in rows}
        assert names == {"/etc/passwd", "/tmp/upload.tar"}

    def test_variable_length_final_hop_operation(self, chain_graph):
        # tar -> upload.tar (write), bzip2 -> upload.tar: paths of length 1
        # from tar with final hop read reach only /etc/passwd.
        rows = self._run(chain_graph,
                         "MATCH (p:proc {exename: '/bin/tar'})"
                         "-[e:EVENT*1..2 {operation: 'read'}]->(f:file) "
                         "RETURN DISTINCT f.name")
        assert {row["f.name"] for row in rows} == {"/etc/passwd"}

    def test_distinct_and_limit(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc)-[e:EVENT]->(f:file) "
                         "RETURN DISTINCT p.exename LIMIT 1")
        assert len(rows) == 1

    def test_bare_variable_returns_node_id(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc {exename: '/bin/tar'})"
                         "-[e:EVENT {operation: 'read'}]->(f:file) RETURN f")
        assert isinstance(rows[0]["f"], int)

    def test_no_match_returns_empty(self, chain_graph):
        rows = self._run(chain_graph,
                         "MATCH (p:proc {exename: '/bin/nonexistent'})"
                         "-[e:EVENT]->(f:file) RETURN f.name")
        assert rows == []


class TestWhereEvaluation:
    def test_comparison_null_semantics(self):
        expr = Comparison(PropertyRef("p", "missing"), ">", PropertyRef(
            "p", "other"))
        graph = PropertyGraph()
        node_id = graph.add_node("proc", {"other": 3})
        binding = {"p": graph.node(node_id)}
        assert evaluate_where(expr, binding) is False

    def test_starts_and_ends_with(self):
        graph = PropertyGraph()
        node_id = graph.add_node("file", {"name": "/tmp/upload.tar"})
        binding = {"f": graph.node(node_id)}
        starts = parse_cypher("MATCH (f:file) RETURN f").patterns  # noqa: F841
        assert evaluate_where(
            Comparison(PropertyRef("f", "name"), "STARTS WITH",
                       _lit("/tmp")), binding)
        assert evaluate_where(
            Comparison(PropertyRef("f", "name"), "ENDS WITH", _lit(".tar")),
            binding)


def _lit(value):
    from repro.benchmark.cypher.cypher_ast import Literal
    return Literal(value)


class TestInListSupport:
    def test_parse_in_list(self):
        query = parse_cypher(
            "MATCH (s:proc)-[e:EVENT]->(o:file) "
            "WHERE s.id IN [1, 2, 3] RETURN s.id AS sid")
        comparison = query.where
        assert isinstance(comparison, Comparison)
        assert comparison.operator == "IN"
        assert comparison.right.value == (1, 2, 3)

    def test_parse_empty_and_string_lists(self):
        query = parse_cypher(
            "MATCH (f:file) WHERE f.name IN ['a', 'b'] RETURN f")
        assert query.where.right.value == ("a", "b")
        empty = parse_cypher("MATCH (f:file) WHERE f.id IN [] RETURN f")
        assert empty.where.right.value == ()

    def test_in_evaluation(self, chain_graph):
        evaluator = CypherEvaluator(chain_graph)
        rows = evaluator.execute(parse_cypher(
            "MATCH (s:proc)-[e:EVENT]->(o) WHERE s.id IN [1] "
            "RETURN DISTINCT s.exename AS name"))
        assert rows == [{"name": "/bin/tar"}]

    def test_in_with_no_match(self, chain_graph):
        evaluator = CypherEvaluator(chain_graph)
        rows = evaluator.execute(parse_cypher(
            "MATCH (s:proc)-[e:EVENT]->(o) WHERE s.id IN [] "
            "RETURN s.exename AS name"))
        assert rows == []

    def test_id_allowlist_restricts_enumeration(self, chain_graph):
        evaluator = CypherEvaluator(chain_graph)
        seen: list[int] = []
        original = chain_graph.out_edges

        def spying_out_edges(node_id):
            seen.append(node_id)
            return original(node_id)

        chain_graph.out_edges = spying_out_edges
        rows = evaluator.execute(parse_cypher(
            "MATCH (s:proc)-[e:EVENT]->(o:file) WHERE s.id IN [4] "
            "RETURN o.name AS name"))
        # Only the allowlisted node (bzip2, id 4) is expanded — the
        # restriction prunes enumeration, not just the WHERE filter.
        assert set(seen) == {4}
        assert {row["name"] for row in rows} == {"/tmp/upload.tar",
                                                 "/tmp/upload.tar.bz2"}

    def test_id_equality_restriction(self, chain_graph):
        evaluator = CypherEvaluator(chain_graph)
        rows = evaluator.execute(parse_cypher(
            "MATCH (s:proc)-[e:EVENT]->(o:file) WHERE s.id = 1 "
            "RETURN DISTINCT s.exename AS name"))
        assert rows == [{"name": "/bin/tar"}]
        assert evaluator._id_restrictions == {"s": {1}}
