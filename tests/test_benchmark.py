"""Tests for the evaluation benchmark: metrics, cases, and drivers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import (ALL_CASES, CaseBuilder, PRF, aggregate,
                             build_case_queries, build_case_store, case_ids,
                             format_table, get_case, run_conciseness,
                             run_extraction_accuracy, run_hunting_accuracy,
                             score_hunting, score_ioc_entities,
                             score_ioc_relations, score_sets, step_signature)
from repro.benchmark.cypher import graph_from_store
from repro.errors import BenchmarkError
from repro.hunting import ThreatRaptor


class TestMetrics:
    def test_prf_basic(self):
        score = PRF(true_positives=8, false_positives=2, false_negatives=2)
        assert score.precision == 0.8
        assert score.recall == 0.8
        assert score.f1 == pytest.approx(0.8)

    def test_prf_degenerate_cases(self):
        assert PRF(0, 0, 0).precision == 1.0
        assert PRF(0, 0, 0).recall == 1.0
        assert PRF(0, 0, 5).precision == 0.0
        assert PRF(0, 5, 0).f1 == 0.0

    def test_prf_addition_and_aggregate(self):
        total = aggregate([PRF(1, 0, 1), PRF(2, 1, 0)])
        assert (total.true_positives, total.false_positives,
                total.false_negatives) == (3, 1, 1)

    def test_score_sets(self):
        score = score_sets({"a", "b"}, {"b", "c"})
        assert (score.true_positives, score.false_positives,
                score.false_negatives) == (1, 1, 1)

    def test_ioc_entity_scoring_tolerates_path_prefix(self):
        score = score_ioc_entities(["upload.tar", "/etc/passwd"],
                                   ["/tmp/upload.tar", "/etc/passwd"])
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_ioc_entity_scoring_case_insensitive(self):
        score = score_ioc_entities(["PAYLOAD.EXE"], ["payload.exe"])
        assert score.f1 == 1.0

    def test_relation_scoring_normalizes(self):
        score = score_ioc_relations([("/bin/TAR", "Read", "/etc/passwd")],
                                    [("/bin/tar", "read", "/etc/passwd")])
        assert score.f1 == 1.0

    def test_hunting_scoring(self):
        found = {("/bin/tar", "read", "/etc/passwd")}
        truth = {("/bin/tar", "read", "/etc/passwd"),
                 ("/bin/tar", "write", "/tmp/upload.tar")}
        score = score_hunting(found, truth)
        assert score.precision == 1.0
        assert score.recall == 0.5

    @given(st.sets(st.text(max_size=6), max_size=10),
           st.sets(st.text(max_size=6), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_score_sets_counts_consistent(self, predicted, expected):
        score = score_sets(predicted, expected)
        assert score.true_positives + score.false_positives == len(predicted)
        assert score.true_positives + score.false_negatives == len(expected)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0


class TestCases:
    def test_benchmark_has_18_cases(self):
        assert len(ALL_CASES) == 18
        assert len(case_ids()) == 18
        assert case_ids()[0] == "tc_clearscope_1"
        assert case_ids()[-1] == "vpnfilter"

    def test_get_case_and_unknown(self):
        assert get_case("data_leak").case_id == "data_leak"
        with pytest.raises(BenchmarkError):
            get_case("not_a_case")

    def test_every_case_is_well_formed(self):
        for case in ALL_CASES:
            assert case.description.strip()
            assert case.steps, case.case_id
            assert case.ground_truth_iocs
            assert case.ground_truth_relations
            # every expected miss must be a real step
            assert set(case.expected_misses) <= set(case.steps)
            # relations reference labeled IOCs
            iocs = {ioc.lower() for ioc in case.ground_truth_iocs}
            for subject, _verb, obj in case.ground_truth_relations:
                assert subject.lower() in iocs
                assert obj.lower() in iocs

    def test_step_signature_network_operations(self):
        assert step_signature(("proc:/usr/bin/wget", "download",
                               "ip:1.2.3.4")) == \
            ("/usr/bin/wget", "receive", "1.2.3.4")
        assert step_signature(("proc:/bin/nc", "write", "ip:1.2.3.4")) == \
            ("/bin/nc", "send", "1.2.3.4")

    def test_builder_materializes_attack_and_noise(self, clearscope_built):
        built = clearscope_built
        assert built.malicious_event_count > 0
        assert built.benign_event_count > 0
        assert built.attack_signatures == \
            built.case.hunting_ground_truth()

    def test_builder_rejects_bad_step(self):
        from repro.benchmark.case import AttackCase
        bad = AttackCase(case_id="bad", name="bad", description="x",
                         steps=(("file:/tmp/x", "read", "file:/tmp/y"),),
                         ground_truth_iocs=("x",),
                         ground_truth_relations=(("a", "read", "b"),))
        with pytest.raises(BenchmarkError):
            CaseBuilder().build(bad, benign_sessions=0)

    def test_build_case_store_loads_both_backends(self):
        store, ground_truth = build_case_store(get_case("tc_clearscope_3"),
                                               benign_sessions=3)
        stats = store.statistics()
        assert stats["relational_events"] == \
            graph_from_store(store).num_edges() > 0
        assert ground_truth
        store.close()


class TestQueries:
    def test_four_variants_generated(self):
        queries = build_case_queries(get_case("tc_clearscope_2"))
        assert queries.pattern_count == 2
        assert queries.tbql and queries.sql and queries.cypher
        assert "->[" in queries.tbql_path
        assert "SELECT" in queries.sql
        assert "MATCH" in queries.cypher
        assert "?" not in queries.sql          # params inlined for counting
        assert queries.sql_path.startswith("WITH RECURSIVE p1(")
        assert "?" not in queries.sql_path

    def test_variants_return_same_answer(self):
        case = get_case("tc_clearscope_2")
        store, _ = build_case_store(case, benign_sessions=5)
        queries = build_case_queries(case)
        raptor = ThreatRaptor(store=store)
        answers = [
            [list(row.values()) for row in rows] for rows in (
                raptor.execute_tbql(queries.tbql).rows,
                store.execute_sql(queries.sql),
                raptor.execute_tbql(queries.tbql_path).rows,
                store.execute_sql(queries.sql_path))]
        assert len(answers[0]) == 1
        assert all(answer == answers[0] for answer in answers)
        store.close()


class TestDrivers:
    def test_extraction_accuracy_shape(self):
        cases = [get_case("data_leak"), get_case("tc_theia_1")]
        rows = run_extraction_accuracy(cases)
        assert len(rows) == 6
        ours = rows[0]
        baseline = rows[2]
        assert ours["approach"] == "ThreatRaptor"
        assert ours["entity_f1"] > 0.9
        assert ours["relation_f1"] > 0.9
        assert baseline["entity_f1"] < 0.5
        assert baseline["relation_f1"] < 0.2

    def test_hunting_accuracy_shape(self):
        cases = [get_case("tc_clearscope_2"), get_case("tc_trace_4")]
        rows = run_hunting_accuracy(cases, benign_sessions=5)
        by_case = {row["case"]: row for row in rows}
        assert by_case["tc_clearscope_2"]["precision"] == 1.0
        assert by_case["tc_clearscope_2"]["recall"] == 1.0
        assert by_case["tc_trace_4"]["fn"] >= 1
        assert by_case["Total"]["tp"] >= 4

    def test_conciseness_driver(self):
        rows = run_conciseness([get_case("tc_clearscope_2")])
        case_row = rows[0]
        assert case_row["sql_chars"] > case_row["tbql_chars"]
        assert case_row["cypher_chars"] > case_row["tbql_chars"]
        assert rows[-1]["case"] == "Total"

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
        assert "a" in text.splitlines()[0]
        assert len(text.splitlines()) == 4


class TestResultTables:
    @pytest.mark.parametrize("disable, enable, written", [
        (True, False, False), (True, True, True), (False, False, True)],
        ids=["disabled", "disabled_then_enabled", "timed"])
    def test_only_a_timed_run_writes_its_table(self, tmp_path, monkeypatch,
                                               disable, enable, written):
        """A ``--benchmark-disable`` smoke run leaves the committed
        ``benchmarks/results`` tables alone; ``--benchmark-enable``
        overrides it, as in pytest-benchmark."""
        from benchmarks import conftest as bench

        class Config:
            @staticmethod
            def getoption(name):
                return {"benchmark_disable": disable,
                        "benchmark_enable": enable}[name]

        monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(bench, "_timed", True)
        bench.pytest_configure(Config())
        path = bench.write_result_table("table", "a  b")
        assert sorted(tmp_path.iterdir()) == ([tmp_path / "table.txt"]
                                              if written else [])
        assert (path is not None) == written
