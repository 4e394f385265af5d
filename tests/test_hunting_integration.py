"""End-to-end integration tests for the ThreatRaptor facade."""

from repro.audit.logfmt import format_log
from repro.hunting import ThreatRaptor
from repro.tbql.synthesis import SynthesisPlan

from .conftest import DATA_LEAK_EDGES, DATA_LEAK_TEXT


class TestIngestion:
    def test_ingest_events_reports_reduced_count(self, data_leak_events):
        raptor = ThreatRaptor()
        stored = raptor.ingest_events(data_leak_events)
        assert 0 < stored <= len(data_leak_events)
        stats = raptor.store.statistics()
        assert stats["relational_events"] == \
            raptor.store.graph.num_edges() == stored
        raptor.store.close()

    def test_ingest_log_text(self, data_leak_events):
        raptor = ThreatRaptor()
        stored = raptor.ingest_log_text(format_log(data_leak_events))
        assert stored > 0
        raptor.store.close()


class TestOSCTIDrivenHunt:
    def test_full_pipeline_on_figure2(self, data_leak_raptor):
        report = data_leak_raptor.hunt(DATA_LEAK_TEXT)
        assert report.synthesized.pattern_count == 8
        assert len(report.result.rows) == 1
        assert report.result.matched_event_signatures == \
            set(DATA_LEAK_EDGES)
        assert report.total_pipeline_seconds > 0
        assert report.executed_query == report.synthesized.text

    def test_pipeline_time_under_paper_budget(self, data_leak_raptor):
        report = data_leak_raptor.hunt(DATA_LEAK_TEXT)
        # The paper reports ~0.52s on average for extraction + graph +
        # synthesis; our substrate should stay well inside a few seconds.
        assert report.total_pipeline_seconds < 5.0

    def test_revised_query_overrides_synthesized(self, data_leak_raptor):
        revised = ('proc p["%/usr/bin/curl%"] connect ip '
                   'i["192.168.29.128"] return distinct p, i')
        report = data_leak_raptor.hunt(DATA_LEAK_TEXT, revised_query=revised)
        assert report.executed_query == revised
        assert report.result.rows == [{"p.exename": "/usr/bin/curl",
                                       "i.dstip": "192.168.29.128"}]

    def test_fuzzy_fallback_triggers_on_empty_result(self, data_leak_raptor):
        # Deviate an IOC so the exact search finds nothing.
        deviated_text = DATA_LEAK_TEXT.replace("/bin/tar", "/bin/tarx")
        report = data_leak_raptor.hunt(deviated_text, fallback_to_fuzzy=True)
        assert report.result.rows == []
        assert report.fuzzy_result is not None
        assert report.fuzzy_result.alignments

    def test_no_fuzzy_fallback_when_results_found(self, data_leak_raptor):
        report = data_leak_raptor.hunt(DATA_LEAK_TEXT, fallback_to_fuzzy=True)
        assert report.fuzzy_result is None

    def test_path_pattern_synthesis_plan(self, data_leak_events):
        raptor = ThreatRaptor(synthesis_plan=SynthesisPlan(
            use_path_patterns=True, fuzzy_paths=False, temporal_order=False))
        raptor.ingest_events(data_leak_events)
        report = raptor.hunt(DATA_LEAK_TEXT)
        assert "->[read]" in report.synthesized.text
        assert report.result.rows
        raptor.store.close()


class TestProactiveHunting:
    def test_manual_tbql_query(self, data_leak_raptor):
        result = data_leak_raptor.execute_tbql(
            'proc p read || write file f["%/etc/passwd%"] '
            'return distinct p, f')
        assert {row["p.exename"] for row in result.rows} >= {"/bin/tar"}

    def test_fuzzy_search_direct(self, data_leak_raptor):
        result = data_leak_raptor.fuzzy_search(
            'proc p["%/bin/taro%"] read file f["%/etc/passwd%"] return p')
        assert result.alignments
        assert result.best.node_names["p"] == "/bin/tar"

    def test_exact_faster_than_fuzzy(self, data_leak_raptor):
        query = ('proc p["%/bin/tar%"] read file f["%/etc/passwd%"] '
                 'return p, f')
        exact = data_leak_raptor.execute_tbql(query)
        fuzzy = data_leak_raptor.fuzzy_search(query)
        assert exact.elapsed_seconds < fuzzy.total_seconds * 5
        # (fuzzy includes loading + preprocessing + exhaustive search and is
        # expected to be the slower mode overall, as in Table IX)
        assert fuzzy.total_seconds > 0
