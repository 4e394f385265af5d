"""Tests for the TBQL formatter (AST -> canonical text) and CLI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tbql.formatter import (format_pattern, format_query,
                                  format_relation, format_window)
from repro.tbql.parser import parse_tbql
from repro.tbql.semantics import resolve_query

from .test_tbql_parser import FIG2_QUERY


def roundtrip(text: str) -> str:
    """Parse, format, and re-parse; return the re-formatted text."""
    formatted = format_query(parse_tbql(text))
    reparsed = parse_tbql(formatted)
    return format_query(reparsed)


class TestFormatter:
    def test_simple_pattern_roundtrip(self):
        text = ('proc p1["%/bin/tar%"] read file '
                'f1["%/etc/passwd%"] as evt1\n'
                'return distinct p1, f1')
        assert format_query(parse_tbql(text)) == text

    def test_figure2_roundtrip_is_fixed_point(self):
        once = format_query(parse_tbql(FIG2_QUERY))
        assert roundtrip(FIG2_QUERY) == once
        # the canonical form still resolves to the same 8 patterns
        assert len(resolve_query(parse_tbql(once)).patterns) == 8

    def test_operation_expression_formatting(self):
        query = parse_tbql("proc p read || write file f return p")
        assert "(read || write)" in format_pattern(query.patterns[0])

    def test_negated_operation(self):
        query = parse_tbql("proc p !read file f return p")
        assert "!read" in format_pattern(query.patterns[0])

    def test_path_pattern_formatting(self):
        query = parse_tbql("proc p ~>(2~4)[read] file f return p")
        assert "~>(2~4)[read]" in format_pattern(query.patterns[0])
        query = parse_tbql("proc p ->[open] file f return p")
        assert "->[open]" in format_pattern(query.patterns[0])
        query = parse_tbql("proc p ~> file f return p")
        assert " ~> " in format_pattern(query.patterns[0])

    def test_membership_filter_formatting(self):
        query = parse_tbql('proc p[exename in {"/bin/sh", "/bin/bash"}] '
                           'read file f return p')
        text = format_pattern(query.patterns[0])
        assert 'exename in {"/bin/sh", "/bin/bash"}' in text

    def test_temporal_relation_with_bound(self):
        query = parse_tbql("proc p read file f as e1 "
                           "proc p write file g as e2 "
                           "with e1 before[0-5 min] e2 return p")
        assert format_relation(query.relations[0]) == "e1 before[0-5 min] e2"

    def test_attribute_relation(self):
        query = parse_tbql("proc p read file f as e1 "
                           "proc q write file g as e2 "
                           "with p.pid = q.pid return p")
        assert format_relation(query.relations[0]) == "p.pid = q.pid"

    def test_window_formatting(self):
        query = parse_tbql('last 2 hours proc p read file f as e1 '
                           'from "2018-04-10" to "2018-04-12" return p')
        assert format_window(query.global_filters[0].window) == \
            "last 2 hours"
        assert format_window(query.patterns[0].window) == \
            'from "2018-04-10" to "2018-04-12"'

    def test_event_filter_formatting(self):
        text = roundtrip("proc p read file f as e1[data_amount > 100] "
                         "return p")
        assert "as e1[data_amount > 100]" in text

    def test_synthesized_query_is_already_canonical(self,
                                                    data_leak_extraction):
        from repro.tbql.synthesis import synthesize_tbql
        synthesized = synthesize_tbql(data_leak_extraction.graph).text
        assert format_query(parse_tbql(synthesized)) == synthesized

    @given(st.sampled_from(["read", "write", "execute", "connect", "send"]),
           st.sampled_from(["file", "ip"]),
           st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, operation, obj_kind, distinct,
                                use_filter):
        if obj_kind == "ip":
            operation = "connect"
        obj_filter = '["%x_y.z%"]' if use_filter else ""
        text = (f'proc p["%/bin/a%"] {operation} {obj_kind} o{obj_filter} '
                f'as e1\nreturn {"distinct " if distinct else ""}p, o')
        first = format_query(parse_tbql(text))
        second = format_query(parse_tbql(first))
        assert first == second


class TestCLI:
    @pytest.fixture()
    def report_and_log(self, tmp_path, data_leak_events):
        from repro.audit.logfmt import format_log
        from .conftest import DATA_LEAK_TEXT
        report = tmp_path / "report.txt"
        report.write_text(DATA_LEAK_TEXT, encoding="utf-8")
        log = tmp_path / "audit.log"
        log.write_text(format_log(data_leak_events), encoding="utf-8")
        return str(report), str(log)

    def test_extract_command(self, report_and_log, capsys):
        from repro.cli import main
        report, _log = report_and_log
        assert main(["extract", "--report", report, "--show-iocs"]) == 0
        output = capsys.readouterr().out
        assert "8 relations" in output
        assert "/bin/tar" in output

    def test_synthesize_command(self, report_and_log, capsys):
        from repro.cli import main
        report, _log = report_and_log
        assert main(["synthesize", "--report", report]) == 0
        output = capsys.readouterr().out
        assert 'proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"]' in output

    def test_hunt_command(self, report_and_log, capsys):
        from repro.cli import main
        report, log = report_and_log
        assert main(["hunt", "--report", report, "--log", log]) == 0
        output = capsys.readouterr().out
        assert "--connect--> 192.168.29.128" in output

    def test_hunt_warns_about_a_truncated_fuzzy_search(
            self, report_and_log, capsys, monkeypatch):
        import dataclasses

        from repro.cli import main
        from repro.tbql.fuzzy import FuzzySearcher
        from .conftest import DATA_LEAK_TEXT
        report, log = report_and_log
        # A deviated IOC: the exact search finds nothing, the fuzzy
        # fallback still aligns.
        with open(report, "w", encoding="utf-8") as handle:
            handle.write(DATA_LEAK_TEXT.replace("/bin/tar", "/bin/tarx"))
        command = ["hunt", "--report", report, "--log", log,
                   "--fuzzy-fallback"]
        assert main(command) == 0
        complete = capsys.readouterr()
        assert "fuzzy alignment" in complete.out
        assert "expansion limit" not in complete.err

        class CutSearcher(FuzzySearcher):
            def search(self, query):
                return dataclasses.replace(super().search(query),
                                           truncated=True)

        monkeypatch.setattr("repro.hunting.threatraptor.FuzzySearcher",
                            CutSearcher)
        assert main(command) == 0
        cut = capsys.readouterr()
        assert cut.out == complete.out
        assert "expansion limit" in cut.err

    def test_query_command(self, report_and_log, capsys):
        from repro.cli import main
        _report, log = report_and_log
        exit_code = main([
            "query", "--log", log, "--tbql",
            'proc p["%/usr/bin/curl%"] connect ip i return distinct p, i'])
        assert exit_code == 0
        assert "192.168.29.128" in capsys.readouterr().out

    def test_query_command_no_match_exit_code(self, report_and_log):
        from repro.cli import main
        _report, log = report_and_log
        exit_code = main([
            "query", "--log", log, "--tbql",
            'proc p["%/bin/nothing%"] read file f return p'])
        assert exit_code == 1
