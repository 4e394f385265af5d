"""CLI help-surface audit: every subcommand and argument is documented.

Operators discover the tool through ``repro --help`` / ``repro <cmd>
--help``; an undocumented flag is effectively invisible.  These tests
walk the real parser tree so a new subcommand or argument cannot land
without help text, and pin the diagnostic output of the ``query`` and
``rules`` error paths.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return dict(subparsers.choices)


class TestHelpSurface:
    def test_parser_has_description(self):
        assert build_parser().description

    def test_every_subcommand_has_help(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        undocumented = [choice.dest
                        for choice in subparsers._choices_actions
                        if not choice.help]
        assert undocumented == []

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_every_argument_has_help(self, name):
        sub = _subcommands()[name]
        undocumented = [action.dest for action in sub._actions
                        if not isinstance(action, argparse._HelpAction)
                        and not action.help]
        assert undocumented == [], \
            f"repro {name}: arguments without help text"

    @pytest.mark.parametrize("name, options", [
        ("ingest", {"--log", "--stats", "--no-reduction"}),
        ("snapshot", {"--log", "--out", "--segment-events",
                      "--no-reduction"}),
    ])
    def test_load_commands_have_one_load_path(self, name, options):
        """The batched loader is the only one; no ``--strategy``, and no
        listed ``--layout``."""
        present = {option for action in _subcommands()[name]._actions
                   if not isinstance(action, argparse._HelpAction)
                   and action.help != argparse.SUPPRESS
                   for option in action.option_strings}
        assert present == options

    def test_expected_subcommands_present(self):
        assert set(_subcommands()) == {
            "extract", "synthesize", "hunt", "query", "ingest",
            "snapshot", "segments", "compact", "serve", "tail", "rules"}


#: ``(subcommand with its required arguments, removed flag and value)``
#: for every option the CLI has deleted.
REMOVED_FLAGS = [
    (["query", "--log", "audit.log", "--tbql",
      "proc p read file f return p"], ["--workers", "4"]),
    (["serve", "--log", "audit.log"], ["--workers", "4"]),
    (["query", "--log", "audit.log", "--tbql",
      "proc p read file f return p"], ["--scan-strategy", "sqlite"]),
    (["serve", "--log", "audit.log"], ["--scan-strategy", "sqlite"]),
    (["ingest", "--log", "audit.log"], ["--strategy", "rowwise"]),
    (["snapshot", "--log", "audit.log", "--out", "snap"],
     ["--strategy", "rowwise"]),
    (["serve", "--log", "audit.log"], ["--server-backend", "threaded"]),
]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS,
                         ids=[f"{command[0]}{flag[0]}"
                              for command, flag in REMOVED_FLAGS])
def test_workers_flag_is_gone(command, flag, capsys):
    """A deleted option is a usage error like any unknown option; the
    parser rejects it before anything is read or served."""
    from repro.cli import main
    with pytest.raises(SystemExit) as exited:
        main(command + flag)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in \
        capsys.readouterr().err


class TestDeprecatedLayout:
    """``--layout`` is accepted, unlisted, on ``snapshot``, ``serve`` and
    ``tail`` for one release: either value prints one deprecation line
    and changes nothing."""

    @pytest.mark.parametrize("name", ["snapshot", "serve", "tail"])
    def test_layout_is_hidden(self, name):
        [action] = [action for action in _subcommands()[name]._actions
                    if "--layout" in action.option_strings]
        assert action.help == argparse.SUPPRESS
        assert "--layout" not in _subcommands()[name].format_help()

    @pytest.mark.parametrize("layout", ["monolithic", "segmented"])
    def test_snapshot_layout_warns_and_writes_the_same_store(
            self, tmp_path, capsys, data_leak_events, layout):
        from repro.audit.logfmt import format_log
        from repro.cli import main
        from repro.storage import DualStore
        log = tmp_path / "audit.log"
        log.write_text(format_log(data_leak_events), encoding="utf-8")
        snaps = {flag: tmp_path / f"snap{len(flag)}"
                 for flag in ((), ("--layout", layout))}
        for flag, snap in snaps.items():
            capsys.readouterr()
            assert main(["snapshot", "--log", str(log), "--out", str(snap),
                         "--segment-events", "100", *flag]) == 0
            err = capsys.readouterr().err
            assert err.count("--layout has no effect") == \
                (1 if flag else 0)
        default, flagged = (DualStore.open(snap) for snap in snaps.values())
        with default, flagged:
            assert [info.event_count
                    for info in flagged.segment_view().sealed] == \
                [info.event_count for info in default.segment_view().sealed]
            for sql in ("SELECT * FROM entities ORDER BY id",
                        "SELECT * FROM events ORDER BY id"):
                assert flagged.execute_sql(sql) == default.execute_sql(sql)

    def test_tail_layout_warns(self, tmp_path, capsys):
        from repro.cli import main
        log = tmp_path / "audit.log"
        log.write_text("", encoding="utf-8")
        assert main(["tail", "--log", str(log), "--once",
                     "--layout", "monolithic"]) == 0
        assert capsys.readouterr().err.count("--layout has no effect") == 1


def test_snapshot_of_one_chunk_stores_what_load_events_stores(
        tmp_path, data_leak_events):
    """Under ``--segment-events`` parsed events, ``repro snapshot`` stores
    the rows a one-shot :meth:`DualStore.load_events` stores, as one
    sealed segment."""
    from repro.audit.logfmt import format_log
    from repro.audit.parser import parse_audit_log
    from repro.cli import main
    from repro.storage import DualStore
    text = format_log(data_leak_events)
    log = tmp_path / "audit.log"
    log.write_text(text, encoding="utf-8")
    assert len(parse_audit_log(text)) < 25000
    assert main(["snapshot", "--log", str(log), "--out",
                 str(tmp_path / "snap")]) == 0
    with DualStore.open(tmp_path / "snap") as snapped, \
            DualStore() as loaded:
        loaded.load_events(parse_audit_log(text))
        assert len(snapped.segment_view().sealed) == 1
        for sql in ("SELECT * FROM entities ORDER BY id",
                    "SELECT * FROM events ORDER BY id"):
            assert snapped.execute_sql(sql) == loaded.execute_sql(sql)


class TestQueryListing:
    """``repro query`` lists the matched events of a plain query and
    only counts those of a ``count()`` query; ``--explain`` is the same
    either way."""

    AGGREGATED = 'proc p read file f return p, count() group by p top 3'

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory, data_leak_events):
        from repro.audit.logfmt import format_log
        from repro.cli import main
        directory = tmp_path_factory.mktemp("cli_listing")
        log = directory / "audit.log"
        log.write_text(format_log(data_leak_events), encoding="utf-8")
        snapshot = directory / "snap"
        assert main(["snapshot", "--log", str(log), "--out", str(snapshot),
                     "--segment-events", "100"]) == 0
        return {"--log": str(log), "--snapshot": str(snapshot)}

    @pytest.mark.parametrize("source", ["--log", "--snapshot"])
    def test_aggregated_query_counts_its_events(self, sources, source,
                                                capsys):
        from repro.cli import main
        capsys.readouterr()
        assert main(["query", source, sources[source], "--explain",
                     "--tbql", self.AGGREGATED]) == 0
        out = capsys.readouterr().out
        rows, rest = out.split("\n\n", 1)
        assert rows.splitlines()[0] == "=== 3 result row(s) ==="
        assert len(rows.splitlines()) == 4
        listing, plan = rest.split("\n\n", 1)
        steps = plan.splitlines()[1:-1]
        assert plan.startswith("=== execution plan ===\n  1. evt1 [sql] ")
        assert len(steps) == 1
        matched = int(steps[0].split(" -> ")[1].split()[0])
        assert listing == (f"=== {matched} matched events (not listed for "
                           "count() queries) ===")
        assert matched > 3
        assert "agg-pushdown" in steps[0]

    def test_plain_query_lists_its_events(self, sources, capsys):
        from repro.cli import main
        capsys.readouterr()
        assert main(["query", "--log", sources["--log"], "--tbql",
                     'proc p["%/bin/tar%"] read file f return p, f']) == 0
        listing = capsys.readouterr().out.split("\n\n", 1)[1]
        assert listing.splitlines()[0] == "=== matched events ==="
        assert len(listing.splitlines()) > 1
        assert all("--read--> " in line
                   for line in listing.splitlines()[1:])


class TestQueryDiagnostics:
    def test_query_prints_caret_diagnostic(self, tmp_path, capsys):
        from repro.cli import main
        log = tmp_path / "audit.log"
        log.write_text("", encoding="utf-8")
        exit_code = main(["query", "--log", str(log),
                          "--tbql", "proc p read fil f return p"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "invalid TBQL" in err
        assert "proc p read fil f return p" in err
        assert err.splitlines()[-1].strip() == "^"

    def test_rules_prints_caret_diagnostic(self, capsys):
        from repro.cli import main
        exit_code = main(["rules",
                          "--tbql", "proc p read fil f return p"])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "invalid:" in out
        assert "proc p read fil f return p" in out
        assert out.splitlines()[-1].strip() == "^"

    def test_rules_directory_lists_diagnostics(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "good.tbql").write_text(
            "proc p read file f return p\n", encoding="utf-8")
        (tmp_path / "bad.tbql").write_text(
            "proc p read file f return p,\n", encoding="utf-8")
        exit_code = main(["rules", "--dir", str(tmp_path)])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "1/2 rule(s) valid" in out
        assert "^" in out
