"""Command-line interface for the ThreatRaptor reproduction.

Eleven subcommands cover the workflows of Figure 1 plus the serving,
streaming, and partitioned-storage layers:

* ``extract``    — OSCTI report text -> threat behavior graph (printed),
* ``synthesize`` — OSCTI report text -> TBQL query text,
* ``hunt``       — OSCTI report + audit log -> matched malicious events,
* ``query``      — hand-written TBQL + audit log (or snapshot, with
  ``--workers`` for parallel segment scans) -> query results,
* ``ingest``     — audit log -> dual-store load report (``--stats`` breaks
  the load down per stage: reduce, build, relational, graph),
* ``snapshot``   — audit log -> persistent on-disk snapshot directory
  (ingest once, query many times; ``--layout segmented`` seals the
  history into time-bounded segments),
* ``segments``   — list a snapshot's segment manifests,
* ``compact``    — merge a snapshot's undersized segments,
* ``serve``      — snapshot (or audit log) -> concurrent HTTP query service
  (``/query``, ``/hunt``, ``/stats``, ``/healthz``; with ``--live`` also
  ``/ingest``, ``/rules``, ``/alerts``),
* ``tail``       — follow a growing audit log, append batches to the live
  store, and evaluate standing TBQL detection rules on every flush,
* ``rules``      — validate a directory of standing-rule files.

Usage::

    python -m repro.cli hunt --report report.txt --log audit.log
    python -m repro.cli query --log audit.log \\
        --tbql 'proc p read file f["%/etc/shadow%"] return p'
    python -m repro.cli snapshot --log audit.log --out snap/
    python -m repro.cli serve --snapshot snap/ --port 8787
    python -m repro.cli tail --log audit.log --rules rules/ \\
        --checkpoint ckpt/ --checkpoint-every 10
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from .extraction import ThreatBehaviorExtractor
from .hunting import ThreatRaptor
from .tbql.synthesis import SynthesisPlan, TBQLSynthesizer


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_raptor(log_path: str, no_reduction: bool,
                 workers: int = 1) -> ThreatRaptor:
    from .storage import DualStore
    raptor = ThreatRaptor(store=DualStore(reduce=not no_reduction),
                          workers=workers)
    count = raptor.ingest_log_text(_read_text(log_path))
    print(f"[repro] ingested {count} events from {log_path}",
          file=sys.stderr)
    return raptor


def _print_events(events: list[dict]) -> None:
    for event in sorted(events, key=lambda item: item["start_time"]):
        print(f"{event['pattern_id']:>8}  {event['subject']} "
              f"--{event['operation']}--> {event['object']}")


def _print_plan(result) -> None:
    """Render the structured per-step execution report (``--explain``)."""
    print("\n=== execution plan ===")
    for position, step in enumerate(result.plan, start=1):
        candidates = []
        for side, count, pushed in (
                ("subj", step.subject_candidates, step.pushed_subject),
                ("obj", step.object_candidates, step.pushed_object)):
            if count is not None:
                suffix = " pushed" if pushed else ""
                candidates.append(f"{side}={count}{suffix}")
        candidate_text = ", ".join(candidates) if candidates else "none"
        millis = sum(step.seconds.values()) * 1000.0
        segment_text = ""
        if step.segments_scanned is not None:
            segment_text = (f"segments {step.segments_scanned} scanned/"
                            f"{step.segments_pruned} pruned ")
            if step.segments_pruned_by_stats is not None:
                segment_text += (f"({step.segments_pruned_by_stats} "
                                 "by stats) ")
            if step.aggregate_pushdown:
                segment_text += "agg-pushdown "
            if step.pool_fallback:
                segment_text += "(pool fallback: serial) "
        print(f"  {position}. {step.pattern_id} [{step.backend}] "
              f"score={step.score:.2f} candidates({candidate_text}) "
              f"rows {step.rows_in} -> {step.rows_out} {segment_text}"
              f"hydration_queries={step.hydration_queries} "
              f"{millis:.2f}ms")
    print(f"  join: {result.join_seconds * 1000.0:.2f}ms, "
          f"total: {result.elapsed_seconds * 1000.0:.2f}ms")


def cmd_extract(args: argparse.Namespace) -> int:
    result = ThreatBehaviorExtractor().extract(_read_text(args.report))
    print(result.graph.summary())
    if args.show_iocs:
        print("\nIOCs:")
        for ioc in result.iocs:
            print(f"  {ioc.canonical} ({ioc.ioc_type.value}) "
                  f"mentions={ioc.mentions}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    result = ThreatBehaviorExtractor().extract(_read_text(args.report))
    plan = SynthesisPlan(use_path_patterns=args.path_patterns,
                         fuzzy_paths=not args.length1)
    synthesized = TBQLSynthesizer(plan).synthesize(result.graph)
    print(synthesized.text)
    return 0


def cmd_hunt(args: argparse.Namespace) -> int:
    raptor = _load_raptor(args.log, args.no_reduction)
    report = raptor.hunt(_read_text(args.report),
                         fallback_to_fuzzy=args.fuzzy_fallback)
    print("=== synthesized TBQL ===")
    print(report.synthesized.text)
    print("\n=== matched events ===")
    _print_events(report.result.matched_events)
    if report.fuzzy_result is not None and report.fuzzy_result.best:
        print("\n=== fuzzy alignment (exact search found nothing) ===")
        for entity_id, name in sorted(
                report.fuzzy_result.best.node_names.items()):
            print(f"  {entity_id} -> {name}")
    raptor.store.close()
    return 0 if report.result.matched_events or report.fuzzy_result else 1


def cmd_ingest(args: argparse.Namespace) -> int:
    from .audit.parser import AuditLogParser
    from .storage import DualStore

    parser = AuditLogParser()
    events = parser.parse_text(_read_text(args.log))
    if not events:
        # An empty (or whitespace-only / all-malformed) log is a valid,
        # boring input, not an error: report it plainly — without the
        # per-stage breakdown, whose rates and ratios are meaningless at
        # zero events — and exit 0.
        print(f"ingested 0 events (log {args.log} contained no parseable "
              f"audit records)")
        return 0
    store = DualStore(reduce=not args.no_reduction)
    stats = store.load_events(events, strategy=args.strategy)
    print(f"ingested {stats.events} events "
          f"({stats.input_events} before reduction, "
          f"{stats.entities} entities)")
    if args.stats:
        print("\n=== ingestion statistics ===")
        print(f"  strategy:           {stats.strategy}")
        print(f"  input events:       {stats.input_events}")
        print(f"  stored events:      {stats.events}")
        print(f"  unique entities:    {stats.entities}")
        print(f"  relational batches: {stats.relational_batches}")
        if store.last_reduction is not None:
            ratio = store.last_reduction.reduction_ratio
            print(f"  reduction ratio:    {ratio:.2f}x")
        parsed = parser.last_report
        print(f"  parse seconds:      {parsed.seconds * 1000.0:.2f}ms "
              f"({parsed.total_lines / max(parsed.seconds, 1e-9):.0f} "
              f"lines/s)")
        print(f"  malformed lines:    {parsed.malformed_lines}")
        print(f"  entities created:   {parsed.entities_created}")
        # Every stage the load timed: reduce, build, relational, graph,
        # and the seal_* steps whenever a segment was sealed.
        for stage, elapsed in stats.seconds.items():
            print(f"  {stage + ' seconds:':<19} {elapsed * 1000.0:.2f}ms")
        print(f"  total:              {stats.total_seconds * 1000.0:.2f}ms")
    store.close()
    return 0 if stats.events else 1


def cmd_snapshot(args: argparse.Namespace) -> int:
    from operator import attrgetter

    from .audit.parser import parse_audit_log
    from .storage import DualStore

    events = parse_audit_log(_read_text(args.log))
    with DualStore(reduce=not args.no_reduction,
                   layout=args.layout) as store:
        if args.layout == "segmented":
            # Feed the time-ordered stream through the append path and
            # seal every --segment-events, so the snapshot carries a
            # prunable multi-segment history instead of one big segment.
            events.sort(key=attrgetter("start_time", "event_id"))
            step = max(1, args.segment_events)
            stored = 0
            for index in range(0, len(events), step):
                stored += int(store.append_events(
                    events[index:index + step]))
                stored += int(store.flush_appends())
            manifest = store.save(args.out)
            segment_count = len(manifest.get("segments", []))
            print(f"sealed {segment_count} segment(s)", file=sys.stderr)
        else:
            stored = int(store.load_events(events,
                                           strategy=args.strategy))
            manifest = store.save(args.out)
    print(f"snapshot written to {args.out}: "
          f"{manifest['relational_events']} events, "
          f"{manifest['relational_entities']} entities "
          f"(format v{manifest['format_version']}, "
          f"layout {manifest['layout']})")
    return 0 if stored else 1


def cmd_segments(args: argparse.Namespace) -> int:
    from .storage import DualStore

    with DualStore.open(args.snapshot) as store:
        stats = store.segment_stats()
        print(f"layout: {stats['layout']}  sealed segments: "
              f"{stats['sealed_segments']}  sealed events: "
              f"{stats['sealed_events']}")
        if not stats["segments"]:
            print("(monolithic snapshot: the whole history is one "
                  "relational database + one graph)")
            return 0
        header = (f"{'name':<12} {'events':>8} {'event ids':>17} "
                  f"{'new ents':>8} {'ent rows':>8} {'start range':>23} "
                  f"{'end range':>23} {'col KiB':>9}")
        print(header)
        print("-" * len(header))
        for entry in stats["segments"]:
            col_kib = entry["payload_bytes"]["columnar"] / 1024.0
            entity_rows = entry.get("entity_rows")
            print(f"{entry['name']:<12} {entry['event_count']:>8} "
                  f"{entry['first_event_id']:>8}-"
                  f"{entry['last_event_id']:<8} "
                  f"{entry['new_entity_count']:>8} "
                  f"{'-' if entity_rows is None else entity_rows:>8} "
                  f"{entry['min_start_time']:>11.2f}-"
                  f"{entry['max_start_time']:<11.2f} "
                  f"{entry['min_end_time']:>11.2f}-"
                  f"{entry['max_end_time']:<11.2f} {col_kib:>9.1f}")
            if args.verbose:
                _print_segment_stats(entry.get("stats"))
    return 0


def _print_segment_stats(stats) -> None:
    """Render one segment's seal-time statistics block (``--verbose``)."""
    if not isinstance(stats, dict):
        print("    stats: (none — sealed before statistics existed; "
              "never pruned)")
        return
    print(f"    stats v{stats.get('version')}:")
    for column, bounds in sorted((stats.get("numeric") or {}).items()):
        print(f"      {column:<12} range [{bounds[0]:g}, {bounds[1]:g}]")
    for column, values in sorted((stats.get("distinct") or {}).items()):
        print(f"      {column:<12} distinct {{{', '.join(values)}}}")
    for side in ("subject_types", "object_types"):
        values = stats.get(side)
        if values is not None:
            print(f"      {side:<12} {{{', '.join(values)}}}")


def cmd_compact(args: argparse.Namespace) -> int:
    from .storage import DualStore

    # Snapshots are immutable: compaction opens a writable copy, merges
    # the undersized segments there, and saves a fresh snapshot (to
    # --out, or back over the source directory when omitted).
    out = args.out if args.out else args.snapshot
    with DualStore.open(args.snapshot, read_only=False) as store:
        report = store.compact(min_events=args.min_events)
        store.save(out)
    print(f"compacted {args.snapshot}: {report['segments_before']} -> "
          f"{report['segments_after']} segment(s) "
          f"({report['merged_runs']} merge run(s)) -> {out}")
    return 0


def _load_rules_into(engine, rules_dir: str, prune: bool = False) -> int:
    """Register every valid ``*.tbql`` file; returns how many loaded.

    A rule id already known to the engine (restored from a checkpoint) is
    kept when the text is unchanged — preserving its high-water mark — and
    replaced when the file's text differs.  With ``prune=True`` the
    directory is the source of truth: restored rules whose file has been
    deleted are deregistered (so removing a rule file actually silences
    the detection across restarts).
    """
    from .streaming import load_rules_directory

    loaded = 0
    seen: set[str] = set()
    for rule_id, text, rule, error in load_rules_directory(rules_dir):
        seen.add(rule_id)
        if error is not None:
            print(f"[repro] skipping invalid rule {rule_id!r}: {error}",
                  file=sys.stderr)
            continue
        existing = engine.rules.get(rule_id)
        if existing is not None:
            if existing.text == text:
                loaded += 1
                continue
            engine.remove_rule(rule_id)
        engine.rules.add_compiled(rule)
        loaded += 1
    if prune:
        for stale in engine.rules.list():
            if stale.rule_id not in seen:
                engine.remove_rule(stale.rule_id)
                print(f"[repro] dropped rule {stale.rule_id!r} (file "
                      f"removed from {rules_dir})", file=sys.stderr)
    return loaded


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import DEFAULT_MAX_BODY_BYTES, serve
    from .storage import DualStore

    if args.rules and not args.live:
        print("[repro] error: --rules requires --live (standing rules "
              "need the detection engine)", file=sys.stderr)
        return 2
    if args.checkpoint and not args.live:
        print("[repro] error: --checkpoint requires --live (only the "
              "detection engine checkpoints)", file=sys.stderr)
        return 2
    engine = None
    if args.snapshot:
        store = DualStore.open(args.snapshot, read_only=not args.live)
        mode = "writable" if args.live else "read-only"
        print(f"[repro] opened snapshot {args.snapshot} "
              f"({store.relational.count_events()} events, {mode})",
              file=sys.stderr)
    else:
        from .audit.parser import parse_audit_log
        store = DualStore(reduce=not args.no_reduction,
                          retain_events=not args.live,
                          layout=args.layout)
        count = store.load_events(parse_audit_log(_read_text(args.log)))
        print(f"[repro] ingested {count} events from {args.log}",
              file=sys.stderr)
    if args.live:
        from .streaming import DetectionEngine
        engine = DetectionEngine(store, max_alerts=args.max_alerts,
                                 seal_every=args.seal_every,
                                 checkpoint_dir=args.checkpoint)
        if args.rules:
            count = _load_rules_into(engine, args.rules)
            print(f"[repro] {count} standing rule(s) loaded from "
                  f"{args.rules}", file=sys.stderr)
    server = serve(store, host=args.host, port=args.port,
                   plan_cache_size=args.plan_cache,
                   result_cache_size=args.result_cache,
                   engine=engine, workers=args.workers,
                   backend=args.server_backend,
                   exec_threads=args.exec_threads or None,
                   queue_limit=args.queue_limit,
                   max_body_bytes=(args.max_body_bytes
                                   if args.max_body_bytes is not None
                                   else DEFAULT_MAX_BODY_BYTES),
                   read_timeout=args.read_timeout,
                   verbose=args.verbose,
                   slow_query_ms=args.slow_query_ms)
    host, port = server.server_address[:2]
    endpoints = ("POST /query, POST /hunt, GET /stats, GET /healthz, "
                 "GET /metrics")
    if engine is not None:
        endpoints += (", POST /ingest, POST /rules, DELETE /rules/{id}, "
                      "GET /rules, GET /alerts")
    print(f"[repro] serving on http://{host}:{port} "
          f"[{args.server_backend}] ({endpoints})", file=sys.stderr)
    if args.server_backend == "threaded":
        # The asyncio backend installs its own loop signal handlers; the
        # threaded one needs SIGTERM translated into the same clean exit
        # path SIGINT already takes.
        import signal

        def _sigterm(signum, frame):   # pragma: no cover - signal path
            raise KeyboardInterrupt

        try:
            signal.signal(signal.SIGTERM, _sigterm)
        except ValueError:   # pragma: no cover - not the main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:   # pragma: no cover - interactive shutdown
        print("[repro] shutting down", file=sys.stderr)
    finally:
        # Drain in-flight requests, then release sockets and executor
        # pools before sealing the live store so a checkpoint (when
        # --live --checkpoint) captures a quiesced engine.
        server.shutdown_gracefully()
        server.server_close()
        if engine is not None:
            engine.finalize()
        store.close()
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    from .storage import DualStore
    from .streaming import (DetectionEngine, FlushPolicy, LogTailer,
                            has_checkpoint, resume_engine)

    policy = FlushPolicy(max_events=args.batch_events,
                         max_seconds=args.flush_interval)
    if args.checkpoint and has_checkpoint(args.checkpoint):
        engine = resume_engine(args.checkpoint, policy=policy,
                               max_alerts=args.max_alerts,
                               checkpoint_every=args.checkpoint_every,
                               seal_every=args.seal_every)
        print(f"[repro] resumed checkpoint {args.checkpoint} "
              f"(batch {engine.batch_seq}, log offset "
              f"{engine.last_offset}, {len(engine.rules)} rule(s))",
              file=sys.stderr)
    else:
        engine = DetectionEngine(
            DualStore(reduce=not args.no_reduction, retain_events=False,
                      layout=args.layout),
            policy=policy, max_alerts=args.max_alerts,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            seal_every=args.seal_every)
    if args.rules:
        count = _load_rules_into(engine, args.rules, prune=True)
        print(f"[repro] {count} standing rule(s) loaded from {args.rules}",
              file=sys.stderr)

    def on_flush(report) -> None:
        if report.stored or report.alerts:
            print(f"[repro] batch {report.batch_seq}: stored "
                  f"{report.stored} event(s), {len(report.alerts)} "
                  f"alert(s)", file=sys.stderr)
        for alert in report.alerts:
            print(f"ALERT #{alert.alert_id} rule={alert.rule_id} "
                  f"new_events={list(alert.new_event_ids)}")
            for event in alert.matched_events:
                print(f"    {event['subject']} --{event['operation']}--> "
                      f"{event['object']}")

    tailer = LogTailer(args.log, offset=engine.last_offset)
    try:
        engine.follow(tailer, poll_interval=args.poll_interval,
                      once=args.once, on_flush=on_flush)
    except KeyboardInterrupt:   # pragma: no cover - interactive shutdown
        print("[repro] stopping tail", file=sys.stderr)
        engine.finalize()
    finally:
        engine.store.close()
    counters = engine.alerts.counters()
    print(f"[repro] tailed {engine.events_seen} event(s), stored "
          f"{engine.events_stored}, fired {counters['fired']} alert(s)",
          file=sys.stderr)
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    from .streaming import compile_rule, load_rules_directory

    if args.tbql:
        try:
            rule = compile_rule(args.tbql, "cli")
        except Exception as exc:    # ReproError subclasses
            print(f"invalid: {exc}")
            _print_diagnostic(exc)
            return 1
        kind = "time-dependent" if rule.time_dependent else "static"
        print(f"ok ({len(rule.parsed.patterns)} pattern(s), {kind})")
        return 0
    entries = load_rules_directory(args.dir)
    if not entries:
        print(f"no *.tbql rule files in {args.dir}")
        return 1
    failures = 0
    for rule_id, _text, rule, error in entries:
        if rule is not None:
            kind = "time-dependent" if rule.time_dependent else "static"
            print(f"  {rule_id:<24} ok    "
                  f"{len(rule.parsed.patterns)} pattern(s), {kind}")
        else:
            failures += 1
            print(f"  {rule_id:<24} ERROR {error}")
            _print_diagnostic(error, indent=" " * 28)
    print(f"{len(entries) - failures}/{len(entries)} rule(s) valid")
    return 1 if failures else 0


def _print_diagnostic(error: object, indent: str = "  ") -> None:
    """Print a parse error's source-context line and caret, if present."""
    diagnostic = getattr(error, "diagnostic", None)
    if diagnostic is None or not diagnostic.context:
        return
    print(f"{indent}{diagnostic.context}")
    print(f"{indent}{diagnostic.caret_line()}")


def cmd_query(args: argparse.Namespace) -> int:
    from .errors import TBQLError
    from .obs.trace import start_trace

    # A profiled query is a cold start: its trace covers the open too.
    try:
        with (start_trace("query") if args.profile
              else contextlib.nullcontext()) as trace_root:
            if args.snapshot:
                raptor = ThreatRaptor.open_snapshot(args.snapshot,
                                                    workers=args.workers)
                print(f"[repro] opened snapshot {args.snapshot} "
                      f"({raptor.store.relational.count_events()} events)",
                      file=sys.stderr)
            else:
                raptor = _load_raptor(args.log, args.no_reduction,
                                      workers=args.workers)
            tbql = args.tbql if args.tbql else _read_text(args.query_file)
            result = raptor.execute_tbql(tbql)
    except TBQLError as exc:
        print(f"invalid TBQL: {exc}", file=sys.stderr)
        diagnostic = getattr(exc, "diagnostic", None)
        if diagnostic is not None:
            print(diagnostic.render(), file=sys.stderr)
        raptor.store.close()
        return 2
    print(f"=== {len(result.rows)} result row(s) ===")
    for row in result.rows:
        print(" ", row)
    print("\n=== matched events ===")
    _print_events(result.matched_events)
    if args.explain:
        _print_plan(result)
    if args.profile:
        from .obs.trace import render_span_tree
        print("\n=== profile (span tree) ===")
        if trace_root is None:
            print("  (tracing disabled via REPRO_OBS=0)")
        else:
            print(render_span_tree(trace_root.as_dict()))
    raptor.store.close()
    return 0 if result.rows else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ThreatRaptor reproduction CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)

    extract = subparsers.add_parser(
        "extract", help="extract a threat behavior graph from OSCTI text")
    extract.add_argument("--report", required=True,
                         help="path to the OSCTI report text file")
    extract.add_argument("--show-iocs", action="store_true",
                         help="also list the merged IOCs")
    extract.set_defaults(func=cmd_extract)

    synthesize = subparsers.add_parser(
        "synthesize", help="synthesize a TBQL query from OSCTI text")
    synthesize.add_argument("--report", required=True,
                            help="path to the OSCTI report text file")
    synthesize.add_argument("--path-patterns", action="store_true",
                            help="synthesize variable-length path patterns")
    synthesize.add_argument("--length1", action="store_true",
                            help="use length-1 (->) path patterns")
    synthesize.set_defaults(func=cmd_synthesize)

    hunt = subparsers.add_parser(
        "hunt", help="extract, synthesize, and execute against an audit log")
    hunt.add_argument("--report", required=True,
                      help="path to the OSCTI report text file")
    hunt.add_argument("--log", required=True,
                      help="path to an auditd-style log file")
    hunt.add_argument("--fuzzy-fallback", action="store_true",
                      help="fall back to fuzzy search when nothing matches")
    hunt.add_argument("--no-reduction", action="store_true",
                      help="disable data reduction at ingestion time")
    hunt.set_defaults(func=cmd_hunt)

    ingest = subparsers.add_parser(
        "ingest", help="load an audit log into the dual store and report "
                       "ingestion statistics")
    ingest.add_argument("--log", required=True,
                        help="path to an auditd-style log file")
    ingest.add_argument("--stats", action="store_true",
                        help="print the per-stage breakdown (parse, reduce, "
                             "build, relational, graph)")
    ingest.add_argument("--strategy", choices=["batched", "rowwise"],
                        default="batched",
                        help="load path: batched fast path (default) or the "
                             "row-at-a-time reference")
    ingest.add_argument("--no-reduction", action="store_true",
                        help="disable data reduction at ingestion time")
    ingest.set_defaults(func=cmd_ingest)

    snapshot = subparsers.add_parser(
        "snapshot", help="ingest an audit log once and persist the dual "
                         "store as an on-disk snapshot directory")
    snapshot.add_argument("--log", required=True,
                          help="path to an auditd-style log file")
    snapshot.add_argument("--out", required=True,
                          help="snapshot directory to write (created if "
                               "missing); holds the relational SQLite "
                               "database, the binary graph snapshot, and a "
                               "JSON manifest")
    snapshot.add_argument("--strategy", choices=["batched", "rowwise"],
                          default="batched",
                          help="ingestion load path (see 'ingest')")
    snapshot.add_argument("--layout", choices=["monolithic", "segmented"],
                          default="monolithic",
                          help="store layout: 'segmented' seals the "
                               "history into immutable time-bounded "
                               "segments the executor can prune and scan "
                               "in parallel (default: monolithic)")
    snapshot.add_argument("--segment-events", type=int, default=25000,
                          help="with --layout segmented: seal a segment "
                               "every N stored events (default: 25000)")
    snapshot.add_argument("--no-reduction", action="store_true",
                          help="disable data reduction at ingestion time")
    snapshot.set_defaults(func=cmd_snapshot)

    segments = subparsers.add_parser(
        "segments", help="list the segment manifests of a snapshot "
                         "(event-id ranges, time bounds, entity counts)")
    segments.add_argument("--snapshot", required=True,
                          help="snapshot directory written by 'repro "
                               "snapshot'")
    segments.add_argument("--verbose", action="store_true",
                          help="also print each segment's seal-time "
                               "statistics (zone maps, distinct sets, "
                               "entity types) used for scan pruning")
    segments.set_defaults(func=cmd_segments)

    compact = subparsers.add_parser(
        "compact", help="merge a segmented snapshot's undersized "
                        "segments into bigger ones")
    compact.add_argument("--snapshot", required=True,
                         help="segmented snapshot directory to compact")
    compact.add_argument("--out",
                         help="write the compacted snapshot here "
                              "(default: back over --snapshot)")
    compact.add_argument("--min-events", type=int, default=5000,
                         help="merge adjacent segments smaller than this "
                              "many events (default: 5000)")
    compact.set_defaults(func=cmd_compact)

    serve = subparsers.add_parser(
        "serve", help="serve TBQL queries and OSCTI hunts concurrently "
                      "over HTTP from a snapshot (or a freshly ingested "
                      "audit log)")
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--snapshot",
                        help="snapshot directory written by 'repro "
                             "snapshot'; opened read-only and shared by "
                             "all request threads")
    source.add_argument("--log",
                        help="audit log to ingest into an in-memory store "
                             "before serving (no persistence)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787,
                       help="TCP port (default: 8787; 0 picks a free port)")
    serve.add_argument("--plan-cache", type=int, default=128,
                       help="LRU entries for compiled TBQL plans "
                            "(default: 128; 0 disables)")
    serve.add_argument("--result-cache", type=int, default=256,
                       help="LRU entries for query results, keyed by query "
                            "text (default: 256; 0 disables)")
    serve.add_argument("--no-reduction", action="store_true",
                       help="with --log: disable data reduction")
    serve.add_argument("--layout", choices=["monolithic", "segmented"],
                       default="monolithic",
                       help="with --log: store layout for the ingested "
                            "data (snapshots carry their own layout)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes for parallel segment scans "
                            "over a segmented store (default: 1 = serial)")
    serve.add_argument("--server-backend",
                       choices=["asyncio", "threaded"], default="asyncio",
                       help="HTTP front end: asyncio event loop with "
                            "keep-alive connections, a bounded executor "
                            "pool and admission-queue backpressure "
                            "(default), or the legacy thread-per-"
                            "connection server")
    serve.add_argument("--exec-threads", type=int, default=0,
                       help="asyncio backend: executor threads running "
                            "TBQL off the event loop (0 = auto-size "
                            "from the CPU count)")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="asyncio backend: admission-queue depth per "
                            "lane before requests are answered 429 "
                            "(default 64)")
    serve.add_argument("--max-body-bytes", type=int, default=None,
                       help="reject POST bodies larger than this with "
                            "413 (default 8 MiB; both backends)")
    serve.add_argument("--read-timeout", type=float, default=None,
                       help="asyncio backend: close keep-alive "
                            "connections idle or stalled longer than "
                            "this many seconds (default 30)")
    serve.add_argument("--checkpoint",
                       help="with --live: checkpoint the detection "
                            "engine into this directory on graceful "
                            "shutdown")
    serve.add_argument("--seal-every", type=int, default=0,
                       help="with --live: seal the active segment after "
                            "this many stored flushes (0 = only at "
                            "checkpoints; segmented stores only)")
    serve.add_argument("--live", action="store_true",
                       help="enable live ingestion + standing-query "
                            "detection (POST /ingest, /rules, /alerts); "
                            "snapshots reopen writable")
    serve.add_argument("--rules",
                       help="with --live: directory of *.tbql standing "
                            "rules to preload")
    serve.add_argument("--max-alerts", type=int, default=1000,
                       help="with --live: bounded alert-store capacity "
                            "(default: 1000)")
    serve.add_argument("--slow-query-ms", type=float, default=None,
                       help="log a structured JSON slow-query record "
                            "(with the embedded span-tree profile) to "
                            "stderr for any query (or, with --live, "
                            "ingest) slower than this many milliseconds")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.set_defaults(func=cmd_serve)

    tail = subparsers.add_parser(
        "tail", help="follow a growing audit log, ingest it incrementally, "
                     "and evaluate standing TBQL detections per flush")
    tail.add_argument("--log", required=True,
                      help="audit log file to follow (may not exist yet)")
    tail.add_argument("--rules",
                      help="directory of *.tbql standing-rule files")
    tail.add_argument("--checkpoint",
                      help="checkpoint directory: resumed on start when it "
                           "holds stream state, written on finalize (and "
                           "every --checkpoint-every flushes)")
    tail.add_argument("--checkpoint-every", type=int, default=0,
                      help="checkpoint after this many stored flushes "
                           "(0 disables periodic checkpointing)")
    tail.add_argument("--batch-events", type=int, default=2000,
                      help="size flush trigger: buffered events that force "
                           "a flush (default: 2000)")
    tail.add_argument("--flush-interval", type=float, default=1.0,
                      help="time flush trigger in seconds (default: 1.0)")
    tail.add_argument("--poll-interval", type=float, default=0.5,
                      help="seconds between file polls (default: 0.5)")
    tail.add_argument("--max-alerts", type=int, default=1000,
                      help="bounded alert-store capacity (default: 1000)")
    tail.add_argument("--once", action="store_true",
                      help="drain the log to its current end, seal, "
                           "checkpoint, and exit (batch catch-up mode)")
    tail.add_argument("--no-reduction", action="store_true",
                      help="disable data reduction at ingestion time")
    tail.add_argument("--layout", choices=["monolithic", "segmented"],
                      default="monolithic",
                      help="store layout for the live store (checkpoints "
                           "of a segmented store carry their segments)")
    tail.add_argument("--seal-every", type=int, default=0,
                      help="seal the active segment after this many "
                           "stored flushes (0 = only at checkpoints; "
                           "segmented stores only)")
    tail.set_defaults(func=cmd_tail)

    rules = subparsers.add_parser(
        "rules", help="validate standing-rule files (TBQL compile check)")
    group = rules.add_mutually_exclusive_group(required=True)
    group.add_argument("--dir", help="directory of *.tbql rule files")
    group.add_argument("--tbql", help="validate a single rule text")
    rules.set_defaults(func=cmd_rules)

    query = subparsers.add_parser(
        "query", help="run a hand-written TBQL query against an audit "
                      "log or a snapshot")
    source = query.add_mutually_exclusive_group(required=True)
    source.add_argument("--log", help="audit log to ingest and query")
    source.add_argument("--snapshot",
                        help="snapshot directory to query (opened "
                             "read-only; segmented snapshots support "
                             "--workers)")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--tbql", help="TBQL query text")
    group.add_argument("--query-file", help="path to a file with TBQL text")
    query.add_argument("--workers", type=int, default=1,
                       help="worker processes for parallel segment scans "
                            "(default: 1 = serial)")
    query.add_argument("--no-reduction", action="store_true",
                       help="disable data reduction at ingestion time")
    query.add_argument("--explain", action="store_true",
                       help="print the structured per-step execution plan "
                            "(backend, pruning score, candidate pushdown, "
                            "rows in/out, stage timings)")
    query.add_argument("--profile", action="store_true",
                       help="execute under a trace and print the span "
                            "tree (parse, plan, per-segment scans, join, "
                            "aggregation, hydration)")
    query.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":     # pragma: no cover - exercised via main()
    sys.exit(main())
