"""Concurrent TBQL query service over one shared read-only store.

The serving subsystem turns the reproduction from a batch tool into an
always-on hunting service: an audit log is ingested (and snapshotted) once,
then many clients hunt against the same provenance data concurrently.

* :class:`QueryService` is the transport-agnostic core: it shares one
  :class:`~repro.tbql.executor.TBQLExecutor` across threads, keeps an LRU
  *compiled-plan cache* (query text -> parsed/resolved TBQL, skipping the
  lexer/parser/semantic passes on repeat queries) and a bounded *result
  cache* keyed by query text (time-dependent queries — ``last N`` windows —
  are compiled per request and never result-cached).
* :func:`route` maps one ``(method, path, body)`` triple onto the service
  and returns the ``(status, payload)`` pair — the single routing table
  shared by both HTTP front ends, which is what keeps their JSON
  ``result`` payloads byte-identical.
* :class:`ThreatHuntingServer` is a stdlib ``ThreadingHTTPServer`` exposing
  the JSON API: ``POST /query``, ``POST /hunt``, ``GET /stats``,
  ``GET /healthz`` — one thread per connection
  (``repro serve --server-backend threaded``).
* :class:`~repro.service.aserver.AsyncThreatHuntingServer` (the default
  backend) serves the same API from an asyncio event loop with keep-alive
  connections, a bounded executor pool, and admission-queue backpressure.

When a :class:`~repro.streaming.engine.DetectionEngine` is attached
(``repro serve --live``) the service additionally exposes the live
endpoints — ``POST /ingest`` (append audit records to the served store),
``POST /rules`` / ``DELETE /rules/{id}`` / ``GET /rules`` (standing TBQL
detections), and ``GET /alerts`` — and every query executes under the
shared single-writer/multi-reader lock so reads never observe a
half-applied ingest batch.  Without an engine those endpoints answer
``409 Conflict``.

Response payloads separate the deterministic query outcome (``result``:
rows, matched events, per-step plan without timings) from the per-request
volatile data (``timing``, ``cached``), so two executions of the same query
— concurrent or serial, cached or not — produce byte-identical ``result``
sections.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional
from urllib.parse import parse_qs, unquote, urlsplit

from .. import __version__
from ..errors import ReproError, StreamingError
from ..obs.metrics import METRICS_CONTENT_TYPE, get_registry
from ..obs.trace import start_span, start_trace
from ..storage.dualstore import DualStore

if TYPE_CHECKING:   # pragma: no cover - typing only
    from ..streaming.engine import DetectionEngine
from ..tbql.executor import QueryResult, TBQLExecutor
from ..tbql.fuzzy import FuzzySearcher
from ..tbql.parser import parse_tbql
from ..tbql.semantics import (ResolvedQuery, query_is_time_dependent,
                              resolve_query)
from ..tbql.synthesis import SynthesisPlan, TBQLSynthesizer
from .cache import LRUCache

#: Default cache sizes (overridable via ``repro serve --plan-cache /
#: --result-cache``; zero disables the cache).
DEFAULT_PLAN_CACHE_SIZE = 128
DEFAULT_RESULT_CACHE_SIZE = 256

#: Largest request body either HTTP front end accepts; beyond it the
#: server answers ``413`` without reading the payload
#: (``repro serve --max-body-bytes``).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024


#: Per-step plan fields that depend on *when* a query ran rather than on the
#: data: wall-clock timings and the hydration-query count (0 once the shared
#: executor's entity cache is warm).  Excluded from response payloads so two
#: executions of the same query produce byte-identical ``result`` sections.
_VOLATILE_PLAN_FIELDS = ("seconds", "hydration_queries")

#: Known endpoint paths, so request metrics stay bounded-cardinality
#: even when clients probe random URLs.
_TRACKED_PATHS = frozenset({"/query", "/hunt", "/ingest", "/rules",
                            "/alerts", "/stats", "/healthz", "/metrics"})


def canonical_endpoint(path: str) -> str:
    """Collapse a request path onto a bounded label set."""
    if path in _TRACKED_PATHS:
        return path
    if path.startswith("/rules/"):
        return "/rules/{id}"
    return "other"


def observe_request(backend: str, method: str, path: str, status: int,
                    seconds: float) -> None:
    """Record one served request into the metrics registry."""
    registry = get_registry()
    endpoint = canonical_endpoint(path)
    registry.counter(
        "repro_http_requests_total",
        "HTTP requests served, by backend, method, path and status.",
        labels=("backend", "method", "path", "status"),
    ).labels(backend, method, endpoint, str(status)).inc()
    registry.histogram(
        "repro_http_request_seconds",
        "Request latency from routing to response, in seconds.",
        labels=("backend", "method", "path"),
    ).labels(backend, method, endpoint).observe(seconds)


def result_payload(result: QueryResult) -> dict:
    """The deterministic, JSON-ready view of a query result."""
    return {
        "rows": result.rows,
        "matched_events": result.matched_events,
        "per_pattern_matches": result.per_pattern_matches,
        "plan": [{key: value for key, value in step.as_dict().items()
                  if key not in _VOLATILE_PLAN_FIELDS}
                 for step in result.plan],
    }


class QueryService:
    """Thread-safe TBQL execution shared by every request handler.

    Args:
        store: the dual store to serve (typically ``DualStore.open()`` of a
            snapshot; a freshly loaded writable store works too).
        use_scheduler: forwarded to the shared executor.
        plan_cache_size: LRU entries for compiled plans (0 disables).
        result_cache_size: LRU entries for query results (0 disables).
        engine: optional live detection engine over the same store; when
            set, the ingest/rules/alerts endpoints come alive, the engine's
            rule evaluation shares this service's executor caches, and all
            query execution takes the engine's reader lock.
        workers: worker processes for scatter-gather pattern scans over
            a segmented store's sealed segments (``repro serve
            --workers``); 1 scans serially.
        slow_query_ms: when set, any query or ingest slower than this
            threshold logs a structured JSON record to stderr with the
            embedded span-tree profile (``repro serve --slow-query-ms``).
    """

    def __init__(self, store: DualStore, use_scheduler: bool = True,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
                 result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
                 engine: "Optional[DetectionEngine]" = None,
                 workers: int = 1,
                 slow_query_ms: float | None = None) -> None:
        self.store = store
        self.slow_query_ms = slow_query_ms
        #: Set by the HTTP front end that serves this instance; reported
        #: by /healthz ("embedded" when no server owns the service).
        self.server_backend: Optional[str] = None
        self.executor = TBQLExecutor(store, use_scheduler=use_scheduler,
                                     workers=workers)
        self.plan_cache = LRUCache(plan_cache_size)
        self.result_cache = LRUCache(result_cache_size)
        self.engine = engine
        if engine is not None:
            # Rule evaluation reuses the shared executor (and its hydrated-
            # entity cache); queries take the engine's reader lock so an
            # in-flight append is never observed half-applied.
            engine.executor = self.executor
            self._read_guard: Any = engine.lock.read_lock
        else:
            self._read_guard = nullcontext
        self._hunt_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._idle = threading.Condition()
        self._inflight = 0
        self._counters = {"queries": 0, "query_cache_hits": 0, "hunts": 0,
                          "ingests": 0, "errors": 0}
        self._started_at = time.time()
        self._extractor_instance: Any = None
        self._data_version = getattr(store, "data_version", None)

    # ------------------------------------------------------------------
    # compiled-plan cache
    # ------------------------------------------------------------------
    def compile(self, text: str) -> ResolvedQuery:
        """Parse and resolve TBQL text through the compiled-plan cache."""
        resolved, _time_independent = self._compile(text)
        return resolved

    def _compile(self, text: str) -> tuple[ResolvedQuery, bool]:
        """Resolve through the plan cache; also reports time-independence.

        Cache entries hold the parsed AST plus, for time-independent
        queries, the fully resolved form; time-dependent queries reuse the
        parse but re-resolve against the current clock (and must never be
        result-cached).
        """
        entry = self.plan_cache.get(text)
        if entry is None:
            self._cache_event("plan", "miss")
            parsed = parse_tbql(text)
            resolved = None if query_is_time_dependent(parsed) \
                else resolve_query(parsed)
            self.plan_cache.put(text, (parsed, resolved))
        else:
            self._cache_event("plan", "hit")
            parsed, resolved = entry
        if resolved is None:
            return resolve_query(parsed), False
        return resolved, True

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def query(self, text: str, use_cache: bool = True,
              profile: bool = False) -> dict:
        """Execute TBQL text; returns the JSON-ready response payload.

        Result-cache entries are tagged with the ``data_version`` they
        were computed against and validated on every hit, so a query
        racing a live ingest can never serve pre-ingest rows — the
        wholesale clear in :meth:`_check_data_version` is housekeeping,
        the version tag is the correctness guarantee.

        ``profile=True`` executes under a trace and returns the span
        tree as a top-level ``profile`` key; the result cache is
        bypassed in both directions so the profile always describes a
        real execution (and cached payloads stay byte-identical).
        """
        self._bump("queries")
        self._check_data_version()
        if use_cache and not profile:
            entry = self.result_cache.get(text)
            if entry is not None:
                cached_version, cached = entry
                if cached_version == getattr(self.store, "data_version",
                                             None):
                    self._bump("query_cache_hits")
                    self._cache_event("result", "hit")
                    response = dict(cached)
                    response["cached"] = True
                    return response
            self._cache_event("result", "miss")
        want_trace = profile or self.slow_query_ms is not None
        trace_cm = start_trace("query") if want_trace \
            else nullcontext(None)
        with trace_cm as root:
            with start_span("parse"):
                resolved, cacheable = self._compile(text)
            start = time.perf_counter()
            with self._read_guard():
                # Read the version inside the guard: writers are
                # excluded, so the result is computed against exactly
                # this version.
                executed_version = getattr(self.store, "data_version",
                                           None)
                result = self.executor.execute(resolved)
            elapsed = time.perf_counter() - start
        response = {
            "query": text,
            "cached": False,
            "result": result_payload(result),
            "timing": {
                "elapsed_seconds": elapsed,
                "join_seconds": result.join_seconds,
            },
        }
        if use_cache and cacheable and not profile:
            self.result_cache.put(text, (executed_version, response))
        if root is not None:
            tree = root.as_dict()
            if profile:
                response["profile"] = tree
            self._maybe_log_slow("slow_query", {"query": text}, elapsed,
                                 tree)
        return response

    def _maybe_log_slow(self, event: str, what: dict, elapsed: float,
                        tree: dict) -> None:
        """Emit a structured JSON slow-request record to stderr."""
        threshold = self.slow_query_ms
        if threshold is None or elapsed * 1000.0 < threshold:
            return
        record = {"event": event, **what,
                  "elapsed_ms": round(elapsed * 1000.0, 3),
                  "threshold_ms": threshold, "profile": tree}
        sys.stderr.write(json.dumps(record) + "\n")

    def try_cached_query(self, text: str) -> Optional[dict]:
        """Answer a query from the result cache alone; ``None`` on miss.

        The hit path is a version-validated dict lookup — no parsing, no
        store access, nothing that can block — so an event-loop front
        end can serve hot queries inline without paying an executor
        handoff; a miss falls back to the full :meth:`query` path (which
        counts the request), leaving the counters identical to the
        always-slow path.
        """
        self._check_data_version()
        entry = self.result_cache.get(text)
        if entry is None:
            return None
        cached_version, cached = entry
        if cached_version != getattr(self.store, "data_version", None):
            return None
        self._bump("queries")
        self._bump("query_cache_hits")
        self._cache_event("result", "hit")
        response = dict(cached)
        response["cached"] = True
        return response

    def hunt(self, report_text: str, fuzzy_fallback: bool = False) -> dict:
        """Extract + synthesize + execute an OSCTI report; returns payload.

        Extraction and synthesis run under a lock (the NLP pipeline is not
        audited for thread safety and hunts are rare next to queries); the
        synthesized TBQL then goes through the regular concurrent
        :meth:`query` path, sharing its caches.
        """
        self._bump("hunts")
        with self._hunt_lock:
            extractor = self._extractor()
            extraction = extractor.extract(report_text)
            synthesized = TBQLSynthesizer(SynthesisPlan()).synthesize(
                extraction.graph)
        # Copy before annotating: query() may have stored this dict in the
        # result cache, and later /query hits must not see hunt-only keys.
        response = dict(self.query(synthesized.text))
        response["synthesized_tbql"] = synthesized.text
        if fuzzy_fallback and not response["result"]["rows"]:
            with self._hunt_lock, self._read_guard():
                fuzzy = FuzzySearcher(self.store).search(synthesized.text)
            best = fuzzy.best
            response["fuzzy"] = {
                "alignments": len(fuzzy.alignments),
                "best_score": best.score if best else None,
                "best_nodes": dict(best.node_names) if best else {},
            }
        return response

    def stats(self) -> dict:
        """Service statistics: store counts, cache stats, counters.

        ``plan_cache`` / ``result_cache`` expose hit/miss/eviction counters
        and ``data_version`` the store's current version, so cache
        invalidation under live ingest is observable from the outside;
        ``segments`` describes the store partitioning (layout, sealed
        segment manifests, active tail) plus the executor's worker count.
        """
        with self._counter_lock:
            counters = dict(self._counters)
        with self._read_guard():
            store_stats = self.store.statistics()
            segment_stats = self.store.segment_stats() \
                if hasattr(self.store, "segment_stats") else None
        payload = {
            "uptime_seconds": time.time() - self._started_at,
            "read_only": getattr(self.store, "read_only", False),
            "data_version": getattr(self.store, "data_version", None),
            "store": store_stats,
            "counters": counters,
            "plan_cache": self.plan_cache.stats(),
            "result_cache": self.result_cache.stats(),
        }
        if segment_stats is not None:
            segment_stats["workers"] = self.executor.workers
            segment_stats["pool_fallback"] = self.executor.pool_fallback
            segment_stats["pruning"] = self.executor.pruning_totals
            payload["segments"] = segment_stats
        if self.engine is not None:
            payload["streaming"] = self.engine.stats()
        return payload

    def healthz(self) -> dict:
        """Liveness payload: status, uptime, version, server backend."""
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started_at,
            "version": __version__,
            "backend": self.server_backend or "embedded",
        }

    def metrics_text(self) -> str:
        """Render the Prometheus text exposition for ``GET /metrics``."""
        registry = get_registry()
        registry.gauge(
            "repro_uptime_seconds",
            "Seconds since this service instance started.",
        ).set(time.time() - self._started_at)
        registry.gauge(
            "repro_build_info",
            "Constant 1, labelled with the package version.",
            labels=("version",),
        ).labels(__version__).set(1)
        return registry.render()

    def close(self) -> None:
        """Release executor resources (the scatter-gather worker pool)."""
        self.executor.close()

    # ------------------------------------------------------------------
    # live streaming endpoints (active when an engine is attached)
    # ------------------------------------------------------------------
    def _require_engine(self) -> "DetectionEngine":
        if self.engine is None:
            raise StreamingError(
                "live ingestion is disabled on this server (start it with "
                "repro serve --live)", status=409)
        return self.engine

    def ingest(self, log_text: str, seal: bool = True) -> dict:
        """Append audit record lines to the served store; returns a report.

        The batch is stored and every standing rule is evaluated against
        the delta before the response is built, so the payload carries the
        alerts this ingest triggered.  By default each request is *sealed*
        — its open merge runs flush so all of its events are immediately
        queryable; pass ``seal=False`` when posting contiguous chunks of
        one log and cross-request event merging should continue.

        Parsing is tolerant (malformed records are skipped, like the log
        tailer), but never silent: the payload reports ``lines``,
        ``malformed``, and the first few parse errors, so a client posting
        garbage can tell it apart from a validly empty batch.
        """
        engine = self._require_engine()
        self._bump("ingests")
        start = time.perf_counter()
        with (start_trace("ingest") if self.slow_query_ms is not None
              else nullcontext(None)) as root:
            report, parse_report = engine.ingest_log_text(log_text,
                                                          seal=seal)
        if root is not None:
            self._maybe_log_slow(
                "slow_ingest", {"lines": parse_report.total_lines,
                                "stored": report.stored},
                time.perf_counter() - start, root.as_dict())
        payload = report.as_dict()
        payload["lines"] = parse_report.total_lines
        payload["malformed"] = parse_report.malformed_lines
        payload["parse_errors"] = parse_report.errors[:5]
        payload["data_version"] = getattr(self.store, "data_version", None)
        return payload

    def add_rule(self, tbql: str, rule_id: str | None = None) -> dict:
        """Register a standing rule; returns its JSON view."""
        engine = self._require_engine()
        rule = engine.add_rule(tbql, rule_id=rule_id)
        return {"rule": rule.as_dict()}

    def delete_rule(self, rule_id: str) -> dict:
        """Deregister a standing rule by id."""
        engine = self._require_engine()
        removed = engine.remove_rule(rule_id)
        return {"removed": removed.as_dict()}

    def rules(self) -> dict:
        """List the registered standing rules."""
        engine = self._require_engine()
        return {"rules": [rule.as_dict() for rule in engine.rules.list()]}

    def alerts(self, since_id: int = 0, limit: int | None = None) -> dict:
        """Alerts newer than ``since_id`` plus the ring counters."""
        engine = self._require_engine()
        selected = engine.alerts.list(since_id=since_id, limit=limit)
        return {
            "alerts": [alert.as_dict() for alert in selected],
            "next_since_id": selected[-1].alert_id if selected
            else since_id,
            "counters": engine.alerts.counters(),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bump(self, counter: str) -> None:
        with self._counter_lock:
            self._counters[counter] += 1

    @staticmethod
    def _cache_event(cache: str, outcome: str) -> None:
        get_registry().counter(
            "repro_cache_requests_total",
            "Plan/result cache lookups, by cache and outcome.",
            labels=("cache", "outcome"),
        ).labels(cache, outcome).inc()

    # ------------------------------------------------------------------
    # in-flight request tracking (graceful-shutdown drain)
    # ------------------------------------------------------------------
    def _enter_request(self) -> None:
        with self._idle:
            self._inflight += 1

    def _exit_request(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    @property
    def inflight(self) -> int:
        """Requests currently being routed (any front end)."""
        with self._idle:
            return self._inflight

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is in flight; False on timeout.

        Both HTTP front ends route every request through :func:`route`,
        which tracks entry/exit here — so a server that has stopped
        accepting work can drain what is already executing before
        tearing the executor and the store down.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def _check_data_version(self) -> None:
        """Drop cached results when the store's data was replaced.

        Read-only snapshot stores never change, but the service also
        accepts a writable store — a reload there must not leave the
        result cache answering from the replaced data.  (The plan cache
        survives: compiled plans depend only on the query text.)
        """
        version = getattr(self.store, "data_version", None)
        if version != self._data_version:
            with self._counter_lock:
                if version != self._data_version:
                    self.result_cache.clear()
                    self._data_version = version

    def _extractor(self) -> Any:
        # Imported and constructed lazily: the extraction pipeline pulls in
        # the whole NLP substrate, which pure query serving never needs.
        if self._extractor_instance is None:
            from ..extraction.pipeline import ThreatBehaviorExtractor
            self._extractor_instance = ThreatBehaviorExtractor()
        return self._extractor_instance


def parse_json_body(raw: bytes) -> dict:
    """Decode a request body into a JSON object; ``ValueError`` if not one.

    The shared validation for every POST endpoint: a missing body, broken
    JSON, and a non-object top level are all rejected with a structured
    message the front ends answer as a 400.
    """
    if not raw:
        raise ValueError("missing request body")
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    return body


def _route_get(service: QueryService, path: str,
               query_string: str) -> tuple[int, Any]:
    if path == "/healthz":
        return 200, service.healthz()
    if path == "/stats":
        return 200, service.stats()
    if path == "/rules":
        return 200, service.rules()
    if path == "/alerts":
        query = parse_qs(query_string)
        try:
            since_id = int(query.get("since_id", ["0"])[0])
            limit_raw = query.get("limit", [None])[0]
            limit = int(limit_raw) if limit_raw is not None else None
        except ValueError:
            return 400, {"error": "since_id/limit must be integers"}
        return 200, service.alerts(since_id=since_id, limit=limit)
    return 404, {"error": f"unknown path: {path}"}


def _route_post(service: QueryService, path: str,
                body: dict) -> tuple[int, Any]:
    if path == "/query":
        text = body.get("tbql")
        if not isinstance(text, str) or not text.strip():
            return 400, {"error": "missing 'tbql' query text"}
        return 200, service.query(
            text, use_cache=bool(body.get("use_cache", True)),
            profile=bool(body.get("profile", False)))
    if path == "/hunt":
        report = body.get("report")
        if not isinstance(report, str) or not report.strip():
            return 400, {"error": "missing 'report' text"}
        return 200, service.hunt(
            report, fuzzy_fallback=bool(body.get("fuzzy_fallback", False)))
    if path == "/ingest":
        log_text = body.get("log")
        if not isinstance(log_text, str) or not log_text.strip():
            return 400, {"error": "missing 'log' record text"}
        return 200, service.ingest(log_text,
                                   seal=bool(body.get("seal", True)))
    if path == "/rules":
        tbql = body.get("tbql")
        if not isinstance(tbql, str) or not tbql.strip():
            return 400, {"error": "missing 'tbql' rule text"}
        rule_id = body.get("id")
        if rule_id is not None and not isinstance(rule_id, str):
            return 400, {"error": "'id' must be a string"}
        return 200, service.add_rule(tbql, rule_id=rule_id)
    return 404, {"error": f"unknown path: {path}"}


def route(service: QueryService, method: str, target: str,
          body: dict | None) -> tuple[int, dict]:
    """Dispatch one request onto the service; returns (status, payload).

    The single routing table shared by the threaded and asyncio front
    ends: ``target`` is the raw request target (path plus optional query
    string), ``body`` the parsed JSON object for POST requests (``None``
    otherwise).  Library errors map to their 4xx status, anything else to
    a 500 — a request can never take a connection down.  Entry/exit is
    recorded on the service so graceful shutdown can drain in-flight
    requests (:meth:`QueryService.wait_idle`).
    """
    parts = urlsplit(target)
    path = parts.path
    service._enter_request()
    try:
        if method == "GET":
            return _route_get(service, path, parts.query)
        if method == "POST":
            return _route_post(service, path, body or {})
        if method == "DELETE":
            prefix = "/rules/"
            if path.startswith(prefix) and len(path) > len(prefix):
                return 200, service.delete_rule(unquote(path[len(prefix):]))
            return 404, {"error": f"unknown path: {target}"}
        return 404, {"error": f"unsupported method: {method}"}
    except ReproError as exc:
        service._bump("errors")
        status = getattr(exc, "status", None)
        payload: dict = {"error": str(exc)}
        diagnostic = getattr(exc, "diagnostic", None)
        if diagnostic is not None:
            payload["diagnostic"] = diagnostic.as_dict()
        return (status if isinstance(status, int) else 400, payload)
    except Exception as exc:   # pragma: no cover - defensive
        service._bump("errors")
        return 500, {"error": f"internal error: {exc}"}
    finally:
        service._exit_request()


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto a shared :class:`QueryService`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if urlsplit(self.path).path == "/metrics":
            # Render first, observe after: a scrape reports itself on
            # the *next* scrape, matching the asyncio backend.
            start = time.perf_counter()
            data = self.service.metrics_text().encode("utf-8")
            observe_request("threaded", "GET", "/metrics", 200,
                            time.perf_counter() - start)
            self._send_raw(200, data, METRICS_CONTENT_TYPE)
            return
        self._routed("GET", None)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send(400, {"error": "invalid Content-Length header"})
            return
        limit = getattr(self.server, "max_body_bytes",
                        DEFAULT_MAX_BODY_BYTES)
        if length > limit:
            # The payload is rejected *unread*: answer 413 and drop the
            # connection instead of swallowing an arbitrarily large body.
            self.close_connection = True
            self._send(413, {"error": f"request body of {length} bytes "
                                      f"exceeds the {limit}-byte limit"})
            return
        try:
            body = parse_json_body(self.rfile.read(length)
                                   if length > 0 else b"")
        except ValueError as exc:
            self._send(400, {"error": str(exc)})
            return
        self._routed("POST", body)

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._routed("DELETE", None)

    def _routed(self, method: str, body: dict | None) -> None:
        start = time.perf_counter()
        status, payload = route(self.service, method, self.path, body)
        observe_request("threaded", method, urlsplit(self.path).path,
                        status, time.perf_counter() - start)
        self._send(status, payload)

    def _send(self, status: int, payload: dict) -> None:
        self._send_raw(status, json.dumps(payload).encode("utf-8"),
                       "application/json")

    def _send_raw(self, status: int, data: bytes,
                  content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            sys.stderr.write("[repro-serve] %s - %s\n" %
                             (self.address_string(), format % args))


class ThreatHuntingServer(ThreadingHTTPServer):
    """Threaded HTTP server executing TBQL over one shared store.

    Every request runs in its own thread (stdlib ``ThreadingHTTPServer``);
    concurrency safety comes from the shared :class:`QueryService` /
    :class:`~repro.tbql.executor.TBQLExecutor` and the per-thread reader
    connections of the relational store.
    """

    daemon_threads = True
    #: Hold enough pending TCP connects for a load spike: a client burst
    #: beyond the default backlog of 5 would otherwise sit in SYN retries.
    request_queue_size = 256

    def __init__(self, address: tuple[str, int], service: QueryService,
                 verbose: bool = False,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.service.server_backend = "threaded"
        self.verbose = verbose
        self.max_body_bytes = max_body_bytes

    def shutdown_gracefully(self, drain_timeout: float = 30.0) -> bool:
        """Stop accepting connections and drain in-flight requests.

        Returns False when requests were still running at the timeout.
        Safe to call after ``serve_forever`` already returned (SIGTERM
        raised through the serving thread).
        """
        self.shutdown()
        return self.service.wait_idle(drain_timeout)

    def server_close(self) -> None:
        super().server_close()
        self.service.close()


def serve(store: DualStore, host: str = "127.0.0.1", port: int = 8787,
          use_scheduler: bool = True,
          plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
          result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
          engine: "Optional[DetectionEngine]" = None,
          workers: int = 1,
          backend: str = "asyncio", exec_threads: int | None = None,
          queue_limit: int | None = None,
          max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
          read_timeout: float | None = None,
          verbose: bool = False,
          slow_query_ms: float | None = None) -> Any:
    """Build a ready-to-run server (call ``serve_forever()`` on it).

    ``backend`` picks the HTTP front end: ``"asyncio"`` (default — event
    loop, keep-alive connections, bounded executor + admission-queue
    backpressure) or ``"threaded"`` (the legacy thread-per-connection
    stdlib server).  ``exec_threads`` / ``queue_limit`` / ``read_timeout``
    only apply to the asyncio backend; ``max_body_bytes`` caps POST
    bodies on both.
    """
    if backend not in ("asyncio", "threaded"):
        raise ValueError(f"unknown server backend: {backend!r} "
                         f"(expected 'asyncio' or 'threaded')")
    service = QueryService(store, use_scheduler=use_scheduler,
                           plan_cache_size=plan_cache_size,
                           result_cache_size=result_cache_size,
                           engine=engine, workers=workers,
                           slow_query_ms=slow_query_ms)
    if backend == "threaded":
        return ThreatHuntingServer((host, port), service, verbose=verbose,
                                   max_body_bytes=max_body_bytes)
    from .aserver import AsyncThreatHuntingServer
    kwargs: dict[str, Any] = {"verbose": verbose,
                              "max_body_bytes": max_body_bytes}
    if exec_threads is not None:
        kwargs["exec_threads"] = exec_threads
    if queue_limit is not None:
        kwargs["queue_limit"] = queue_limit
    if read_timeout is not None:
        kwargs["read_timeout"] = read_timeout
    return AsyncThreatHuntingServer((host, port), service, **kwargs)


__all__ = ["QueryService", "ServiceRequestHandler", "ThreatHuntingServer",
           "serve", "route", "parse_json_body", "query_is_time_dependent",
           "result_payload", "canonical_endpoint", "observe_request",
           "DEFAULT_PLAN_CACHE_SIZE", "DEFAULT_RESULT_CACHE_SIZE",
           "DEFAULT_MAX_BODY_BYTES"]
