"""Serving subsystem: persistent snapshots answered concurrently over HTTP.

``repro snapshot`` persists an ingested dual store once;
``repro serve`` then answers many TBQL hunts against the shared read-only
store — the always-on arrangement the paper's system is built for.  One
HTTP front end, :class:`AsyncThreatHuntingServer` (keep-alive
connections, a bounded executor pool, admission-queue backpressure),
serves a transport-agnostic :class:`QueryService` through one routing
table (:func:`route`).
"""

from .aserver import (DEFAULT_EXEC_THREADS, DEFAULT_QUEUE_LIMIT,
                      DEFAULT_READ_TIMEOUT, RETRY_AFTER_SECONDS,
                      AsyncThreatHuntingServer)
from .cache import LRUCache
from .client import ServiceClient
from .server import (DEFAULT_MAX_BODY_BYTES, DEFAULT_PLAN_CACHE_SIZE,
                     DEFAULT_RESULT_CACHE_SIZE, QueryService,
                     canonical_endpoint, observe_request, parse_json_body,
                     query_is_time_dependent, result_payload, route, serve)

__all__ = [
    "canonical_endpoint",
    "observe_request",
    "LRUCache",
    "ServiceClient",
    "QueryService",
    "AsyncThreatHuntingServer",
    "serve",
    "route",
    "parse_json_body",
    "query_is_time_dependent",
    "result_payload",
    "DEFAULT_PLAN_CACHE_SIZE",
    "DEFAULT_RESULT_CACHE_SIZE",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_EXEC_THREADS",
    "DEFAULT_QUEUE_LIMIT",
    "DEFAULT_READ_TIMEOUT",
    "RETRY_AFTER_SECONDS",
]
