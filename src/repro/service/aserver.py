"""Asyncio HTTP front end: keep-alive serving with bounded execution.

The default ``repro serve`` backend.  One event loop owns every
connection (``asyncio.start_server``); TBQL execution never runs on the
loop — requests are handed to a bounded ``ThreadPoolExecutor``
(``--exec-threads``), and the loop keeps accepting, parsing, and
answering while the executor works.  Three properties the threaded
backend cannot give:

* **Keep-alive at scale.**  A connection is a coroutine, not an OS
  thread: hundreds of concurrent keep-alive clients cost one loop
  thread plus N executor threads instead of one thread per socket
  (and the GIL convoy that comes with it).
* **Backpressure instead of collapse.**  Admission control bounds the
  work the server will hold: when a lane's queue is full, ``POST
  /query`` / ``POST /hunt`` (and ``POST /ingest`` on its own lane)
  answer ``429`` with a ``Retry-After`` header instead of queueing
  without bound.  Ingest is capped to at most half the executor
  threads, so a chatty ingest client can saturate its lane while
  queries keep completing.
* **Graceful drain.**  ``shutdown()`` stops accepting, lets every
  in-flight request finish (bounded by ``drain_timeout``), then closes
  idle keep-alive connections — no request is dropped mid-execution.

Routing is :func:`repro.service.server.route` — the same table the
threaded backend uses — so both front ends return byte-identical JSON
``result`` payloads.  Request hygiene: bodies beyond ``max_body_bytes``
answer ``413`` unread, malformed JSON answers a structured ``400``, and
a connection that stays silent past ``read_timeout`` (idle keep-alive or
a slow-loris trickle) is closed.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _STATUS_REASONS
from typing import Any, Optional, Union
from urllib.parse import urlsplit

from ..obs.metrics import METRICS_CONTENT_TYPE, get_registry
from .server import (DEFAULT_MAX_BODY_BYTES, QueryService, observe_request,
                     parse_json_body, route)

#: Executor threads when ``exec_threads`` is not given: enough to overlap
#: store reads, few enough that the GIL is not thrashed.
DEFAULT_EXEC_THREADS = max(2, min(8, os.cpu_count() or 2))

#: Admitted-but-not-yet-executing requests a lane holds before answering
#: 429 (``repro serve --queue-limit``).
DEFAULT_QUEUE_LIMIT = 64

#: Seconds a connection may stay silent mid-request (and between
#: keep-alive requests) before the server closes it.
DEFAULT_READ_TIMEOUT = 30.0

#: Seconds the ``Retry-After`` header advertises on a 429.
RETRY_AFTER_SECONDS = 1

#: Longest header block accepted (request line + all header lines).
_MAX_HEADER_BYTES = 32 * 1024

#: Largest POST body the loop will JSON-parse inline for the cached-query
#: fast path; bigger bodies always go through the executor.
_INLINE_BODY_LIMIT = 64 * 1024

#: Paths admission control applies to (TBQL execution / NLP extraction /
#: store mutation); everything else — health, stats, rule management —
#: is cheap and always answered.
_QUERY_LANE_PATHS = ("/query", "/hunt")
_INGEST_LANE_PATH = "/ingest"


class _AdmissionLane:
    """Bounded admission for one class of heavy requests.

    ``capacity`` admitted requests may exist at once (executing plus
    queued); beyond that :meth:`try_enter` refuses and the caller answers
    429.  Of the admitted, at most ``exec_slots`` hold an executor
    submission at a time (the semaphore); the rest wait on the loop
    without occupying a thread.  All state is loop-confined — no locks.
    """

    def __init__(self, name: str, exec_slots: int,
                 queue_slots: int) -> None:
        self.name = name
        self.exec_slots = exec_slots
        self.capacity = exec_slots + queue_slots
        self.admitted = 0
        self.rejected = 0
        self.semaphore = asyncio.Semaphore(exec_slots)
        registry = get_registry()
        self._depth_gauge = registry.gauge(
            "repro_lane_admitted",
            "Requests currently admitted (executing plus queued), "
            "per admission lane.",
            labels=("lane",)).labels(name)
        self._rejected_counter = registry.counter(
            "repro_lane_rejected_total",
            "Requests answered 429 because the lane was full.",
            labels=("lane",)).labels(name)

    def try_enter(self) -> bool:
        if self.admitted >= self.capacity:
            self.rejected += 1
            self._rejected_counter.inc()
            return False
        self.admitted += 1
        self._depth_gauge.set(self.admitted)
        return True

    def leave(self) -> None:
        self.admitted -= 1
        self._depth_gauge.set(self.admitted)


class _BadRequest(Exception):
    """Malformed HTTP framing; answered with the given status, then close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _RawResponse:
    """A pre-encoded, non-JSON response body (the /metrics exposition)."""

    __slots__ = ("data", "content_type")

    def __init__(self, data: bytes, content_type: str) -> None:
        self.data = data
        self.content_type = content_type


class AsyncThreatHuntingServer:
    """Asyncio keep-alive HTTP server over one shared `QueryService`.

    API-compatible with :class:`~repro.service.server.ThreatHuntingServer`
    where the CLI and tests touch it: constructed with ``(address,
    service)``, exposes ``server_address`` immediately (the listening
    socket is bound in the constructor), blocks in ``serve_forever()``,
    and is stopped with ``shutdown()`` (thread-safe) + ``server_close()``.

    Args:
        address: ``(host, port)`` to bind; port 0 picks a free port.
        service: the shared transport-agnostic query service.
        exec_threads: bounded executor pool running TBQL execution off
            the event loop.
        queue_limit: admitted-but-waiting requests per lane before 429.
        max_body_bytes: POST bodies beyond this answer 413 unread.
        read_timeout: seconds of request-side silence before the
            connection is closed.
        drain_timeout: seconds ``shutdown()`` waits for in-flight
            requests before cancelling the stragglers.
        verbose: log each request to stderr.
    """

    def __init__(self, address: tuple[str, int], service: QueryService,
                 exec_threads: int = DEFAULT_EXEC_THREADS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 read_timeout: float = DEFAULT_READ_TIMEOUT,
                 drain_timeout: float = 30.0,
                 verbose: bool = False) -> None:
        if exec_threads < 1:
            raise ValueError("exec_threads must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.service = service
        self.service.server_backend = "asyncio"
        self.exec_threads = exec_threads
        self.queue_limit = queue_limit
        self.max_body_bytes = max_body_bytes
        self.read_timeout = read_timeout
        self.drain_timeout = drain_timeout
        self.verbose = verbose
        # Bind now so server_address is known before serve_forever runs
        # (the threaded backend binds in its constructor too).
        self._socket = socket.create_server(address, backlog=256,
                                            reuse_port=False)
        self.server_address = self._socket.getsockname()
        # Transport counters (loop-confined writes, read-anywhere).
        self.connections_accepted = 0
        self.requests_served = 0
        self.rejected_busy = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lanes: dict[str, _AdmissionLane] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._active_requests = 0
        self._all_idle: Optional[asyncio.Event] = None
        self._draining = False
        self._shutdown_requested = False
        self._stopped = threading.Event()
        self._ready = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until ``shutdown()`` (or SIGTERM/SIGINT)."""
        try:
            asyncio.run(self._serve())
        finally:
            self._stopped.set()

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the loop is accepting (for serving threads)."""
        return self._ready.wait(timeout)

    def shutdown(self, timeout: float | None = None) -> None:
        """Request a graceful stop and wait for the loop to finish.

        Thread-safe.  The loop closes the listener, drains in-flight
        requests (up to ``drain_timeout``), closes idle keep-alive
        connections, and tears the executor pool down.
        """
        self._shutdown_requested = True
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None \
                and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:   # loop closed between check and call
                pass
        if timeout is None:
            timeout = self.drain_timeout + 10.0
        self._stopped.wait(timeout)

    def shutdown_gracefully(self, drain_timeout: float = 30.0) -> bool:
        """Alias mirroring the threaded backend's drain entry point."""
        self.drain_timeout = drain_timeout
        self.shutdown()
        return self.service.inflight == 0

    def server_close(self) -> None:
        """Release the listening socket."""
        if self._closed:
            return
        self._closed = True
        try:
            self._socket.close()
        except OSError:   # pragma: no cover - already closed by the loop
            pass

    # ------------------------------------------------------------------
    # event-loop body
    # ------------------------------------------------------------------
    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._all_idle = asyncio.Event()
        self._all_idle.set()
        ingest_slots = max(1, self.exec_threads // 2)
        self._lanes = {
            "query": _AdmissionLane("query", self.exec_threads,
                                    self.queue_limit),
            "ingest": _AdmissionLane("ingest", ingest_slots,
                                     max(1, self.queue_limit // 2)),
        }
        self._pool = ThreadPoolExecutor(max_workers=self.exec_threads,
                                        thread_name_prefix="repro-exec")
        server = await asyncio.start_server(self._handle_connection,
                                            sock=self._socket,
                                            limit=_MAX_HEADER_BYTES)
        self._install_signal_handlers()
        self._ready.set()
        if self._shutdown_requested:   # shutdown() raced serve_forever()
            self._stop_event.set()
        try:
            await self._stop_event.wait()
        finally:
            await self._drain(server)
            self._pool.shutdown(wait=True)

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        assert self._loop is not None and self._stop_event is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum,
                                              self._stop_event.set)
            except (NotImplementedError, RuntimeError,
                    ValueError):   # pragma: no cover - non-posix
                return

    async def _drain(self, server: asyncio.AbstractServer) -> None:
        """Graceful stop: close listener, finish requests, drop idlers."""
        self._draining = True
        server.close()
        await server.wait_closed()
        assert self._all_idle is not None
        if self._active_requests:
            try:
                await asyncio.wait_for(self._all_idle.wait(),
                                       self.drain_timeout)
            except asyncio.TimeoutError:   # pragma: no cover - stuck work
                self._log("drain timeout: %d request(s) abandoned"
                          % self._active_requests)
        # Whatever is left is an idle keep-alive reader (or a straggler
        # past the drain timeout): cancel and collect.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections_accepted += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:   # drain: drop the idle reader
            pass
        except (ConnectionError, OSError):  # pragma: no cover - peer reset
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,
                    asyncio.CancelledError):  # pragma: no cover
                pass

    async def _connection_loop(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                request = await self._read_request(reader)
            except asyncio.TimeoutError:
                return             # idle keep-alive or slow-loris: close
            except _BadRequest as exc:
                await self._respond(writer, exc.status,
                                    {"error": str(exc)}, keep_alive=False)
                return
            except ValueError:     # StreamReader line-limit overrun
                await self._respond(writer, 431,
                                    {"error": "request line or header "
                                              "too large"},
                                    keep_alive=False)
                return
            if request is None:    # clean EOF between requests
                return
            method, target, body_raw, keep_alive = request
            if self._draining:
                await self._respond(writer, 503,
                                    {"error": "server is shutting down"},
                                    keep_alive=False)
                return
            self._request_started()
            try:
                start = time.perf_counter()
                status, payload, extra = await self._dispatch(
                    method, target, body_raw)
                observe_request("asyncio", method, urlsplit(target).path,
                                status, time.perf_counter() - start)
                keep_alive = keep_alive and not self._draining
                # Count before the write: a client that has read the
                # response must observe the bumped counter.
                self.requests_served += 1
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive, extra=extra)
            finally:
                self._request_finished()
            self._log("%s %s -> %d" % (method, target, status))
            if not keep_alive:
                return

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Optional[tuple[str, str, bytes, bool]]:
        """Parse one request; None on clean EOF before a request line.

        The whole head (request line + headers) is read with a single
        ``readuntil`` — one coroutine round trip instead of one per
        header line, which matters at thousands of requests/sec.  The
        stream's byte limit (``_MAX_HEADER_BYTES``) bounds the head.
        """
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"),
                                          self.read_timeout)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _BadRequest(400, "connection closed mid-headers") \
                from None
        except asyncio.LimitOverrunError:
            raise _BadRequest(431, "request header block too large") \
                from None
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        if version not in ("HTTP/1.1", "HTTP/1.0"):
            raise _BadRequest(505, f"unsupported protocol: {version}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _BadRequest(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" if version == "HTTP/1.1" \
            else connection == "keep-alive"
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest(411, "chunked request bodies are not "
                                   "supported; send Content-Length")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _BadRequest(400, "invalid Content-Length header") \
                from None
        if length < 0:
            raise _BadRequest(400, "invalid Content-Length header")
        if length > self.max_body_bytes:
            # Reject *unread* — do not buffer an oversized payload.
            raise _BadRequest(413, f"request body of {length} bytes "
                                   f"exceeds the {self.max_body_bytes}-"
                                   f"byte limit")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(reader.readexactly(length),
                                              self.read_timeout)
            except asyncio.IncompleteReadError:
                raise _BadRequest(400, "connection closed mid-body") \
                    from None
        return method, target, body, keep_alive

    # ------------------------------------------------------------------
    # dispatch (admission control + executor offload)
    # ------------------------------------------------------------------
    async def _dispatch(self, method: str, target: str,
                        body_raw: bytes
                        ) -> tuple[int, Union[dict, _RawResponse],
                                   dict[str, str]]:
        path = urlsplit(target).path
        if method == "GET" and path == "/healthz":
            # Liveness must answer even with every executor thread busy.
            return 200, self.service.healthz(), {}
        if method == "GET" and path == "/metrics":
            # Registry rendering never touches the store; answer inline.
            text = self.service.metrics_text()
            return 200, _RawResponse(text.encode("utf-8"),
                                     METRICS_CONTENT_TYPE), {}
        if method == "POST" and path == "/query":
            payload = self._try_inline_cached(body_raw)
            if payload is not None:
                return 200, payload, {}
        lane: Optional[_AdmissionLane] = None
        if method == "POST":
            if path in _QUERY_LANE_PATHS:
                lane = self._lanes["query"]
            elif path == _INGEST_LANE_PATH:
                lane = self._lanes["ingest"]
        if lane is None:
            status, payload = await self._run_routed(method, target,
                                                     body_raw)
            if method == "GET" and path == "/stats" and status == 200:
                payload["server"] = self.stats()
            return status, payload, {}
        if not lane.try_enter():
            self.rejected_busy += 1
            payload = {"error": f"server busy: the {lane.name} admission "
                                f"queue is full, retry later",
                       "queue": lane.name,
                       "retry_after": RETRY_AFTER_SECONDS}
            return 429, payload, {"Retry-After": str(RETRY_AFTER_SECONDS)}
        try:
            async with lane.semaphore:
                status, payload = await self._run_routed(method, target,
                                                         body_raw)
            return status, payload, {}
        finally:
            lane.leave()

    def _try_inline_cached(self, body_raw: bytes) -> Optional[dict]:
        """Serve a ``/query`` result-cache hit directly on the loop.

        A hot cached query is a version-validated dict lookup — nothing
        that can block — so answering it inline skips the admission lane
        and the executor round trip (two thread handoffs per request,
        the dominant cost of serving a hot query).  Returns ``None`` for
        anything that is not a clean cache hit: the request then takes
        the admitted executor path, which also owns all error answers so
        the two paths cannot drift.  Oversized bodies are never parsed
        on the loop.
        """
        if len(body_raw) > _INLINE_BODY_LIMIT:
            return None
        try:
            body = parse_json_body(body_raw)
        except ValueError:
            return None
        text = body.get("tbql")
        if not isinstance(text, str) or not body.get("use_cache", True) \
                or body.get("profile"):
            return None
        return self.service.try_cached_query(text)

    async def _run_routed(self, method: str, target: str,
                          body_raw: bytes) -> tuple[int, dict]:
        """Parse the body and route — on an executor thread, off the loop."""
        assert self._loop is not None and self._pool is not None

        def work() -> tuple[int, dict]:
            body: Optional[dict] = None
            if method == "POST":
                try:
                    body = parse_json_body(body_raw)
                except ValueError as exc:
                    return 400, {"error": str(exc)}
            return route(self.service, method, target, body)

        # run_in_executor does not carry contextvars into the worker
        # thread; copy the loop's context (incl. any active trace span)
        # so instrumentation downstream sees the same request context.
        ctx = contextvars.copy_context()
        return await self._loop.run_in_executor(
            self._pool, lambda: ctx.run(work))

    # ------------------------------------------------------------------
    # response writing & bookkeeping
    # ------------------------------------------------------------------
    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Union[dict, _RawResponse],
                       keep_alive: bool,
                       extra: Optional[dict[str, str]] = None) -> None:
        if isinstance(payload, _RawResponse):
            data = payload.data
            content_type = payload.content_type
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _STATUS_REASONS.get(status, "Unknown")
        headers = [f"HTTP/1.1 {status} {reason}",
                   f"Content-Type: {content_type}",
                   f"Content-Length: {len(data)}",
                   "Connection: %s" % ("keep-alive" if keep_alive
                                       else "close")]
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        head = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1")
        writer.write(head + data)
        try:
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass

    def _request_started(self) -> None:
        self._active_requests += 1
        assert self._all_idle is not None
        self._all_idle.clear()

    def _request_finished(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            assert self._all_idle is not None
            self._all_idle.set()

    def stats(self) -> dict[str, Any]:
        """Transport-level counters (connections, requests, rejections)."""
        lanes = {
            name: {"admitted": lane.admitted, "capacity": lane.capacity,
                   "exec_slots": lane.exec_slots,
                   "rejected": lane.rejected}
            for name, lane in self._lanes.items()
        }
        return {"connections_accepted": self.connections_accepted,
                "requests_served": self.requests_served,
                "rejected_busy": self.rejected_busy,
                "exec_threads": self.exec_threads,
                "queue_limit": self.queue_limit,
                "lanes": lanes}

    def _log(self, message: str) -> None:
        if self.verbose:
            sys.stderr.write("[repro-serve] %s %s\n"
                             % (time.strftime("%H:%M:%S"), message))


__all__ = ["AsyncThreatHuntingServer", "DEFAULT_EXEC_THREADS",
           "DEFAULT_QUEUE_LIMIT", "DEFAULT_READ_TIMEOUT",
           "RETRY_AFTER_SECONDS"]
