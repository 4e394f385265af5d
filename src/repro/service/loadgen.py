"""Asyncio load generator for the query service's HTTP front end.

Drives many concurrent *keep-alive* clients against a running server —
each client is one coroutine holding one TCP connection for its whole
request train — and reports throughput (qps) plus latency quantiles
(p50/p99).  Used by the ``service_http`` metric of
``benchmarks/regression_gate.py``; the HTTP side is raw
``asyncio.open_connection`` so a thousand clients cost one driver
thread, not a thousand.

All clients connect first, then start firing together (a start barrier),
so the timed window measures request serving rather than connection
ramp-up.  A server that closes the connection mid-train (a drained
keep-alive socket) is handled by a transparent reconnect; responses with
unexpected statuses are counted as errors, never silently dropped.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Optional

#: Seconds a single request may take before the client counts it failed.
DEFAULT_REQUEST_TIMEOUT = 60.0


@dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    clients: int
    requests: int
    errors: int
    seconds: float
    qps: float
    p50_ms: float
    p99_ms: float
    statuses: dict[int, int] = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dict for the benchmark result tables."""
        return {"clients": self.clients, "requests": self.requests,
                "errors": self.errors, "seconds": self.seconds,
                "qps": self.qps, "p50_ms": self.p50_ms,
                "p99_ms": self.p99_ms}


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def build_query_request(tbql: str, host: str, port: int,
                        use_cache: bool = True) -> bytes:
    """Raw keep-alive ``POST /query`` request bytes for one TBQL text."""
    body = json.dumps({"tbql": tbql, "use_cache": use_cache}).encode()
    head = (f"POST /query HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n").encode("latin-1")
    return head + body


async def _read_response(reader: asyncio.StreamReader,
                         timeout: float) -> tuple[int, bytes]:
    """Read one HTTP/1.1 response; returns (status, body bytes)."""
    status_line = await asyncio.wait_for(reader.readline(), timeout)
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    length = 0
    close_after = False
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionResetError("connection closed mid-headers")
        name, _, value = line.partition(b":")
        key = name.strip().lower()
        if key == b"content-length":
            length = int(value.strip())
        elif key == b"connection" and b"close" in value.lower():
            close_after = True
    body = await asyncio.wait_for(reader.readexactly(length), timeout) \
        if length else b""
    if close_after:
        raise ConnectionResetError("server requested connection close")
    return status, body


async def _client_train(host: str, port: int,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter,
                        requests: list[bytes],
                        count: int, offset: int,
                        latencies: list[float], statuses: dict[int, int],
                        timeout: float) -> int:
    """One keep-alive client firing ``count`` requests down one socket.

    Returns the number of failed requests (transport errors after one
    reconnect attempt, or timeouts).
    """
    errors = 0
    try:
        for index in range(count):
            payload = requests[(offset + index) % len(requests)]
            started = time.perf_counter()
            try:
                writer.write(payload)
                await writer.drain()
                status, _body = await _read_response(reader, timeout)
            except (ConnectionError, asyncio.IncompleteReadError,
                    ValueError, OSError):
                # Stale/dropped keep-alive socket: reconnect, retry once.
                writer.close()
                try:
                    reader, writer = await asyncio.open_connection(host,
                                                                   port)
                    writer.write(payload)
                    await writer.drain()
                    status, _body = await _read_response(reader, timeout)
                except (ConnectionError, asyncio.IncompleteReadError,
                        ValueError, OSError, asyncio.TimeoutError):
                    errors += 1
                    continue
            except asyncio.TimeoutError:
                errors += 1
                continue
            latencies.append(time.perf_counter() - started)
            statuses[status] = statuses.get(status, 0) + 1
            if status != 200:
                errors += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return errors


async def _run(host: str, port: int, requests: list[bytes], clients: int,
               requests_per_client: int,
               timeout: float) -> LoadResult:
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    # Establish every keep-alive connection before the clock starts, so
    # the timed window measures serving, not connection ramp-up.
    connections = await asyncio.gather(
        *[asyncio.open_connection(host, port) for _ in range(clients)])
    tasks = [asyncio.create_task(_client_train(
        host, port, reader, writer, requests, requests_per_client, worker,
        latencies, statuses, timeout))
        for worker, (reader, writer) in enumerate(connections)]
    started = time.perf_counter()
    errors = sum(await asyncio.gather(*tasks))
    elapsed = time.perf_counter() - started
    latencies.sort()
    total = clients * requests_per_client
    return LoadResult(
        clients=clients, requests=total, errors=errors, seconds=elapsed,
        qps=total / elapsed if elapsed > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50) * 1000.0,
        p99_ms=percentile(latencies, 0.99) * 1000.0,
        statuses=statuses)


def run_load(host: str, port: int, queries: list[str], clients: int,
             requests_per_client: int,
             timeout: float = DEFAULT_REQUEST_TIMEOUT,
             use_cache: bool = True,
             requests: Optional[list[bytes]] = None) -> LoadResult:
    """Fire a keep-alive query load at a server; returns the aggregate.

    ``queries`` rotate round-robin across the request train (staggered
    per client so the mix is uniform at every instant); pass prebuilt
    ``requests`` bytes to drive arbitrary endpoints instead.
    """
    if requests is None:
        requests = [build_query_request(text, host, port,
                                        use_cache=use_cache)
                    for text in queries]
    if not requests:
        raise ValueError("no requests to issue")
    return asyncio.run(_run(host, port, requests, clients,
                            requests_per_client, timeout))


__all__ = ["LoadResult", "run_load", "build_query_request", "percentile",
           "DEFAULT_REQUEST_TIMEOUT"]
