"""The benchmark's own load generator: stdlib asyncio, one thread.

Two disciplines, because the system has two kinds of callers:

* a **closed loop** — each client sends its next request only after the
  previous answer arrived (analysts and scripts waiting for replies);
* an **open loop** — requests are *due* on a fixed schedule regardless of
  how the server is doing (a log shipper).  Latency is timed from the due
  instant, so a stall is charged to every request it delays, and the
  distance between due and actual send is reported as lateness.

A request that fails, is refused or times out stays in the attempted
count and is charged the time-out as its latency: it misses any latency
figure instead of silently improving it.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Seconds after which a request counts as failed.
REQUEST_TIMEOUT = 30.0
#: An open-loop send counts as late when it slips by more than this.
LATE_AFTER = 0.010


@dataclass(frozen=True)
class Request:
    """One pre-encoded HTTP request plus the label its samples carry."""

    label: str
    wire: bytes

    @classmethod
    def build(cls, label: str, method: str, path: str,
              payload: Optional[dict] = None) -> "Request":
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                "Connection: keep-alive\r\n")
        if payload is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(body)}\r\n")
        return cls(label=label, wire=head.encode() + b"\r\n" + body)


def query_request(label: str, text: str, use_cache: bool = True,
                  profile: bool = False) -> Request:
    payload: dict = {"tbql": text}
    if not use_cache:
        payload["use_cache"] = False
    if profile:
        payload["profile"] = True
    return Request.build(label, "POST", "/query", payload)


@dataclass
class Sample:
    label: str
    #: When the request was due (open loop) or written (closed loop).
    start: float
    sent: float
    done: float
    status: int
    ok: bool
    body_bytes: int = 0

    @property
    def latency(self) -> float:
        """Seconds from due/written to the full body read; a failed
        request is charged at least the time-out."""
        elapsed = self.done - self.start
        return elapsed if self.ok else max(elapsed, REQUEST_TIMEOUT)

    @property
    def lateness(self) -> float:
        return self.sent - self.start


class HttpConnection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 20)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._reader = self._writer = None

    async def exchange(self, wire: bytes) -> tuple[int, bytes]:
        """Write one request, read the whole response."""
        if self._writer is None:
            await self.open()
        assert self._reader is not None and self._writer is not None
        self._writer.write(wire)
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        keep_alive = True
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                keep_alive = value.strip().lower() != b"close"
        body = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, body


#: Judges one response: ``check(request, status, body) -> correct``.
Check = Callable[[Request, int, bytes], bool]


async def _timed(connection: HttpConnection, request: Request,
                 start: float, check: Check) -> Sample:
    sent = time.perf_counter()
    try:
        status, body = await asyncio.wait_for(
            connection.exchange(request.wire), REQUEST_TIMEOUT)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            asyncio.LimitOverrunError, ValueError, IndexError):
        await connection.close()
        return Sample(request.label, start, sent, time.perf_counter(),
                      status=0, ok=False)
    done = time.perf_counter()
    return Sample(request.label, start, sent, done, status,
                  ok=(status == 200 and check(request, status, body)),
                  body_bytes=len(body))


async def closed_loop(host: str, port: int, rotation: Sequence[Request],
                      clients: int, seconds: float, check: Check,
                      stop: Optional[asyncio.Event] = None,
                      think: Optional[Callable[[], float]] = None
                      ) -> list[Sample]:
    """``clients`` keep-alive connections walk ``rotation`` in turn.

    Client *k* starts ``k / clients`` of the way into the rotation, so
    the clients never ask for the same text at the same moment.  A new
    request is only started before the deadline (or until ``stop``), and
    ``think()`` seconds after the previous answer.
    """
    deadline = time.perf_counter() + seconds

    async def client(offset: int) -> list[Sample]:
        connection = HttpConnection(host, port)
        samples = []
        position = offset
        try:
            while time.perf_counter() < deadline and \
                    not (stop is not None and stop.is_set()):
                request = rotation[position % len(rotation)]
                position += 1
                samples.append(await _timed(
                    connection, request, time.perf_counter(), check))
                if think is not None:
                    await asyncio.sleep(think())
        finally:
            await connection.close()
        return samples

    tasks = [asyncio.ensure_future(client(k * len(rotation) // clients))
             for k in range(clients)]
    results = await asyncio.gather(*tasks)
    return [sample for samples in results for sample in samples]


async def open_loop(host: str, port: int, requests: Sequence[Request],
                    interval: float, check: Check) -> list[Sample]:
    """Send ``requests[i]`` when it is due at ``t0 + i * interval``.

    One connection, like one log shipper: when an answer is still
    outstanding at the next due instant the send slips, and the slip is
    both part of that request's latency and reported as lateness.
    """
    connection = HttpConnection(host, port)
    samples = []
    try:
        await connection.open()
        origin = time.perf_counter()
        for index, request in enumerate(requests):
            due = origin + index * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            samples.append(await _timed(connection, request, due, check))
    finally:
        await connection.close()
    return samples


async def sequence(host: str, port: int, requests: Sequence[Request],
                   check: Check) -> list[Sample]:
    """Send each request once, in order, over one connection."""
    connection = HttpConnection(host, port)
    try:
        return [await _timed(connection, request, time.perf_counter(),
                             check) for request in requests]
    finally:
        await connection.close()


class SyncClient:
    """One keep-alive connection driven call by call (traced runs step
    through their requests one at a time on the calling thread)."""

    def __init__(self, host: str, port: int) -> None:
        self._loop = asyncio.new_event_loop()
        self._connection = HttpConnection(host, port)

    def send(self, request: Request, check: Check) -> Sample:
        return self._loop.run_until_complete(_timed(
            self._connection, request, time.perf_counter(), check))

    def close(self) -> None:
        self._loop.run_until_complete(self._connection.close())
        self._loop.close()


def late_ratio(samples: Sequence[Sample]) -> float:
    """Share of open-loop sends that slipped by more than LATE_AFTER."""
    if not samples:
        return 0.0
    return sum(1 for sample in samples
               if sample.lateness > LATE_AFTER) / len(samples)
