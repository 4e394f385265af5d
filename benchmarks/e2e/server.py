"""``repro serve`` as a subprocess, the way a user runs it.

The load generator and the server each get one of the sandbox's two
cores; the server's ``VmHWM`` is the workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from pathlib import Path

from . import sut

_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds a process has used so far."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def split_cores(server_pid: int) -> None:
    """Give the load generator (this process) one core and the server the
    others; nothing happens when only one core is allowed.

    Left to itself the scheduler sometimes keeps a client and the server
    it wakes on one core and sometimes not, and a round trip lands in one
    of two modes 0.12 ms apart; fixed placement removes that.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) >= 2:
        os.sched_setaffinity(0, {cores[0]})
        os.sched_setaffinity(server_pid, set(cores[1:]))


class Server:
    """One ``repro serve`` process; use as a context manager."""

    def __init__(self, work_dir: Path, *serve_args: str) -> None:
        self.work_dir = work_dir
        self.command = sut.serve_command(*serve_args)
        self.host = "127.0.0.1"
        self.port = 0
        self._process: subprocess.Popen | None = None
        self._log_path = work_dir / "server.stderr"
        #: Peak resident memory, read just before the process is stopped.
        self.peak_rss_mb = 0.0

    @property
    def pid(self) -> int:
        assert self._process is not None
        return self._process.pid

    def __enter__(self) -> "Server":
        tmp_dir = self.work_dir / "server-tmp"
        tmp_dir.mkdir(parents=True, exist_ok=True)
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                self.command, cwd=self.work_dir, env=sut.child_env(tmp_dir),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log)
        # Before the interpreter starts its threads: they inherit it.
        split_cores(self._process.pid)
        try:
            self._wait_until_serving()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_until_serving(self) -> None:
        assert self._process is not None
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self._log_path.read_text(errors="replace")
            match = _SERVING.search(text)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self._process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._process.returncode} before "
                    f"serving:\n{text[-2000:]}")
            time.sleep(0.02)
        raise RuntimeError("server did not start serving within "
                           f"{START_TIMEOUT:.0f} s")

    def __exit__(self, *exc_info) -> None:
        process = self._process
        if process is None:
            return
        self.peak_rss_mb = peak_rss_mb(process.pid) or self.peak_rss_mb
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._process = None
