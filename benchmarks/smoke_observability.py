"""End-to-end observability smoke: serve, scrape, profile, shut down.

Boots a real ``repro serve`` subprocess on an ephemeral port against a
freshly generated audit log, then drives the observability surface the
way an operator would::

    PYTHONPATH=src python benchmarks/smoke_observability.py

Checks: ``GET /healthz`` answers with the pinned payload shape,
``GET /metrics`` serves a valid Prometheus 0.0.4 exposition (validated
line by line with :mod:`tests.promtext`, the scraper-grade parser the
unit tests use) that contains the request metrics for the traffic this
script just sent, ``POST /query`` with ``"profile": true`` returns
a span tree rooted at ``query``, and a profiled ``count()`` query has an
``aggregate`` stage and answers with its rows and no
``matched_events``.  Exits non-zero on the first
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.audit.workload import (BenignWorkloadGenerator,  # noqa: E402
                                  WorkloadConfig)
from tests.promtext import parse_prometheus_text           # noqa: E402

BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")

QUERY = 'proc p read file f as e1 return distinct p'
AGGREGATED = 'proc p read file f return p, count() group by p top 3'


def _span_names(node: dict) -> set[str]:
    names = {node["name"]}
    for child in node.get("children", []):
        names |= _span_names(child)
    return names


def _await_banner(process: subprocess.Popen) -> tuple[str, int]:
    """Read the server's stderr until the listening banner appears."""
    deadline = time.monotonic() + 30.0
    lines = []
    assert process.stderr is not None
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        lines.append(line)
        match = BANNER.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise RuntimeError("server never printed its banner; stderr was:\n"
                       + "".join(lines))


def _get(url: str) -> tuple[bytes, str]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read(), response.headers.get("Content-Type", "")


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def check(base: str) -> None:
    health = json.loads(_get(f"{base}/healthz")[0])
    assert health["status"] == "ok", health
    assert health["backend"] == "asyncio", health
    assert set(health) == {"status", "uptime_seconds", "version",
                           "backend"}, health

    profiled = _post(f"{base}/query", {"tbql": QUERY, "profile": True})
    tree = profiled["profile"]
    assert tree["name"] == "query", tree
    assert tree["duration_ms"] > 0, tree
    assert any(child["name"] == "parse"
               for child in tree["children"]), tree

    # An aggregate's answer is its rows: an `aggregate` stage in the
    # span tree, and no matched-event list in the body.
    counted = _post(f"{base}/query", {"tbql": AGGREGATED, "profile": True})
    assert "aggregate" in _span_names(counted["profile"]), counted["profile"]
    assert counted["result"]["rows"], counted["result"]
    assert "matched_events" not in counted["result"], list(counted["result"])

    body, content_type = _get(f"{base}/metrics")
    assert content_type.startswith("text/plain"), content_type
    assert "version=0.0.4" in content_type, content_type
    families = parse_prometheus_text(body.decode("utf-8"))
    hits = [value for _name, labels, value
            in families["repro_http_requests_total"]["samples"]
            if labels["path"] == "/query" and labels["status"] == "200"]
    assert hits == [2.0], families["repro_http_requests_total"]
    assert "repro_http_request_seconds" in families
    assert "repro_build_info" in families
    print(f"  {len(families)} metric families validated, "
          f"profile tree has {len(tree['children'])} stages")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    log_text = BenignWorkloadGenerator(
        WorkloadConfig(num_sessions=10, seed=7)).generate_log()
    with tempfile.TemporaryDirectory(prefix="repro-obs-smoke-") as tmp:
        log_path = Path(tmp) / "audit.log"
        log_path.write_text(log_text, encoding="utf-8")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--log", str(log_path), "--port", "0"],
            cwd=REPO_ROOT, stderr=subprocess.PIPE, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")})
        try:
            host, port = _await_banner(process)
            print(f"[smoke] server up on {host}:{port}")
            check(f"http://{host}:{port}")
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
    print("[smoke] observability surface OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
