"""``python -m benchmarks.e2e compare A.json B.json``.

Judges run file B against run file A (the parent) with the bounds fixed
in BENCHMARK.json, one row per end-to-end metric and workload:

* ``ok``          B's median is no worse than A's by more than the bound;
* ``regressed``   it is worse by more than the bound and by more than
                  the run-to-run spread;
* ``unresolved``  the spread (relative inter-quartile range of either
                  side's runs) is wider than the bound, so the runs cannot
                  tell; never reported as unchanged.

Exits non-zero on any regression, on a higher fail ratio, or when B has
an incorrect run.  A run file is what ``--out`` wrote: one run, or the
``runs`` of all workloads; several repetitions may be concatenated in a
JSON list.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import load_spec
from .stats import relative_iqr

Runs = dict[str, list[dict]]


def collect(document: Any, into: Runs) -> None:
    if isinstance(document, list):
        for item in document:
            collect(item, into)
    elif "runs" in document:
        collect(document["runs"], into)
    elif document.get("end_to_end"):
        into.setdefault(document["workload"], []).append(document)


def load_runs(path: str | Path) -> Runs:
    runs: Runs = {}
    collect(json.loads(Path(path).read_text()), runs)
    return runs


def fail_ratio(runs: Iterable[dict]) -> float:
    runs = list(runs)
    attempted = sum(max(1, run["attempted"]) for run in runs)
    return sum(run["failed"] for run in runs) / attempted if runs else 0.0


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> dict[str, Any]:
    """Medians, worsening as a share of the parent's median, spread and
    verdict for one metric on one workload."""
    base = statistics.median(parent)
    new = statistics.median(change)
    if base == 0:
        worse = 0.0 if new == base else float("inf")
    elif better == "lower":
        worse = (new - base) / abs(base)
    else:
        worse = (base - new) / abs(base)
    spread = max(relative_iqr(parent), relative_iqr(change))
    if worse > bound:
        verdict = "regressed" if worse > spread else "unresolved"
    else:
        verdict = "ok" if spread <= bound else "unresolved"
    return {"parent": base, "change": new, "worse": worse,
            "spread": spread, "verdict": verdict}


def compare(spec: dict, parent: Runs, change: Runs
            ) -> tuple[list[dict], list[str]]:
    """Rows for every metric x workload present on both sides, plus the
    reasons (beyond regressed rows) to exit non-zero."""
    rows = []
    reasons = []
    for entry in spec["workloads"]:
        workload = entry["name"]
        if workload not in parent or workload not in change:
            continue
        before, after = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric["bound"],
                **judge([run["end_to_end"][name] for run in before],
                        [run["end_to_end"][name] for run in after],
                        metric["better"], metric["bound"])})
        if fail_ratio(after) > fail_ratio(before):
            reasons.append(f"{workload}: fail ratio rose from "
                           f"{fail_ratio(before):.6f} to "
                           f"{fail_ratio(after):.6f}")
        if not all(run.get("correct", True) for run in after):
            reasons.append(f"{workload}: an incorrect run in the change")
    return rows, reasons


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':18s} {'parent':>12s} "
             f"{'change':>12s} {'unit':5s} {'worse':>8s} {'spread':>8s} "
             f"{'bound':>6s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:18s} {row['metric']:18s} "
            f"{row['parent']:12.4f} {row['change']:12.4f} "
            f"{row['unit']:5s} {row['worse']:+8.3f} {row['spread']:8.3f} "
            f"{row['bound']:6.2f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.e2e compare PARENT.json "
              "CHANGE.json", file=sys.stderr)
        return 2
    rows, reasons = compare(load_spec(), load_runs(argv[0]),
                            load_runs(argv[1]))
    if not rows:
        print("no workload is present in both files", file=sys.stderr)
        return 2
    print(render(rows))
    for reason in reasons:
        print(f"! {reason}")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    return 1 if regressed or reasons else 0
