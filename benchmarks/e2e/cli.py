"""Command line of the benchmark.

Without a subcommand it measures; ``compare A.json B.json`` judges two
result files by the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import SCHEMA_VERSION, load_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark: four workloads, checked "
                    "against an oracle.")
    parser.add_argument("--workload",
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each run measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke exists only for the self-test")
    parser.add_argument("--out", help="write the run's JSON artifact here "
                        "(a traced run also writes trace_<workload>.json "
                        "beside it)")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's exact values as the "
                             "golden ones for seed 12")
    return parser


def main(argv: Sequence[str], started: float) -> int:
    if argv and argv[0] == "compare":
        from .compare import main as compare_main
        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    traced = bool(args.trace) or args.traced
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is None:
        return run_all(names, args, traced, seconds)
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json names "
              f"{names}", file=sys.stderr)
        return 2
    from . import harness
    line, artifact, tracer = harness.run_workload(
        args.workload, args.seed, seconds, traced, args.scale, started,
        update_golden=args.update_golden)
    harness.print_table(args.workload, line, artifact)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(artifact, indent=1) + "\n")
        if traced:
            tracer.write(out.with_name(f"trace_{args.workload}.json"))
    print(json.dumps(line))
    return 0


def run_all(names: Sequence[str], args: argparse.Namespace, traced: bool,
            seconds: float) -> int:
    """Every workload in its own process (clean memory, like the driver),
    gathered into one artifact."""
    runs = []
    status = 0
    out = Path(args.out) if args.out else None
    for name in names:
        part: Optional[Path] = None
        command = [sys.executable, str(Path(__file__).with_name("run.py")),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(int(traced)),
                   "--scale", args.scale]
        if args.update_golden:
            command.append("--update-golden")
        if out is not None:
            part = out.with_name(f"{out.stem}.{name}.json")
            command += ["--out", str(part)]
        begin = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        line = json.loads(lines[-1])
        if not line["correct"]:
            status = 1
        if part is not None:
            run = json.loads(part.read_text())
            part.unlink()
        else:
            run = {"workload": name, "line": line}
        run["wall_seconds"] = time.perf_counter() - begin
        runs.append(run)
    if out is not None:
        out.write_text(json.dumps(
            {"schema_version": SCHEMA_VERSION, "seed": args.seed,
             "scale": args.scale, "traced": traced, "runs": runs,
             "claim": None}, indent=1) + "\n")
    return status
