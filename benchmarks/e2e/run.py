"""Entry point named by BENCHMARK.json.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Runs one workload and prints one JSON object as the last line of standard
output.  Works from any directory: the package is imported relative to
this file, and the system under test from ``src/`` of the same checkout.
"""

import sys
import time

STARTED = time.perf_counter()      # set-up time starts before any import

if __name__ == "__main__":
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    try:
        from benchmarks.e2e import sut  # noqa: F401 - fails without src/
        from benchmarks.e2e.cli import main
    except ImportError as exc:
        print(f"benchmarks/e2e: cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1:], started=STARTED))
