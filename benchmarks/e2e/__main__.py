"""``python -m benchmarks.e2e``: run workloads, or ``compare`` two runs."""

import sys
import time

from .cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], started=time.perf_counter()))
