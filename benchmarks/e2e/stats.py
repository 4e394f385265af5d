"""Order statistics used by every workload and by ``compare``."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is only trusted with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: The percentile across the repetitions of one operation that counts as
#: its undisturbed time (see :func:`undisturbed`).
QUIET_PERCENTILE = 10.0


def undisturbed(values: Sequence[float]) -> float:
    """What one operation costs when nothing else has the machine.

    The sandbox shares its host: for half a minute at a time everything
    runs 15-50% slower, fluctuating from second to second (README.md,
    *Steadiness*).  Interference only ever adds time, so of the
    repetitions of the *same* operation the fastest tenth is the least
    disturbed; their upper edge, the 10th percentile, is far steadier
    than the median and moves just as much when the code gets slower.
    With ten or fewer repetitions it lies between the two fastest.
    """
    return percentile(values, QUIET_PERCENTILE)


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def is_supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ten beyond percentile q."""
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND


def relative_iqr(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with the quartiles of ``statistics.quantiles``.

    This is the spread the driver computes over ten runs of one metric.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(middle)
