"""Sample statistics shared by every workload.

The percentile rule: a percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so a tail figure never rests on a
handful of values.  ``percentile`` returns None when the sample is too
small; the workloads size their runs so that every percentile they
print is supported.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly past the
    interpolation point of quantile ``q`` (0 < q < 1)."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q * (n - 1))


def min_samples(q: float) -> int:
    """The smallest sample size whose ``q`` quantile is reportable."""
    n = 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolated ``q`` quantile, or None if fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    n = len(samples)
    if samples_beyond(n, q) < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of repeated measurements (repeat mode)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        only = ordered[0]
        return {"median": only, "q1": only, "q3": only, "iqr_pct": 0.0}
    q1, mid, q3 = statistics.quantiles(ordered, n=4)
    spread = 100.0 * (q3 - q1) / mid if mid else 0.0
    return {"median": mid, "q1": q1, "q3": q3, "iqr_pct": spread}
