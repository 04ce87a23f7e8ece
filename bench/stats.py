"""Small statistics shared by the runner and ``compare``."""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0 when empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    """The median; 0 when empty."""
    return float(statistics.median(values)) if len(values) else 0.0


def quartiles(values: Sequence[float]) -> tuple:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0]) if len(values) else 0.0
        return value, value
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    q1, q3 = quartiles(values)
    middle = median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0
