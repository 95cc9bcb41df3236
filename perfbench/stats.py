"""Summary statistics used by the benchmark."""

from __future__ import annotations

import math


def tail_percentile(values: list[float], cap: int = 90, beyond: int = 10) -> tuple[int, float]:
    """The highest whole percentile, at most ``cap``, that has at least
    ``beyond`` samples above it, as ``(level, value)``.

    Nearest-rank definition: percentile p is the sample of rank
    ceil(p/100 * n) in ascending order, and the samples beyond it are the
    n - rank that follow.  Raises ValueError when fewer than ``beyond + 1``
    samples exist, since then no percentile qualifies.
    """
    xs = sorted(values)
    n = len(xs)
    for level in range(cap, 0, -1):
        rank = math.ceil(level * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return level, xs[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")

