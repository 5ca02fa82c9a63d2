"""Seeded arrival processes, in simulated cycles.

Traffic shaping for the workload driver: a list of non-decreasing
arrival times (simulated cycles) for ``n`` users.  Both processes are
pure functions of their seed — same seed, same arrivals — which is what
lets bench E18 compare runs with and without compiled superblocks byte
for byte.

* :func:`poisson_arrivals` — memoryless interactive demand: i.i.d.
  exponential inter-arrival times at a mean rate.
* :func:`bursty_arrivals` — shift-change logins: tight bursts of
  near-simultaneous arrivals separated by exponential lulls.
"""

from __future__ import annotations

import random


def poisson_arrivals(n: int, mean_gap: float, seed: int,
                     start: int = 0) -> list[int]:
    """``n`` Poisson arrivals with ``mean_gap`` simulated cycles
    between them on average, starting at ``start``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if mean_gap <= 0:
        raise ValueError("mean_gap must be positive")
    rng = random.Random(seed)
    now = float(start)
    times: list[int] = []
    for _ in range(n):
        now += rng.expovariate(1.0 / mean_gap)
        times.append(int(now))
    return times


def bursty_arrivals(n: int, burst_size: int, mean_lull: float, seed: int,
                    start: int = 0, jitter: int = 8) -> list[int]:
    """``n`` arrivals in bursts of ``burst_size``, bursts separated by
    exponential lulls of ``mean_lull`` mean cycles; arrivals inside a
    burst spread over at most ``jitter`` cycles."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if burst_size < 1:
        raise ValueError("burst_size must be at least 1")
    if mean_lull <= 0:
        raise ValueError("mean_lull must be positive")
    rng = random.Random(seed)
    now = float(start)
    times: list[int] = []
    while len(times) < n:
        base = int(now)
        offsets = sorted(
            rng.randrange(jitter + 1)
            for _ in range(min(burst_size, n - len(times)))
        )
        times.extend(base + off for off in offsets)
        now += rng.expovariate(1.0 / mean_lull)
    return times
