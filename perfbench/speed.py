"""Host-speed probe: a fixed pure-Python loop timed around each timed window.

The host this benchmark runs on changes speed by 15 to 80% over minutes,
and every timed layer slows with it. Timing the probe right before and
right after a window and dividing the window by the probe's mean time
removes that drift: over 30 to 60 s windows of back-to-back cold pipeline
runs, medians of the raw times spread by 16 to 20%, and medians of the
scaled times by 4 to 5%. Reported times are scaled to a host on which one
probe takes ``REFERENCE_S``; the raw medians are printed beside them.
"""

from __future__ import annotations

import time

ITERATIONS = 150_000
REFERENCE_S = 0.010


def probe() -> float:
    """Wall seconds of the fixed loop."""
    started = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


def factor(before: float, after: float) -> float:
    """How much slower than the reference the host ran between two
    probes: a window's time divided by this reads at reference speed."""
    return (before + after) / 2 / REFERENCE_S
