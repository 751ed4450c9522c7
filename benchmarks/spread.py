"""Repeated timings with their spread, host speed and environment.

A best-of-N figure hides how far a row moves between runs; these helpers
keep the whole distribution instead.  :func:`timed` runs a function N times
and returns the :func:`spread` of its wall times -- median, quartiles and
minimum -- and :func:`environment` is the stamp (cores, numpy, python) a
row records beside it, so two recorded figures can be told apart from
noise and from a different host.  Bit-identity checks belong before the
first timed repeat, in the caller.

A shared host also runs at speeds that differ by 1.5x over minutes, so a
row re-recorded later can differ from the committed one by the host alone.
Beside every repeat :func:`timed` (and :class:`Samples`) therefore runs a
fixed pure-Python reference loop, :func:`probe`, before and after the timed
call.  The row keeps the probes' own spread under ``"probe"`` and a
``"scaled_median"``: the median of each repeat scaled by
:data:`REFERENCE_S` over the mean of its two probes -- the time at
reference host speed, which a slow stretch leaves in place because it
slows the probes alike.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Iterations of the reference loop, and its duration on an unloaded core
#: of the 2-core host the rows were first recorded on.
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.005


def environment() -> Dict[str, object]:
    """The host stamp of a recorded row: core count, numpy and python versions."""
    return {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def reference_loop() -> int:
    """Fixed pure-Python work that runs no repository code."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i % 1000] = i
        total += i
    return total


def probe() -> float:
    """Seconds the reference loop takes right now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def spread(
    samples: Sequence[float], probes: Optional[Sequence[float]] = None
) -> Dict[str, float]:
    """Median, quartiles (inclusive method) and minimum of at least two samples.

    With ``probes`` -- one reference-loop time per sample, taken beside it
    -- the result also holds the probes' own spread under ``"probe"`` and
    the ``"scaled_median"`` of the samples at reference host speed.
    """
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    result = {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "samples": len(samples),
    }
    if probes is not None:
        result["probe"] = spread(probes)
        result["scaled_median"] = statistics.median(
            sample * REFERENCE_S / speed for sample, speed in zip(samples, probes)
        )
    return result


class Samples:
    """Wall times of repeated calls, each between two reference-loop probes."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.probes: List[float] = []

    def time(self, function: Callable[[], object], per: int = 1):
        """Time ``function()`` (over ``per`` units); return its result."""
        before = probe()
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed / per)
        self.probes.append((before + probe()) / 2.0)
        return result

    def spread(self) -> Dict[str, float]:
        """The :func:`spread` of the samples, with their probes."""
        return spread(self.samples, self.probes)


def timed(function: Callable[[], object], repeats: int, per: int = 1) -> Dict[str, float]:
    """The :func:`spread` of ``repeats`` wall times of ``function()``, each over ``per``."""
    samples = Samples()
    for _ in range(repeats):
        samples.time(function, per)
    return samples.spread()


def timed_pair(
    first: Callable[[], object],
    second: Callable[[], object],
    repeats: int,
    per: int = 1,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The :func:`spread` of each of two functions, timed in alternation.

    Repeat ``i`` times ``first`` then ``second`` (each over ``per`` units),
    so a slow stretch of the host falls on both sides of a row alike
    rather than on whichever side ran through it.
    """
    samples = (Samples(), Samples())
    for _ in range(repeats):
        for side, function in zip(samples, (first, second)):
            side.time(function, per)
    return samples[0].spread(), samples[1].spread()
