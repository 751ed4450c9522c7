"""Repeated timings with their spread and the environment they ran in.

A best-of-N figure hides how far a row moves between runs; these helpers
keep the whole distribution instead.  :func:`timed` runs a function N times
and returns the :func:`spread` of its wall times -- median, quartiles and
minimum -- and :func:`environment` is the stamp (cores, numpy, python) a
row records beside it, so two recorded figures can be told apart from
noise and from a different host.  Bit-identity checks belong before the
first timed repeat, in the caller.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Callable, Dict, Sequence

import numpy as np


def environment() -> Dict[str, object]:
    """The host stamp of a recorded row: core count, numpy and python versions."""
    return {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def spread(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (inclusive method) and minimum of at least two samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "samples": len(samples),
    }


def timed(function: Callable[[], object], repeats: int, per: int = 1) -> Dict[str, float]:
    """The :func:`spread` of ``repeats`` wall times of ``function()``, each over ``per``."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append((time.perf_counter() - start) / per)
    return spread(samples)
