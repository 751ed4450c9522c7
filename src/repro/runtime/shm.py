"""Deprecated ``/dev/shm`` leak check, kept for older benchmark readers.

Every spec crosses to the process backend's workers by pickle, so nothing
in the package creates a shared-memory segment any more.  What remains
scans ``/dev/shm`` for entries carrying this package's name prefix, the
check that no run left a segment behind.  Delete it once no reader calls
it.
"""

from __future__ import annotations

import os
from typing import List

__all__ = ["SEGMENT_PREFIX", "leaked_dev_shm_segments", "live_segment_names"]

#: Segments were named ``repro-shm-<pid>-<nonce>``; the scans filter on it.
SEGMENT_PREFIX = "repro-shm-"


def leaked_dev_shm_segments() -> List[str]:
    """``/dev/shm`` entries matching our prefix (cross-process leak check)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(SEGMENT_PREFIX))


def live_segment_names() -> List[str]:
    """The :func:`leaked_dev_shm_segments` entries named after this process."""
    own = f"{SEGMENT_PREFIX}{os.getpid()}-"
    return [name for name in leaked_dev_shm_segments() if name.startswith(own)]
