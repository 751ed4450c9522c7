"""Shared-memory transport for the process backend (the zero-copy data plane).

The process backend's standing tax is serialization: every chunk used to
ship the ``InstanceSpec`` dense factor arrays through pickle.  This module
moves those read-only arrays into :mod:`multiprocessing.shared_memory`
segments instead; results, a chain block's code matrix included, travel
back by pickle:

* the owner packs its ndarrays into **one** segment per call
  (:class:`SharedArrayPack`) and ships only tiny ``(name, dtype, shape,
  offset)`` descriptors in a worker's ``SPEC`` frame;
* workers reconstruct zero-copy views from the descriptors
  (:func:`attach_array`), caching the segment mapping per process so N tasks
  against the same spec map it once;
* lifetime is leak-proof by construction: **only the owner ever creates or
  unlinks a segment**.  ``weakref.finalize`` guarantees the unlink even if
  the owner forgets :meth:`SharedArrayPack.release` (e.g. an exception before
  ``Runtime.shutdown()``), and a killed worker leaks nothing because workers
  only hold attachments, which the kernel drops with the process.  A
  long-lived worker closes an attachment once its spec leaves the cache
  (:func:`detach`); a worker's exit drops the rest.

Pickle remains the automatic fallback: :func:`shm_available` probes the
platform once (``/dev/shm`` may be absent or full inside minimal containers),
and every call site treats ``pack_arrays() is None`` as "use pickle"; that
fallback emits a ``runtime.shm.fallback`` obs instant.

Wire form of a descriptor (the only thing that crosses the pipe)::

    (segment_name: str, dtype: str, shape: tuple[int, ...], offset: int)

Attachments on Python < 3.13 must side-step the resource tracker: attaching
registers the segment as if this process owned it, so the first worker to
exit would unlink a segment it never created.  A process with a tracker of
its own therefore unregisters the attachment at once
(:func:`_unregister_attachment`).  A worker forked from the owner shares the
owner's tracker, where the registration is the owner's own entry; it leaves
that entry alone (:func:`_shares_owner_tracker`), so the tracker still
unlinks the segment if the owner is killed.
"""

from __future__ import annotations

import gc
import os
import secrets
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "SEGMENT_PREFIX",
    "ArrayDescriptor",
    "SharedArrayPack",
    "attach_array",
    "detach",
    "live_segment_names",
    "pack_arrays",
    "release_all",
    "shm_available",
]

#: Every segment this module creates is named ``repro-shm-<pid>-<nonce>`` so
#: leak checks (tests, ci_tier1.sh) can list ``/dev/shm`` and filter.
SEGMENT_PREFIX = "repro-shm-"

#: ``(segment_name, dtype, shape, offset)`` -- the pickled wire form.
ArrayDescriptor = Tuple[str, str, Tuple[int, ...], int]

#: Byte alignment for each array inside a segment (cache-line sized).
_ALIGN = 64

# Owner-side registry of live packs, keyed by segment name.  release_all()
# (called from Runtime.shutdown()) and the leak tests read it.
_LIVE_PACKS: "weakref.WeakValueDictionary[str, SharedArrayPack]" = (
    weakref.WeakValueDictionary()
)

# Worker-side attachment cache: segment name -> SharedMemory mapping.  One
# mapping per process regardless of how many tasks reference the segment.
_ATTACHED: Dict[str, object] = {}

_availability: Optional[bool] = None


def shm_available() -> bool:
    """True when shared-memory segments can actually be created here.

    Probes once by creating and unlinking a tiny segment; minimal containers
    can lack ``/dev/shm`` (or mount it read-only), in which case every
    transport call site silently falls back to pickle.
    """
    global _availability
    if _availability is None:
        if _shared_memory is None:
            _availability = False
        else:
            try:
                probe = _shared_memory.SharedMemory(
                    create=True, size=16, name=_segment_name()
                )
            except (OSError, ValueError):
                _availability = False
            else:
                probe.close()
                probe.unlink()
                _availability = True
    return _availability


def _segment_name() -> str:
    # secrets, not numpy: transport must never touch the sampling RNG streams.
    return f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _shares_owner_tracker(name: str) -> bool:
    """Whether this process talks to the resource tracker of ``name``'s owner.

    True in a worker forked from the owner after the owner's tracker
    started: the child inherits the tracker connection, so attaching
    re-registers the owner's own entry (the tracker keeps a set of names),
    and unregistering would delete it.  The owner's pid is part of every
    segment name.
    """
    owner = name[len(SEGMENT_PREFIX):].split("-", 1)[0]
    if owner != str(os.getppid()):
        return False
    try:  # pragma: no cover - defensive: tracker internals are CPython's
        from multiprocessing import resource_tracker

        return resource_tracker._resource_tracker._fd is not None  # type: ignore[attr-defined]
    except Exception:
        return False


def _unregister_attachment(segment: object) -> None:
    """Stop the resource tracker from treating an attachment as ownership.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment with
    the resource tracker exactly like ``create=True`` does, so an attaching
    worker's exit would unlink (or double-unlink) the owner's segment.
    """
    try:  # pragma: no cover - defensive: tracker internals are CPython's
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


class SharedArrayPack:
    """Owner-side pack of ndarrays living in one shared-memory segment.

    Create with :func:`pack_arrays` (which handles the pickle fallback).
    ``descriptors[i]`` reconstructs ``arrays[i]`` in any process via
    :func:`attach_array`.  The segment is unlinked exactly once, by the
    owner: explicitly via :meth:`release`, or by the ``weakref.finalize``
    fallback when the pack is garbage-collected.
    """

    __slots__ = ("name", "descriptors", "nbytes", "_segment", "_finalizer", "__weakref__")

    def __init__(self, arrays: Sequence[np.ndarray], label: str = "") -> None:
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        contiguous = [np.ascontiguousarray(array) for array in arrays]
        offsets: List[int] = []
        total = 0
        for array in contiguous:
            total = _align(total)
            offsets.append(total)
            total += array.nbytes
        self.name = _segment_name()
        self._segment = _shared_memory.SharedMemory(
            create=True, size=max(total, 1), name=self.name
        )
        self.nbytes = max(total, 1)
        descriptors: List[ArrayDescriptor] = []
        for array, offset in zip(contiguous, offsets):
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=self._segment.buf, offset=offset
            )
            view[...] = array
            descriptors.append(
                (self.name, array.dtype.str, tuple(array.shape), offset)
            )
        self.descriptors: Tuple[ArrayDescriptor, ...] = tuple(descriptors)
        # Leak-proofing: unlink even if release() is never called.
        self._finalizer = weakref.finalize(
            self, _release_segment, self._segment
        )
        _LIVE_PACKS[self.name] = self
        handle = obs.active()
        if handle is not None:
            handle.metrics.counter("runtime.shm.segments").inc()
            handle.metrics.counter("runtime.shm.bytes").inc(self.nbytes)
            obs.instant("runtime.shm.segment", label=label or "pack", bytes=self.nbytes)

    def release(self) -> None:
        """Close the mapping and unlink the segment (idempotent)."""
        self._finalizer()
        _LIVE_PACKS.pop(self.name, None)

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _release_segment(segment: object) -> None:
    try:
        segment.close()  # type: ignore[attr-defined]
    except (OSError, ValueError):  # pragma: no cover - already closed
        pass
    try:
        segment.unlink()  # type: ignore[attr-defined]
    except (OSError, ValueError):  # pragma: no cover - already unlinked
        pass


def pack_arrays(
    arrays: Sequence[np.ndarray], label: str = ""
) -> Optional[SharedArrayPack]:
    """Pack ``arrays`` into one shared segment, or None => use pickle.

    Returns None when shared memory is unavailable on this platform or the
    segment cannot be created (e.g. ``/dev/shm`` is full) -- callers fall
    back to shipping the arrays by value.
    """
    if shm_available():
        try:
            return SharedArrayPack(arrays, label=label)
        except (OSError, ValueError):
            pass
    obs.instant("runtime.shm.fallback", label=label or "pack")
    return None


def attach_array(descriptor: ArrayDescriptor) -> np.ndarray:
    """Read-only zero-copy view of a packed array, usually in a worker process.

    The segment mapping is cached per process: N tasks against the same spec
    map it once.
    """
    name, dtype, shape, offset = descriptor
    segment = _ATTACHED.get(name)
    if segment is None:
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        pack = _LIVE_PACKS.get(name)
        if pack is not None:
            # Owner process: reuse the existing mapping, never re-attach.
            segment = pack._segment
        else:
            # Asked first: attaching starts a tracker when none is running.
            shared = _shares_owner_tracker(name)
            segment = _shared_memory.SharedMemory(name=name)
            if not shared:
                _unregister_attachment(segment)
            _ATTACHED[name] = segment
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
    view.flags.writeable = False
    return view


def detach(names: Sequence[str]) -> None:
    """Close this process's attachments to the named segments.

    Owner-side packs are never touched.  Every view into a segment must be
    gone by now; views still held by unreachable reference cycles are
    collected first.
    """
    for name in names:
        segment = _ATTACHED.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()  # type: ignore[attr-defined]
        except BufferError:
            gc.collect()
            segment.close()  # type: ignore[attr-defined]


def release_all() -> None:
    """Unlink every live owner-side pack (Runtime.shutdown() safety net)."""
    for name in list(_LIVE_PACKS):
        pack = _LIVE_PACKS.get(name)
        if pack is not None:
            pack.release()


def live_segment_names() -> List[str]:
    """Names of segments this process currently owns (leak tests)."""
    return sorted(
        name
        for name, pack in list(_LIVE_PACKS.items())
        if pack is not None and pack._finalizer.alive
    )


def leaked_dev_shm_segments() -> List[str]:
    """``/dev/shm`` entries matching our prefix (cross-process leak check)."""
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(SEGMENT_PREFIX))
