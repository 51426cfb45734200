"""Shared-memory publication of read-only campaign arrays.

The fast-forward checkpoint pool (:class:`repro.fi.snapshot.TrackPool`)
flattens golden checkpoint tracks into arrays that are identical for
every run of a test case, so the campaign packs them **once, before
the process pool forks**, into
``multiprocessing.shared_memory`` segments; workers attach to the
segments by name instead of materializing their own copy (and, on
platforms without working shared memory, fall back transparently to
the plain in-process arrays inherited through fork copy-on-write).

:class:`ShmArrayPack` is a tiny write-once key/array store:

* ``publish(key, array)`` in the parent copies the array into a shared
  segment (or keeps it in-process when shared memory is unavailable);
* ``get(key)`` anywhere returns a read-only numpy view of the data;
* ``close()`` detaches, and additionally unlinks the segments in the
  creating process only — workers never destroy the parent's data.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, Optional, Tuple

import numpy as _np

try:
    from multiprocessing import shared_memory as _shm
except Exception:  # pragma: no cover - stdlib module missing
    _shm = None

__all__ = ["ShmArrayPack", "release_all", "shm_available"]

#: every live pack, for :func:`release_all` (weak: the registry must
#: not keep packs alive past their last strong reference).
_LIVE_PACKS: "weakref.WeakSet[ShmArrayPack]" = weakref.WeakSet()


def release_all() -> None:
    """Close every live pack this process owns or is attached to.

    Interpreter-exit finalizers do not run in ``multiprocessing``
    children (their bootstrap leaves via ``os._exit``), so a process
    that runs campaigns as a forked child — the campaign service's
    job children — must call this before exiting, or its shared
    segments outlive it as ``/dev/shm`` orphans.
    """
    for pack in list(_LIVE_PACKS):
        pack.close()


def _release_segments(handles: Dict[str, object], owner_pid: int) -> None:
    """Detach (and, in the owning process, unlink) *handles*.

    Module-level so a :func:`weakref.finalize` can hold it without
    keeping the pack itself alive: segments are released when the pack
    is garbage-collected, when :meth:`ShmArrayPack.close` runs, or —
    crucially for campaigns that die mid-run — at interpreter exit,
    whichever comes first.  Never leaves orphans in ``/dev/shm``.
    """
    owner = os.getpid() == owner_pid
    for handle in list(handles.values()):
        try:
            handle.close()
        except Exception:
            pass
        if owner:
            try:
                handle.unlink()
            except Exception:
                pass
    handles.clear()


def shm_available() -> bool:
    """Whether shared-memory publication can be attempted at all."""
    return _shm is not None


class ShmArrayPack:
    """Write-once store of named, read-only numpy arrays.

    Arrays published in the parent process live in shared-memory
    segments; a forked worker inherits the segment *names* and lazily
    re-attaches on first :meth:`get`.  Any failure to create or attach
    a segment degrades to keeping the plain array in-process — the
    consumer sees identical data either way.
    """

    def __init__(self) -> None:
        #: key -> (segment name, shape, dtype str) for shared arrays.
        self._segments: Dict[str, Tuple[str, tuple, str]] = {}
        #: key -> plain array (fallback, or the parent's own reference).
        self._local: Dict[str, "_np.ndarray"] = {}
        #: attached SharedMemory handles (kept alive for the views).
        self._handles: Dict[str, object] = {}
        self._owner_pid = os.getpid()
        self._closed = False
        # a finalizer, not atexit.register(self.close): no strong
        # reference pinning the pack for the process lifetime, and the
        # segments are released on garbage collection AND interpreter
        # exit (finalize hooks run atexit for still-alive objects)
        self._finalizer = weakref.finalize(
            self, _release_segments, self._handles, self._owner_pid
        )
        _LIVE_PACKS.add(self)

    @property
    def is_owner(self) -> bool:
        return os.getpid() == self._owner_pid

    def publish(self, key: str, array) -> None:
        """Publish one array under *key* (parent process only)."""
        if key in self._local or key in self._segments:
            raise KeyError(f"array {key!r} already published")
        array = _np.ascontiguousarray(array)
        self._local[key] = array
        if _shm is None or array.nbytes == 0:
            return
        try:
            segment = _shm.SharedMemory(create=True, size=array.nbytes)
            view = _np.ndarray(
                array.shape, dtype=array.dtype, buffer=segment.buf
            )
            view[...] = array
            self._handles[key] = segment
            self._segments[key] = (
                segment.name, array.shape, array.dtype.str
            )
            # the shared segment becomes the authoritative storage:
            # the parent reads through it too, and forked workers
            # inherit the mapping (one physical copy for everyone)
            self._local[key] = view
        except Exception:
            # no usable /dev/shm (or segment creation raced a limit):
            # the plain array stays authoritative
            self._segments.pop(key, None)
            self._handles.pop(key, None)

    def get(self, key: str) -> Optional["_np.ndarray"]:
        """A read-only view of the array published under *key*.

        In the parent this is the published array itself; in a forked
        worker the shared segment is attached on first use.  Returns
        ``None`` for unknown keys.
        """
        cached = self._local.get(key)
        if cached is not None:
            view = cached.view()
            view.flags.writeable = False
            return view
        meta = self._segments.get(key)
        if meta is None:
            return None
        name, shape, dtype = meta
        try:
            segment = _shm.SharedMemory(name=name)
            view = _np.ndarray(shape, dtype=_np.dtype(dtype),
                               buffer=segment.buf)
            view.flags.writeable = False
            self._handles[key] = segment
            self._local[key] = view
            return view
        except Exception:
            return None

    def __contains__(self, key: str) -> bool:
        return key in self._local or key in self._segments

    def keys(self):
        return list(dict.fromkeys(list(self._local) + list(self._segments)))

    def close(self) -> None:
        """Detach all segments; unlink them in the owning process."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()
        self._local.clear()
        self._segments.clear()
