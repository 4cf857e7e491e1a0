"""Zero-copy shared-memory tensor store for the multiprocess fleet.

The paper's GPU speedups come from loading the symmetric tensor onto the
device once and streaming only iterate vectors; a process pool that
pickles `SymmetricTensorBatch` payloads per shard does the opposite.
This module is the host-side analog of "tensor stays resident":

* :class:`SharedTensorStore` publishes a batch's packed ``(T, U)`` value
  buffer — plus the shared starting vectors and the precomputed kernel
  table arrays — into POSIX shared memory *once*.  Workers attach
  read-only views by segment name, so no tensor payload ever crosses a
  pipe; a shard is described to a worker by an index range.
* :class:`SharedResultBlock` preallocates the ``(T, V)`` fleet output
  arrays in shared memory.  Workers hand shard slices of it to
  ``fleet_solve(out=...)`` (:class:`repro.engine.fleet.FleetWorkspace`),
  so results are *written in place* — the completion message per shard is
  a few floats of metadata, O(result descriptor) not O(tensor).

Lifecycle discipline (what the chaos suite asserts): the owner — always
the parent process — creates segments and is solely responsible for
unlinking them; :meth:`~SharedArrayBundle.dispose` runs in a ``finally``
so normal exit, ``KeyboardInterrupt``, and crashed workers all leave
``/dev/shm`` clean.  Unlink-before-close is deliberate: POSIX keeps an
unlinked mapping valid until the last unmap, so live numpy views never
block removal of the name.  Attaching processes must *not* unlink; on
CPython < 3.13 ``SharedMemory`` registers attached segments with the
resource tracker as if it owned them, which would make a worker's tracker
destroy the parent's live segment at worker exit — :func:`_no_tracking`
suppresses that registration around each attach.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.instrument.metrics import (
    observe_shm_attach,
    observe_shm_publish,
    observe_shm_unlink,
)
from repro.symtensor.storage import SymmetricTensorBatch

try:  # pragma: no cover - import guard exercised only on exotic builds
    from multiprocessing import shared_memory as _shm

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover
    _shm = None
    SHM_AVAILABLE = False

__all__ = [
    "SHM_AVAILABLE",
    "SEGMENT_PREFIX",
    "ArraySpec",
    "BlockHandle",
    "SharedArrayBundle",
    "SharedResultBlock",
    "SharedTensorStore",
    "StoreHandle",
    "active_segments",
]

#: Every segment this module creates is named ``repro-fleet-<pid>-<nonce>-<tag>``
#: so leak checks (tests, chaos suite) can enumerate ours and only ours.
SEGMENT_PREFIX = "repro-fleet"

#: Kernel-table arrays travel in the store under this tag prefix.
_TABLE_TAG = "tbl:"


def _require_shm() -> None:
    if not SHM_AVAILABLE:  # pragma: no cover
        raise RuntimeError(
            "multiprocessing.shared_memory is unavailable on this build; "
            "use the thread executor")


def _segment_name(tag: str) -> str:
    # shm_open names share one flat namespace; pid + nonce keeps concurrent
    # fleets (and re-runs after a crash) from colliding.  The resource
    # tracker's pipe protocol is colon-delimited ("CMD:name:rtype"), so a
    # colon in the name (e.g. the "tbl:" tag prefix) corrupts its parse.
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}-{tag.replace(':', '.')}"


@contextmanager
def _no_tracking():
    """Keep the resource tracker out of an *attach*.

    On CPython < 3.13 ``SharedMemory(name=..., create=False)`` registers
    the segment exactly as if it had created it; left alone, a
    spawn-started worker's tracker unlinks the parent's live segment when
    the worker exits, and fork-started workers (which share one tracker
    whose cache is a *set*, not a counter) race their
    register/unregister pairs into KeyError noise.  Rather than
    unregistering after the fact — still one racy message pair per
    attach — suppress the registration itself for the duration.  (3.13
    grew ``track=False`` for exactly this.)
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover
        yield
        return
    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        yield
    finally:
        resource_tracker.register = orig


def active_segments() -> list[str]:
    """Names of live ``repro-fleet-*`` segments on this host (Linux
    ``/dev/shm`` scan; empty elsewhere).  Test/chaos helper for asserting
    the no-leak guarantee."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        )
    except OSError:  # pragma: no cover - non-Linux or mount missing
        return []


@dataclass(frozen=True)
class ArraySpec:
    """How to re-map one published array: segment name + layout."""

    name: str
    shape: tuple
    dtype: str


class SharedArrayBundle:
    """A tag-keyed set of ndarrays, each backed by one shm segment.

    Base machinery shared by :class:`SharedTensorStore` (read-only in
    workers) and :class:`SharedResultBlock` (writable in workers): publish
    from plain arrays, attach from :class:`ArraySpec` maps, dispose.
    """

    _role = "bundle"

    def __init__(self, segments: dict, arrays: dict, specs: dict, owner: bool):
        self._segments = segments
        self._specs = specs
        self.arrays = arrays
        self.owner = owner
        self._disposed = False

    @classmethod
    def _publish_arrays(cls, arrays: dict) -> tuple[dict, dict, dict]:
        _require_shm()
        segments: dict = {}
        views: dict = {}
        specs: dict = {}
        try:
            for tag, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                seg = _shm.SharedMemory(
                    name=_segment_name(tag), create=True,
                    size=max(1, arr.nbytes))
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[...] = arr
                segments[tag] = seg
                views[tag] = view
                specs[tag] = ArraySpec(
                    name=seg.name, shape=tuple(arr.shape), dtype=str(arr.dtype))
                observe_shm_publish(cls._role, arr.nbytes)
        except BaseException:
            for seg in segments.values():
                try:
                    seg.unlink()
                except OSError:
                    pass
                seg.close()
            raise
        return segments, views, specs

    @classmethod
    def _attach_arrays(cls, specs: dict, *, readonly: bool) -> tuple[dict, dict]:
        _require_shm()
        segments: dict = {}
        views: dict = {}
        try:
            for tag, spec in specs.items():
                with _no_tracking():
                    seg = _shm.SharedMemory(name=spec.name, create=False)
                view = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
                if readonly:
                    view.flags.writeable = False
                segments[tag] = seg
                views[tag] = view
                observe_shm_attach(cls._role, view.nbytes)
        except BaseException:
            for seg in segments.values():
                seg.close()
            raise
        return segments, views

    def dispose(self) -> None:
        """Unlink (owner only) and unmap every segment.  Never raises,
        idempotent, and safe while views are still alive: the name is
        removed immediately, the memory survives until the last unmap
        (worst case, process exit)."""
        if self._disposed:
            return
        self._disposed = True
        for seg in self._segments.values():
            if self.owner:
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
                except OSError:  # pragma: no cover - platform quirk
                    pass
                else:
                    observe_shm_unlink(self._role)
            try:
                seg.close()
            except BufferError:
                # numpy views still reference the mapping; the kernel
                # reclaims it when they go (or at process exit) — the
                # /dev/shm name is already gone, so nothing leaks
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.dispose()
        return False


@dataclass(frozen=True)
class StoreHandle:
    """Picklable recipe for attaching a :class:`SharedTensorStore` —
    segment names and layouts only, a few hundred bytes.  This is the
    entire tensor-side payload a worker process ever receives."""

    m: int
    n: int
    specs: dict

    def attach(self) -> "SharedTensorStore":
        segments, views = SharedTensorStore._attach_arrays(
            self.specs, readonly=True)
        return SharedTensorStore(
            segments, views, self.specs, owner=False, m=self.m, n=self.n)


class SharedTensorStore(SharedArrayBundle):
    """The published (read-only) side of a fleet workload: packed tensor
    values, shared starting vectors, and kernel table arrays."""

    _role = "tensors"

    def __init__(self, segments, arrays, specs, owner, *, m: int, n: int):
        super().__init__(segments, arrays, specs, owner)
        self.m = m
        self.n = n

    @classmethod
    def publish(cls, tensors: SymmetricTensorBatch, starts: np.ndarray,
                tables=None) -> "SharedTensorStore":
        """Publish ``tensors.values`` ``(T, U)``, ``starts`` ``(V, n)``
        and (optionally) a :class:`~repro.kernels.tables.KernelTables`'
        arrays into fresh shared-memory segments owned by the caller."""
        arrays = {"values": tensors.values, "starts": starts}
        if tables is not None:
            from repro.kernels.tables import tables_to_arrays

            for key, arr in tables_to_arrays(tables).items():
                arrays[_TABLE_TAG + key] = arr
        segments, views, specs = cls._publish_arrays(arrays)
        return cls(segments, views, specs, owner=True,
                   m=tensors.m, n=tensors.n)

    @property
    def values(self) -> np.ndarray:
        return self.arrays["values"]

    @property
    def starts(self) -> np.ndarray:
        return self.arrays["starts"]

    def batch(self, lo: int = 0, hi: int | None = None) -> SymmetricTensorBatch:
        """A zero-copy shard view ``[lo, hi)`` of the published batch."""
        hi = self.values.shape[0] if hi is None else hi
        return SymmetricTensorBatch(self.values[lo:hi], self.m, self.n)

    def kernel_tables(self):
        """Rebuild :class:`~repro.kernels.tables.KernelTables` from the
        published table arrays (``None`` if none were published).  The
        arrays are *copied* out of the mapping — tables get cached
        process-wide (:func:`~repro.kernels.tables.prime_tables`) and must
        outlive the store."""
        keys = [t for t in self.arrays if t.startswith(_TABLE_TAG)]
        if not keys:
            return None
        from repro.kernels.tables import tables_from_arrays

        arrays = {t[len(_TABLE_TAG):]: np.array(self.arrays[t]) for t in keys}
        return tables_from_arrays(self.m, self.n, arrays)

    def handle(self) -> StoreHandle:
        return StoreHandle(m=self.m, n=self.n, specs=dict(self._specs))


@dataclass(frozen=True)
class BlockHandle:
    """Picklable recipe for attaching a :class:`SharedResultBlock`."""

    specs: dict

    def attach(self) -> "SharedResultBlock":
        segments, views = SharedResultBlock._attach_arrays(
            self.specs, readonly=False)
        return SharedResultBlock(segments, views, self.specs, owner=False)


class SharedResultBlock(SharedArrayBundle):
    """Preallocated ``(T, V)`` fleet outputs in shared memory.

    Workers write each shard's rows in place through
    ``fleet_solve(out=block.workspace(lo, hi))``; the parent copies the
    finished arrays out with :meth:`snapshot` before disposing."""

    _role = "results"

    @classmethod
    def allocate(cls, T: int, V: int, n: int,
                 dtype=np.float64) -> "SharedResultBlock":
        """Owner-side allocation, prefilled like an all-unsolved fleet
        (NaN values / ``failed=False``) so rows of a shard that never ran
        read as unconverged placeholders, not zeros."""
        proto = {
            "eigenvalues": np.full((T, V), np.nan),
            "eigenvectors": np.full((T, V, n), np.nan, dtype=dtype),
            "converged": np.zeros((T, V), dtype=bool),
            "iterations": np.zeros((T, V), dtype=np.int64),
            "failed": np.zeros((T, V), dtype=bool),
            "shifts": np.full((T, V), np.nan),
        }
        segments, views, specs = cls._publish_arrays(proto)
        return cls(segments, views, specs, owner=True)

    def workspace(self, lo: int, hi: int):
        """A :class:`~repro.engine.fleet.FleetWorkspace` of views over
        tensor rows ``[lo, hi)`` — what a worker passes to
        ``fleet_solve(out=...)``."""
        from repro.engine.fleet import FleetWorkspace

        return FleetWorkspace(**self.arrays).rows(lo, hi)

    def snapshot(self) -> dict:
        """Plain-memory copies of every output array (safe to keep after
        :meth:`dispose`)."""
        return {tag: np.array(arr) for tag, arr in self.arrays.items()}

    def handle(self) -> BlockHandle:
        return BlockHandle(specs=dict(self._specs))
