"""DurableStore: the one write/read funnel for every on-disk surface.

Three kinds of owner persist state: the one envelope cache
(:class:`~repro.storage.envelope.EnvelopeCache`, surfaces ``cache`` for
experiment results and ``query-cache`` for served reports), the one run
journal (``RunJournal``, surfaces ``journal`` for experiment runs and
``campaign`` for campaigns), and the benchmark ledger (``ledger``). All
of them route their bytes through a named :class:`DurableStore`, which
is where the :mod:`repro.storage.faults` layer injects
ENOSPC/EIO/torn/rename/crash faults and where the hardening policy
lives:

* ``required=False`` (caches): a failed write degrades to a counted
  non-fatal miss (``write_bytes`` returns ``False``); a failed read is
  always just a miss.
* ``required=True`` (journals): a failed write raises the underlying
  :class:`OSError` for the owner to convert into its typed refusal
  (``JournalError``) or a structured ``ExperimentFailure``.

:func:`atomic_write_bytes` is the raw primitive (absorbed here from
``resilience.py``): temp file in the destination directory +
``os.replace``, the temp unlinked on **every** failure path, with
fsync-before-replace (plus a best-effort directory fsync) behind the
opt-in durability flag (``REPRO_FSYNC=1`` flips the default).
"""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from .faults import FsFaultPlan, InjectedFsError, SimulatedCrash, fault_for

__all__ = [
    "FSYNC_ENV",
    "FS_FAULTS_METRIC",
    "FS_WRITE_ERRORS_METRIC",
    "DurableStore",
    "atomic_write_bytes",
    "fsync_default",
]

#: Operations on which a fault (any mode, any surface) actually fired.
FS_FAULTS_METRIC = "fs_faults_injected_total"

#: Writes that raised — injected or real — whatever the surface policy.
FS_WRITE_ERRORS_METRIC = "fs_write_errors_total"

#: Set to ``1`` to make every store fsync before publishing (off by
#: default: the tests and CI value wall-clock over power-loss safety).
FSYNC_ENV = "REPRO_FSYNC"


def fsync_default() -> bool:
    return os.environ.get(FSYNC_ENV, "") not in ("", "0")


def _fsync_dir(directory: Path) -> None:
    # Best effort: persists the rename itself. Not every filesystem
    # supports directory fsync, so failures here are swallowed.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes, *, fsync: bool = False,
                       _inject: Optional[str] = None) -> None:
    """Write ``data`` to ``path`` via a collision-free temp file.

    ``tempfile.mkstemp`` in the destination directory gives every writer
    its own temp name (a shared ``<path>.tmp`` lets two concurrent
    ``run_all`` invocations clobber each other mid-write), and
    ``os.replace`` publishes atomically. Any failure — including one
    raised by ``fdopen`` itself — unlinks the temp file and closes its
    descriptor; ``fsync=True`` flushes file contents before the rename
    and the directory after it, so a power cut cannot publish a name
    pointing at unwritten blocks.

    ``_inject`` is the :class:`DurableStore` fault hook: ``"rename"``
    fails after the temp file is fully written (cleanup still runs),
    ``"crash"`` simulates dying between write and replace — the one
    path that deliberately leaves the orphan ``.tmp`` behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        try:
            fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            raise
        with fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        if _inject == "crash":
            raise SimulatedCrash(path)
        if _inject == "rename":
            raise InjectedFsError("rename", errno.EIO, path)
        os.replace(tmp_name, path)
    except SimulatedCrash:
        raise  # the orphaned temp file is the simulated wreckage
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_dir(path.parent)


class DurableStore:
    """Named, fault-injectable byte store for one durable surface.

    Disarmed (no chaos spec, no plan) it is a thin veneer over
    :func:`atomic_write_bytes` — the benchmark gates its overhead at
    <5%. Armed, each operation consults
    :func:`repro.storage.faults.fault_for` under this store's surface
    name, so specs like ``fs:journal:write:enospc:3`` target exactly
    one funnel.
    """

    def __init__(self, surface: str, *, required: bool = True,
                 fsync: Optional[bool] = None,
                 plan: Optional[FsFaultPlan] = None,
                 registry: object = None) -> None:
        self.surface = surface
        self.required = bool(required)
        # Resolved once: the env default is a process-level choice, and
        # re-reading it per write would tax the disarmed hot path.
        self.fsync = fsync if fsync is not None else fsync_default()
        self.plan = plan
        self._registry = registry
        #: Instance-local forensics, mirrored onto the metrics registry.
        self.faults_injected = 0
        self.write_errors = 0
        self.read_errors = 0
        self.orphans_swept = 0

    def count(self, name: str) -> None:
        """Increment counter ``name`` on this store's registry, or on the
        ambient one when the store was built without one."""
        registry = self._registry
        if registry is None:
            from ..obs.context import current_metrics

            registry = current_metrics()
        if registry is not None:
            registry.counter(name).inc()

    def _armed(self, op: str) -> Optional[str]:
        mode = fault_for(self.surface, op, plan=self.plan)
        if mode is not None:
            self.faults_injected += 1
            self.count(FS_FAULTS_METRIC)
        return mode

    def write_bytes(self, path: Union[str, Path], data: bytes) -> bool:
        """Publish ``data`` atomically; ``True`` iff the bytes landed.

        On failure: counted, then re-raised when :attr:`required`,
        degraded to ``False`` otherwise. A ``torn`` fault is the
        insidious case — the call *succeeds* having published a prefix;
        the envelope checksum is what turns that into a read-time miss.
        """
        if not isinstance(path, Path):
            path = Path(path)
        fsync = self.fsync
        mode = self._armed("write")
        try:
            if mode == "enospc":
                raise InjectedFsError("enospc", errno.ENOSPC, path)
            if mode == "eio":
                raise InjectedFsError("eio", errno.EIO, path)
            if mode == "torn":
                atomic_write_bytes(path, data[:max(1, len(data) // 2)],
                                   fsync=fsync)
                return True
            atomic_write_bytes(path, data, fsync=fsync, _inject=mode)
            return True
        except OSError:
            self.write_errors += 1
            self.count(FS_WRITE_ERRORS_METRIC)
            if self.required:
                raise
            return False

    def read_bytes(self, path: Union[str, Path]) -> Optional[bytes]:
        """The stored bytes, or ``None`` as a miss.

        Read failures — injected EIO, a vanished file, a real I/O error
        — always degrade to a miss regardless of :attr:`required`: every
        surface can recompute or refuse at a higher level, and a miss is
        strictly safer than propagating bytes of unknown integrity.
        """
        mode = self._armed("read")
        if mode is not None:
            self.read_errors += 1
            return None
        try:
            return Path(path).read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.read_errors += 1
            return None

    def sweep_orphans(self, *directories: Union[str, Path]) -> int:
        """Unlink crash-orphaned ``*.tmp`` files; returns the count.

        Journals call this on resume: a temp file can only be wreckage
        from a write that never reached ``os.replace``.
        """
        removed = 0
        for directory in directories:
            directory = Path(directory)
            if not directory.is_dir():
                continue
            for tmp in sorted(directory.glob("*.tmp")):
                try:
                    tmp.unlink()
                except OSError:
                    continue
                removed += 1
        self.orphans_swept += removed
        return removed
