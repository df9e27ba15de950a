"""Durable storage: one fault-injectable funnel for every on-disk surface.

The storage boundary is one of the two cross-layer seams the robustness
pass hardens (the other is the network edge in :mod:`repro.serve`).
:class:`DurableStore` is the write/read funnel every persistent surface
routes through; :mod:`repro.storage.faults` injects deterministic
ENOSPC/EIO/torn/rename/crash faults into it, either via ``REPRO_CHAOS``
``fs:`` entries or a seeded :class:`FsFaultPlan`. On top of it sit the
checksummed envelope and the one :class:`EnvelopeCache`
(:mod:`repro.storage.envelope`), the run-directory manifest
(:mod:`repro.storage.journal`), and :func:`fsck_run_dir`, which
verifies a journaled run directory offline (``repro fsck``). Nothing
here imports the experiment layer.
"""

from .envelope import (
    ENVELOPE_MAGIC,
    CacheIntegrityError,
    EnvelopeCache,
    decode_envelope,
    encode_envelope,
)
from .faults import (
    CHAOS_ENV,
    FS_MODES,
    FS_READ_MODES,
    FsChaosError,
    FsFaultEntry,
    FsFaultPlan,
    InjectedFsError,
    SimulatedCrash,
    chaos_spec_text,
    current_fs_plan,
    fault_for,
    fs_chaos,
    parse_fs_entries,
    reset_fs_fault_counters,
    use_fs_plan,
)
from .fsck import FsckIssue, FsckReport, format_fsck, fsck_run_dir
from .journal import MANIFEST_NAME, JournalError, read_manifest
from .store import (
    FS_FAULTS_METRIC,
    FS_WRITE_ERRORS_METRIC,
    DurableStore,
    atomic_write_bytes,
    fsync_default,
)

__all__ = [
    "CHAOS_ENV",
    "CacheIntegrityError",
    "DurableStore",
    "ENVELOPE_MAGIC",
    "EnvelopeCache",
    "FS_FAULTS_METRIC",
    "FS_MODES",
    "FS_READ_MODES",
    "FS_WRITE_ERRORS_METRIC",
    "FsChaosError",
    "FsFaultEntry",
    "FsFaultPlan",
    "FsckIssue",
    "FsckReport",
    "InjectedFsError",
    "JournalError",
    "MANIFEST_NAME",
    "SimulatedCrash",
    "atomic_write_bytes",
    "chaos_spec_text",
    "current_fs_plan",
    "decode_envelope",
    "encode_envelope",
    "fault_for",
    "format_fsck",
    "fs_chaos",
    "fsck_run_dir",
    "fsync_default",
    "parse_fs_entries",
    "read_manifest",
    "reset_fs_fault_counters",
    "use_fs_plan",
]
