"""Deterministic filesystem fault injection for the storage layer.

The PR-5 chaos harness kills *processes*; this module breaks the
*storage* underneath them. Faults arm through the same ``REPRO_CHAOS``
environment channel (so they reach pool workers untouched) via a new
entry shape the process-chaos parser ignores::

    fs:<surface>:<op>:<mode>[:<nth>]

``surface`` names a :class:`~repro.storage.store.DurableStore` funnel
(``cache``, ``journal``, ``campaign``, ``query-cache``, ``ledger``) or
``*``; ``op`` is ``write``, ``read`` or ``*``; ``mode`` is one of
:data:`FS_MODES`; ``nth`` arms only the nth matching operation (1-based,
counted per ``(surface, op)``) so a test can fail exactly the third
journal write. ``REPRO_CHAOS=@/path/to/file`` reads the spec text from
that file on every consult — a live run's faults can be cleared by
truncating the file, which is how the CI ``e2e`` job lets a tripped breaker
recover.

For statistical campaigns there is also :class:`FsFaultPlan` — the
storage twin of :class:`repro.sim.faults.FaultPlan`: each fault mode
draws from its own pure-hash sub-stream keyed on
``(seed, surface, op, mode, occurrence)``, so enabling one mode never
perturbs which operations another mode hits.
"""

from __future__ import annotations

import errno
import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "CHAOS_ENV",
    "FS_MODES",
    "FS_READ_MODES",
    "FsChaosError",
    "FsFaultEntry",
    "FsFaultPlan",
    "InjectedFsError",
    "SimulatedCrash",
    "chaos_spec_text",
    "current_fs_plan",
    "fault_for",
    "fs_chaos",
    "parse_fs_entries",
    "reset_fs_fault_counters",
    "use_fs_plan",
]

#: Same env var the process-chaos harness uses; fs entries are the
#: 4/5-field shape, which :func:`chaos_action` skips and this parser owns.
CHAOS_ENV = "REPRO_CHAOS"

#: Write fault modes, in the fixed precedence order plans draw them.
FS_MODES = ("enospc", "eio", "torn", "rename", "crash")

#: The only mode meaningful on the read path (everything else corrupts
#: or interrupts a write).
FS_READ_MODES = ("eio",)

_FS_OPS = ("write", "read", "*")


class FsChaosError(ValueError):
    """A malformed ``fs:`` entry in the :data:`CHAOS_ENV` spec."""


class InjectedFsError(OSError):
    """An injected storage fault, raised with a faithful ``errno``."""

    def __init__(self, mode: str, code: int, path: object) -> None:
        super().__init__(code, f"injected {mode}", str(path))
        self.mode = mode


class SimulatedCrash(InjectedFsError):
    """Crash between temp-file write and rename: the temp file survives.

    The one fault :func:`~repro.storage.store.atomic_write_bytes` must
    *not* clean up after — the orphaned ``.tmp`` is the whole point, and
    what resume-time sweeping and ``repro fsck`` exist to handle.
    """

    def __init__(self, path: object) -> None:
        super().__init__("crash", errno.EIO, path)


def chaos_spec_text() -> str:
    """The live chaos spec: the env value, or the file it points at.

    ``REPRO_CHAOS=@/path`` re-reads ``/path`` on every consult; a
    missing or unreadable file means no faults, so truncating/removing
    it disarms a running process without restarting it.
    """
    raw = os.environ.get(CHAOS_ENV, "")
    if raw.startswith("@"):
        try:
            return Path(raw[1:]).read_text().strip()
        except OSError:
            return ""
    return raw


@dataclass(frozen=True)
class FsFaultEntry:
    """One parsed ``fs:surface:op:mode[:nth]`` spec entry."""

    surface: str
    op: str
    mode: str
    #: 1-based occurrence to arm, or ``None`` for every occurrence.
    nth: Optional[int]

    def matches(self, surface: str, op: str, occurrence: int) -> bool:
        if self.surface not in ("*", surface):
            return False
        if self.op not in ("*", op):
            return False
        if op == "read" and self.mode not in FS_READ_MODES:
            return False
        if self.nth is not None and self.nth != occurrence:
            return False
        return True


#: Memoizes the last parsed spec text — the disarmed hot path pays one
#: string compare per operation instead of a re-parse.
_parse_cache: Tuple[str, Tuple[FsFaultEntry, ...]] = ("", ())


def parse_fs_entries(spec: str) -> Tuple[FsFaultEntry, ...]:
    """Extract and validate the ``fs:`` entries of a chaos spec.

    Non-``fs:`` entries (the process-chaos shape) are skipped — the two
    harnesses share one env var, each ignoring the other's entries.
    """
    global _parse_cache
    if spec == _parse_cache[0]:
        return _parse_cache[1]
    entries = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry or not entry.startswith("fs:"):
            continue
        parts = entry.split(":")
        if len(parts) not in (4, 5):
            raise FsChaosError(
                f"bad {CHAOS_ENV} fs entry {entry!r}; expected "
                "fs:surface:op:mode[:nth]")
        _, surface, op, mode = parts[:4]
        if op not in _FS_OPS:
            raise FsChaosError(
                f"unknown fs op {op!r} in {entry!r}; valid: "
                f"{', '.join(_FS_OPS)}")
        if mode not in FS_MODES:
            raise FsChaosError(
                f"unknown fs fault mode {mode!r} in {entry!r}; valid: "
                f"{', '.join(FS_MODES)}")
        nth: Optional[int] = None
        if len(parts) == 5 and parts[4] != "*":
            try:
                nth = int(parts[4])
            except ValueError:
                raise FsChaosError(
                    f"fs entry {entry!r}: nth must be an integer or "
                    "'*'") from None
            if nth < 1:
                raise FsChaosError(
                    f"fs entry {entry!r}: nth is 1-based, got {nth}")
        entries.append(FsFaultEntry(surface, op, mode, nth))
    _parse_cache = (spec, tuple(entries))
    return _parse_cache[1]


# ---------------------------------------------------------------------------
# Occurrence counting (what ``nth`` and plan sub-streams key on)
# ---------------------------------------------------------------------------

_op_counts: Dict[Tuple[str, str], int] = {}


def reset_fs_fault_counters() -> None:
    """Zero the per-``(surface, op)`` occurrence counters.

    Tests and :func:`fs_chaos` call this so ``nth`` targeting counts
    from the start of the scenario under test, not process birth.
    """
    _op_counts.clear()


def _next_occurrence(surface: str, op: str) -> int:
    key = (surface, op)
    _op_counts[key] = _op_counts.get(key, 0) + 1
    return _op_counts[key]


# ---------------------------------------------------------------------------
# Seeded statistical plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class FsFaultPlan:
    """Seeded per-operation fault rates with independent sub-streams.

    Mirrors :class:`repro.sim.faults.FaultPlan`: each mode's decision
    for a given operation is a pure hash of
    ``(seed, surface, op, mode, occurrence)``, so raising one rate
    never changes *which* operations another mode hits — runs stay
    comparable across plan tweaks. Modes are consulted in
    :data:`FS_MODES` order; the first hit wins.
    """

    seed: int
    enospc_rate: float = 0.0
    eio_rate: float = 0.0
    torn_rate: float = 0.0
    rename_rate: float = 0.0
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        for mode in FS_MODES:
            rate = self.rate_for(mode)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{mode}_rate must be within [0, 1], got {rate}")

    def rate_for(self, mode: str) -> float:
        return float(getattr(self, f"{mode}_rate"))

    def _unit(self, surface: str, op: str, mode: str,
              occurrence: int) -> float:
        material = f"{self.seed}:fs:{surface}:{op}:{mode}:{occurrence}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def draw(self, surface: str, op: str, occurrence: int) -> Optional[str]:
        """The fault mode this plan injects for one operation, if any."""
        modes = FS_READ_MODES if op == "read" else FS_MODES
        for mode in modes:
            rate = self.rate_for(mode)
            if rate > 0.0 and self._unit(surface, op, mode,
                                         occurrence) < rate:
                return mode
        return None


_ACTIVE_PLAN: Optional[FsFaultPlan] = None


def current_fs_plan() -> Optional[FsFaultPlan]:
    """The ambient plan installed by :func:`use_fs_plan`, if any."""
    return _ACTIVE_PLAN


@contextmanager
def use_fs_plan(plan: FsFaultPlan) -> Iterator[FsFaultPlan]:
    """Install ``plan`` as the ambient fault source for stores without
    an explicit one; occurrence counters reset on entry and exit so the
    plan's draws are reproducible per scenario."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    reset_fs_fault_counters()
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous
        reset_fs_fault_counters()


@contextmanager
def fs_chaos(spec: str) -> Iterator[None]:
    """Scoped fs fault injection: install ``spec`` in the environment.

    Validates the fs entries eagerly (a typo should fail the test, not
    silently inject nothing), then behaves like
    :func:`repro.experiments.resilience.chaos` — env-keyed, so spawned
    pool workers inherit the faults.
    """
    parse_fs_entries(spec)
    saved = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = spec
    reset_fs_fault_counters()
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = saved
        reset_fs_fault_counters()


def fault_for(surface: str, op: str,
              plan: Optional[FsFaultPlan] = None) -> Optional[str]:
    """The fault mode armed for the next ``(surface, op)`` operation.

    Every call advances the occurrence counter — spec entries are
    consulted first (the env wins over plans, matching the process
    harness), then the explicit or ambient :class:`FsFaultPlan`.
    """
    occurrence = _next_occurrence(surface, op)
    spec = chaos_spec_text()
    if spec:  # empty spec skips the parse on the disarmed hot path
        for entry in parse_fs_entries(spec):
            if entry.matches(surface, op, occurrence):
                return entry.mode
    plan = plan if plan is not None else _ACTIVE_PLAN
    if plan is not None:
        return plan.draw(surface, op, occurrence)
    return None
