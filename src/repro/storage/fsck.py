"""Offline integrity verification of a journaled run directory.

``repro fsck --run-dir DIR`` for every journal kind (experiment runs
and campaigns share one manifest layout, :mod:`repro.storage.journal`):
parse the manifest, re-validate every completed-result envelope
checksum at the manifest's version, parse every failure record, flag
markers outside the manifest's plan, and list (or sweep) crash-orphaned
``*.tmp`` files — all without executing anything, so a suspect
directory can be vetted before ``--resume`` trusts it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple, Union

from .envelope import CacheIntegrityError, decode_envelope
from .journal import MANIFEST_NAME, JournalError, read_manifest

__all__ = ["FsckIssue", "FsckReport", "fsck_run_dir", "format_fsck"]


@dataclass(frozen=True)
class FsckIssue:
    """One integrity problem, anchored to a path relative to the root."""

    path: str
    problem: str


@dataclass(frozen=True)
class FsckReport:
    """Everything one :func:`fsck_run_dir` pass established."""

    root: str
    #: The manifest's journal kind (``"run"`` or ``"campaign"``).
    kind: str
    version: int
    results_checked: int
    failures_checked: int
    issues: Tuple[FsckIssue, ...]
    orphans: Tuple[str, ...]
    swept: int

    @property
    def ok(self) -> bool:
        """Orphans alone do not fail a check — resume sweeps them."""
        return not self.issues


def fsck_run_dir(root: Union[str, Path], *,
                 sweep: bool = False) -> FsckReport:
    """Verify ``root`` offline; raises ``JournalError`` when the
    directory is not usable as a journal at all (no/bad manifest)."""
    root = Path(root)
    if not root.is_dir():
        raise JournalError(f"{root} is not a run directory")
    manifest = read_manifest(root)
    version = manifest["version"]
    expected = set(manifest["plan"])

    issues = []
    results_dir = root / "results"
    failures_dir = root / "failures"

    results_checked = 0
    if results_dir.is_dir():
        for marker in sorted(results_dir.glob("*.pkl")):
            results_checked += 1
            relative = str(marker.relative_to(root))
            try:
                data = marker.read_bytes()
            except OSError as exc:
                issues.append(FsckIssue(relative, f"unreadable: {exc}"))
                continue
            try:
                decode_envelope(version, data)
            except CacheIntegrityError as exc:
                issues.append(FsckIssue(relative, str(exc)))
                continue
            if marker.stem not in expected:
                issues.append(FsckIssue(
                    relative, "marker outside the journaled plan"))

    failures_checked = 0
    if failures_dir.is_dir():
        for record in sorted(failures_dir.glob("*.json")):
            failures_checked += 1
            relative = str(record.relative_to(root))
            try:
                parsed = json.loads(record.read_text())
            except (OSError, ValueError) as exc:
                issues.append(FsckIssue(
                    relative, f"bad failure record: {exc}"))
                continue
            if not isinstance(parsed, dict):
                issues.append(FsckIssue(
                    relative, "failure record is not a JSON object"))

    orphans = []
    swept = 0
    for directory in (root, results_dir, failures_dir):
        if not directory.is_dir():
            continue
        for tmp in sorted(directory.glob("*.tmp")):
            orphans.append(str(tmp.relative_to(root)))
            if sweep:
                try:
                    tmp.unlink()
                except OSError:
                    continue
                swept += 1

    return FsckReport(
        root=str(root), kind=manifest["kind"], version=version,
        results_checked=results_checked, failures_checked=failures_checked,
        issues=tuple(issues), orphans=tuple(orphans), swept=swept)


def format_fsck(report: FsckReport) -> str:
    """Human rendering, one status line last (``clean`` or a count)."""
    bad_results = sum(
        1 for issue in report.issues if issue.path.endswith(".pkl"))
    lines = [
        f"fsck {report.root}",
        f"  manifest : {MANIFEST_NAME} ({report.kind}, "
        f"v{report.version})",
        f"  results  : {report.results_checked} checked, "
        f"{bad_results} bad",
        f"  failures : {report.failures_checked} record(s)",
        f"  orphans  : {len(report.orphans)} temp file(s)"
        + (f", {report.swept} swept" if report.swept else ""),
    ]
    for issue in report.issues:
        lines.append(f"  PROBLEM {issue.path}: {issue.problem}")
    for orphan in report.orphans:
        lines.append(f"  ORPHAN  {orphan}")
    lines.append(
        "clean" if report.ok else f"{len(report.issues)} problem(s)")
    return "\n".join(lines) + "\n"
