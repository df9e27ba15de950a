"""The run-directory manifest shared by every journal kind.

A journaled run directory — an experiment run or a campaign — holds::

    RUN_DIR/
      run.json              # kind, version, plan, identity (first write)
      results/<unit>.pkl    # one envelope per completed unit
      failures/<unit>.json  # forensic record of permanent failures

``run.json`` names the journal's ``kind``, the envelope ``version`` its
markers are written at, the ``plan`` (every unit name the run may
complete) and the kind's ``identity`` (what else pins the run). The
journal that writes it lives with the runners
(``repro.experiments.resilience.RunJournal``); this module only reads
it, for the journal's resume check and for :mod:`repro.storage.fsck`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

__all__ = ["MANIFEST_NAME", "JournalError", "read_manifest"]

#: The one manifest file name, whatever the journal kind.
MANIFEST_NAME = "run.json"

_FIELDS = (("kind", str), ("version", int), ("plan", list),
           ("identity", dict))


class JournalError(RuntimeError):
    """A run directory cannot be (re)used for the requested run."""


def read_manifest(root: Union[str, Path]) -> Dict:
    """Parse ``root``'s manifest and check its shape.

    Raises :class:`JournalError` when the directory has no manifest, the
    manifest does not parse, or one of its four fields is missing.
    """
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        raise JournalError(
            f"{root} holds no {MANIFEST_NAME}: neither an experiment run "
            "nor a campaign directory")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise JournalError(
            f"unreadable journal manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise JournalError(f"manifest {path} is not a JSON object")
    for key, kind in _FIELDS:
        if not isinstance(manifest.get(key), kind):
            raise JournalError(f"{path} carries no usable {key}")
    return manifest
