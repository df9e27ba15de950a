"""The checksummed result envelope and the one cache built on it.

Every persisted result — experiment cache entry, journal marker, served
report — is wrapped in the same envelope: magic, version header, and a
sha256 over the pickle payload (:func:`encode_envelope` /
:func:`decode_envelope`), so a corrupt, truncated or stale entry
degrades to a miss instead of feeding garbage into a report.

:class:`EnvelopeCache` is the single envelope-per-key cache over a
:class:`~repro.storage.store.DurableStore`: an optional memory front,
an optional directory, dirty entries kept for :meth:`~EnvelopeCache.flush`
when a disk write degrades, and integrity rejects counted under metric
names its owner supplies. The experiment result cache and the serve
query cache are key derivations over it.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from .store import DurableStore

__all__ = [
    "ENVELOPE_MAGIC",
    "CacheIntegrityError",
    "EnvelopeCache",
    "decode_envelope",
    "encode_envelope",
]

#: First bytes of every persisted result (cache entry or journal marker).
ENVELOPE_MAGIC = b"repro-envelope\n"

_HEADER_RE = re.compile(r"v(\d+) sha256:([0-9a-f]{64})")


class CacheIntegrityError(RuntimeError):
    """A persisted result failed envelope validation (treated as a miss)."""


def encode_envelope(version: int, obj: object) -> bytes:
    """Wrap ``obj`` in the integrity envelope: magic, version, checksum.

    The sha256 covers the pickle payload, the version header covers the
    writer's format version — so both bit rot and stale formats are
    detected *before* ``pickle.loads`` ever sees the bytes.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = f"v{int(version)} sha256:{digest}\n".encode("ascii")
    return ENVELOPE_MAGIC + header + payload


def decode_envelope(version: int, data: bytes) -> object:
    """Validate and unwrap an envelope; raise :class:`CacheIntegrityError`.

    Every reject names its reason — bad magic (foreign or pre-envelope
    file), truncated or malformed header, stale version, checksum
    mismatch, or a payload that no longer unpickles.
    """
    if not data.startswith(ENVELOPE_MAGIC):
        raise CacheIntegrityError("missing envelope magic")
    try:
        header_end = data.index(b"\n", len(ENVELOPE_MAGIC))
    except ValueError:
        raise CacheIntegrityError("truncated envelope header") from None
    header = data[len(ENVELOPE_MAGIC):header_end].decode("ascii", "replace")
    match = _HEADER_RE.fullmatch(header)
    if match is None:
        raise CacheIntegrityError(f"malformed envelope header {header!r}")
    if int(match.group(1)) != int(version):
        raise CacheIntegrityError(
            f"stale envelope version v{match.group(1)} (expected "
            f"v{int(version)})")
    payload = data[header_end + 1:]
    if hashlib.sha256(payload).hexdigest() != match.group(2):
        raise CacheIntegrityError("payload checksum mismatch")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CacheIntegrityError(
            f"checksummed payload failed to unpickle: {exc!r}") from exc


class EnvelopeCache:
    """Envelope-per-key store: ``<prefix><key>.pkl`` under ``directory``.

    An optional-durability surface: a failed disk write returns
    ``False`` and keeps the entry dirty until :meth:`flush` lands it;
    corrupt, truncated or stale-version bytes are a miss, counted on
    :attr:`integrity_rejects` and on each of ``reject_metrics``. With
    ``memory`` a dict fronts the disk, so a warm hit never re-reads or
    re-validates bytes; without a ``directory`` the cache is
    memory-only.
    """

    def __init__(self, directory: Optional[Path], *, surface: str,
                 version: int, reject_metrics: Sequence[str],
                 prefix: str = "", memory: bool = True,
                 registry: object = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.version = int(version)
        self.prefix = prefix
        self._reject_metrics = tuple(reject_metrics)
        self._store = DurableStore(surface, required=False,
                                   registry=registry)
        self._memory: Optional[Dict[str, Any]] = {} if memory else None
        #: Entries whose disk write failed; retried by :meth:`flush`.
        self._dirty: Dict[str, Any] = {}
        #: Entries rejected by envelope validation since construction.
        self.integrity_rejects = 0

    def path_for(self, key: str) -> Path:
        return self._path(key)

    def _path(self, key: str) -> Path:
        # Internal calls go through here, never through the public
        # methods a key-deriving subclass may re-sign.
        if self.directory is None:
            raise ValueError("memory-only cache has no paths")
        return self.directory / f"{self.prefix}{key}.pkl"

    @property
    def dirty_entries(self) -> int:
        """Entries held only in memory after a failed disk write."""
        return len(self._dirty)

    def load(self, key: str) -> Any:
        """The cached value, or ``None`` as a miss."""
        if self._memory is not None and key in self._memory:
            return self._memory[key]
        if self.directory is None:
            return None
        data = self._store.read_bytes(self._path(key))
        if data is None:
            return None
        try:
            value = decode_envelope(self.version, data)
        except CacheIntegrityError:
            self.integrity_rejects += 1
            for metric in self._reject_metrics:
                self._store.count(metric)
            return None
        if self._memory is not None:
            self._memory[key] = value
        return value

    def store(self, key: str, value: Any) -> bool:
        """Remember ``value``; ``False`` iff the disk write degraded (the
        entry stays flush-pending, and serves from memory if fronted)."""
        if self._memory is not None:
            self._memory[key] = value
        if self.directory is None:
            return True
        if self._write(key, value):
            self._dirty.pop(key, None)
            return True
        self._dirty[key] = value
        return False

    def flush(self) -> int:
        """Retry every dirty entry's disk write; returns writes landed."""
        if self.directory is None:
            self._dirty.clear()
            return 0
        written = 0
        for key in sorted(self._dirty):
            if self._write(key, self._dirty[key]):
                del self._dirty[key]
                written += 1
        return written

    def _write(self, key: str, value: Any) -> bool:
        return self._store.write_bytes(
            self._path(key), encode_envelope(self.version, value))
