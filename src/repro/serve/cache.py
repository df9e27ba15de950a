"""Content-addressed result cache for feasibility queries.

A key derivation over :class:`~repro.storage.envelope.EnvelopeCache`,
the cache the experiment :class:`~repro.experiments.parallel.ResultCache`
also derives from, keyed by the query's content hash instead of
``(name, scale)``. Disk I/O routes through a ``query-cache``
:class:`~repro.storage.store.DurableStore` — an optional-durability
surface, so an injected or real write failure degrades to a counted
miss (the entry is kept dirty in memory and retried by ``flush``, which
the graceful-drain path calls), and corrupt, truncated or stale-version
bytes degrade to a miss counted on both the runner-side
``cache_integrity_rejects_total`` convention and the serve-local
:data:`SERVE_CACHE_REJECTS_METRIC`. A memory layer fronts the disk so a
warm hit never re-reads or re-validates bytes; with no directory
configured the cache is memory-only and dies with the service.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..experiments.resilience import CACHE_REJECTS_METRIC
from ..storage.envelope import EnvelopeCache

__all__ = ["SERVE_CACHE_REJECTS_METRIC", "SERVE_CACHE_VERSION", "QueryCache"]

#: Bump when a change to query execution invalidates previously cached
#: reports (the content hash only sees the query, never the code).
SERVE_CACHE_VERSION = 1

#: Disk entries rejected by envelope validation — the serve twin of the
#: runner-side ``cache_integrity_rejects_total``.
SERVE_CACHE_REJECTS_METRIC = "serve_cache_integrity_rejects_total"


class QueryCache(EnvelopeCache):
    """``query-<content hash>.pkl`` store of :class:`FeasibilityReport`."""

    def __init__(self, directory: Optional[Path] = None,
                 registry: object = None) -> None:
        super().__init__(
            directory, surface="query-cache", version=SERVE_CACHE_VERSION,
            reject_metrics=(CACHE_REJECTS_METRIC, SERVE_CACHE_REJECTS_METRIC),
            prefix="query-", registry=registry)
