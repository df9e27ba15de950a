"""Feasibility-service response overhead against the in-process path.

Gates the ISSUE 9 claim that the service layer is free once a query is
answered: a cache-hit ``submit()`` — hash, cache probe, provenance
stamp — must cost less than 5% of what the direct
:func:`repro.api.query_feasibility` call pays to execute the same
query's trials. Both arms answer the identical query, so the comparison
is pure service overhead, not simulation work.

Runs with plain walls (no ``--benchmark-only`` required) so the CI
``e2e`` job can execute it directly and gate on the ledger entry.
"""

from __future__ import annotations

import asyncio
import time

from repro.api import query_feasibility
from repro.serve import FeasibilityQuery, FeasibilityService, ServeConfig

_DIRECT_REPEATS = 3
_CACHE_HIT_REPEATS = 200

_QUERY = FeasibilityQuery(
    device="pixel 2", d_min_ms=60.0, d_max_ms=80.0, d_step_ms=20.0,
    trials_per_d=1, trial_duration_ms=400.0, probe_chars=0, probe_trials=0)


def _direct_wall_seconds() -> float:
    best = float("inf")
    for _ in range(_DIRECT_REPEATS):
        start = time.perf_counter()
        report = query_feasibility(_QUERY)
        best = min(best, time.perf_counter() - start)
        assert report.query_hash == _QUERY.content_hash()
    return best


async def _cache_hit_wall_seconds() -> float:
    service = FeasibilityService(ServeConfig(workers=1))
    await service.start()
    try:
        first = await service.submit(_QUERY)
        assert first.ok and first.provenance.source == "executed"
        for _ in range(10):  # warm the submit path
            await service.submit(_QUERY)
        best = float("inf")
        for _ in range(_CACHE_HIT_REPEATS):
            start = time.perf_counter()
            response = await service.submit(_QUERY)
            best = min(best, time.perf_counter() - start)
            assert response.provenance.source == "cache"
        return best
    finally:
        await service.close()


def bench_serve(ledger):
    """Cache-hit submit gated at <5% of the direct-call latency."""
    direct_s = _direct_wall_seconds()
    cache_hit_s = asyncio.run(_cache_hit_wall_seconds())
    overhead = cache_hit_s / direct_s
    print(f"\ndirect query_feasibility: {direct_s * 1000:.1f} ms   "
          f"cache-hit submit: {cache_hit_s * 1000:.3f} ms   "
          f"({overhead * 100:.2f}% of direct)")
    ledger("serve",
           gate="cache-hit submit < 5% of direct query_feasibility wall",
           passed=cache_hit_s < direct_s * 0.05,
           direct_seconds=direct_s, cache_hit_seconds=cache_hit_s,
           overhead_fraction=overhead)
    assert cache_hit_s < direct_s * 0.05, (
        f"serve overhead gate: a cache-hit submit took "
        f"{overhead * 100:.2f}% of the direct call (limit 5%)"
    )
