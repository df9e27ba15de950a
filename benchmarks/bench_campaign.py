"""Campaign-engine fan-out overhead on a real fleet sweep.

Not a paper figure — this pins the claim of the campaign layer:
sharding a :class:`ScenarioMatrix` through the supervised runner and
folding every trial into the streaming aggregates costs almost nothing
over just executing the matrix. The comparison arm is the raw engine
(one ``TrialExecutor.map`` over the same cells, no sharding, no
supervision, no aggregation); the campaign arm runs the identical cells
at ``shards=8, jobs=1`` on one core. Both arms run the same trials, but
the campaign arm also does work the raw arm does not: it enumerates its
cells inside the timed region (the raw arm builds its cell list before
the clock starts), and each shard boots its own stacks, so a device whose
cells straddle a shard boundary is booted twice. The difference is that
work plus the campaign machinery — shard bookkeeping, chaos gate, digest
folding and the final merge. Gate: campaign wall <= 1.10x raw wall,
each the median of 10 interleaved rounds with a ``gc.collect()`` before
every timed region."""

from __future__ import annotations

import gc
import statistics
import time
from typing import Tuple

from repro.experiments import ScenarioMatrix, TrialExecutor
from repro.experiments.campaign import matrix_from_spec, run_campaign

#: Paired rounds; each times both arms once. Arms of ~0.2 s are too short
#: for best-of-3 to separate a 10% bound from scheduling noise.
_ROUNDS = 10

#: Every Android 9/10 evaluation device x 20 notification trials
#: = 500 cells, ~1 ms each under stack reuse.
_MATRIX_SPEC = {
    "name": "bench-fleet",
    "scenario": "notification",
    "scale": "quick",
    "seed": 7,
    "versions": ["9", "10"],
    "configs": [{"attacking_window_ms": 100.0}],
    "trials": 20,
    "base_params": {"duration_ms": 400.0},
}


def _matrix() -> ScenarioMatrix:
    return matrix_from_spec(_MATRIX_SPEC)


def _raw_wall_seconds(matrix: ScenarioMatrix) -> float:
    executor = TrialExecutor()
    cells = list(matrix.cells())
    gc.collect()
    start = time.perf_counter()
    executor.map(cells)
    return time.perf_counter() - start


def _campaign_wall_seconds(matrix: ScenarioMatrix) -> float:
    gc.collect()
    start = time.perf_counter()
    result = run_campaign(matrix, shards=8, jobs=1)
    elapsed = time.perf_counter() - start
    assert result.failures == () and result.trials == len(matrix)
    return elapsed


def _median_walls(matrix: ScenarioMatrix,
                  rounds: int = _ROUNDS) -> Tuple[float, float]:
    """Median (raw, campaign) wall over ``rounds`` interleaved rounds.

    The arms alternate which goes first, so drift (thermal, page cache,
    a neighbour's load) lands on both arms instead of on one.
    """
    raw, campaign = [], []
    for index in range(rounds):
        if index % 2:
            campaign.append(_campaign_wall_seconds(matrix))
            raw.append(_raw_wall_seconds(matrix))
        else:
            raw.append(_raw_wall_seconds(matrix))
            campaign.append(_campaign_wall_seconds(matrix))
    return statistics.median(raw), statistics.median(campaign)


def bench_campaign_fanout(benchmark, ledger):
    """Sharded campaign wall gated at <=1.10x the raw matrix wall."""
    matrix = _matrix()

    def run():
        return run_campaign(matrix, shards=8, jobs=1)

    result = benchmark(run)
    assert result.trials == len(matrix) == 500

    raw_s, campaign_s = _median_walls(matrix)
    overhead = campaign_s / raw_s - 1.0
    throughput = len(matrix) / campaign_s
    print(f"\nraw engine: {raw_s:.3f}s   campaign (8 shards): "
          f"{campaign_s:.3f}s   ({overhead * 100:+.2f}% fan-out overhead)"
          f"   {throughput:,.0f} trials/s")
    ledger("campaign",
           gate="shard fan-out overhead <= 10% of raw matrix execution",
           passed=campaign_s <= raw_s * 1.10,
           throughput=throughput, raw_seconds=raw_s,
           campaign_seconds=campaign_s, overhead_fraction=overhead)
    assert campaign_s <= raw_s * 1.10, (
        f"campaign fan-out gate: {overhead * 100:.2f}% overhead over the "
        "raw engine (limit 10%)"
    )
