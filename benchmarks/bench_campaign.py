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
each the median of 10 interleaved rounds.
"""

from __future__ import annotations

from repro.experiments import TrialExecutor
from repro.experiments.campaign import matrix_from_spec, run_campaign

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


def bench_campaign_fanout(interleaved, ledger):
    """Sharded campaign wall gated at <=1.10x the raw matrix wall."""
    matrix = matrix_from_spec(_MATRIX_SPEC)
    cells = list(matrix.cells())
    raw, campaign = interleaved(
        lambda: TrialExecutor().map(cells),
        lambda: run_campaign(matrix, shards=8, jobs=1))
    result = campaign.value
    assert result.failures == () and result.trials == len(matrix) == 500

    raw_s, campaign_s = raw.seconds, campaign.seconds
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
