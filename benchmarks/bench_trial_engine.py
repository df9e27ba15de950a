"""Scenario-engine throughput: stack reuse vs per-trial rebuild.

Not a paper figure — this pins the tentpole claim of the trial engine:
pooling one booted stack per (device, alert mode, tracing) and
``reset()``-ing it between trials beats rebuilding the stack for every
trial. The probe trials are deliberately short so the fixed per-trial
cost (boot vs reset) dominates, which is exactly the regime of the
boundary searches and capture sweeps that run tens of thousands of
trials.
"""

from __future__ import annotations

from repro.experiments.engine import TrialExecutor, TrialSpec, scenario

_TRIALS = 200


@scenario("bench-settle")
def _settle_scenario(stack, settle_ms: float = 10.0) -> float:
    """Minimal trial: boot settling only, no attack.

    Isolates the per-trial provisioning cost (build vs reset) that the
    executor's pooling eliminates; an attack scenario's own simulation
    work is identical in both arms and would only dilute the comparison.
    """
    stack.run_for(settle_ms)
    return stack.now


def bench_trial_engine_reuse(interleaved, ledger):
    """Reused-stack trial throughput; asserts the >=1.5x speedup."""
    specs = [TrialSpec(scenario="bench-settle", seed=1000 + i)
             for i in range(_TRIALS)]
    rebuild, reuse = interleaved(
        lambda: TrialExecutor(reuse=False).map(specs),
        lambda: TrialExecutor(reuse=True).map(specs))
    assert reuse.value == rebuild.value and len(reuse.value) == _TRIALS

    rebuild_tps = _TRIALS / rebuild.seconds
    reuse_tps = _TRIALS / reuse.seconds
    speedup = reuse_tps / rebuild_tps
    print(f"\nrebuild: {rebuild_tps:,.0f} trials/s   "
          f"reuse: {reuse_tps:,.0f} trials/s   speedup: {speedup:.2f}x")
    ledger("trial_engine", gate="stack reuse >= 1.5x rebuild throughput",
           passed=speedup >= 1.5, throughput=reuse_tps,
           rebuild_throughput=rebuild_tps, speedup=speedup)
    assert speedup >= 1.5, (
        f"stack reuse must deliver >=1.5x trial throughput, got "
        f"{speedup:.2f}x"
    )
