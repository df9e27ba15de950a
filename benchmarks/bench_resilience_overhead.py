"""Supervision-layer overhead on the fault-free QUICK suite.

Gates the ISSUE 5 claim that supervision is zero-cost on the happy path:
with no faults injected, a run under a *non-trivial* :class:`RunPolicy`
(retries armed, a generous deadline, backoff configured) pays only the
supervisor's bookkeeping — one try/except, one attempt counter and one
deadline comparison per experiment — which must stay within the same 5%
envelope the metrics plane is held to. Both arms are medians of five
interleaved rounds, and both arms must return bit-identical results:
supervision observes and schedules, it never touches experiment seeds.
"""

from __future__ import annotations

from repro.experiments import QUICK, RunPolicy, run_all

#: Retries armed, deadline far above any QUICK experiment, deterministic
#: backoff configured — every supervisor code path active, none firing.
_ARMED_POLICY = RunPolicy(
    max_attempts=3,
    deadline_seconds=300.0,
    backoff_base_seconds=0.05,
)


def bench_resilience_overhead(interleaved, ledger):
    """Armed-but-idle supervision gated at <5% of the QUICK wall."""
    default, armed = interleaved(
        lambda: run_all(QUICK),
        lambda: run_all(QUICK, policy=_ARMED_POLICY), rounds=5)
    assert armed.value == default.value, (
        "an armed-but-idle RunPolicy must not perturb results"
    )
    assert armed.value.failures == () and default.value.failures == ()

    default_s, armed_s = default.seconds, armed.seconds
    overhead = armed_s / default_s - 1.0
    print(f"\ndefault policy: {default_s:.2f}s   armed policy: "
          f"{armed_s:.2f}s   ({overhead * 100:+.2f}% when armed)")
    ledger("resilience_overhead",
           gate="armed-but-idle supervision <= 5% of the suite wall",
           passed=armed_s <= default_s * 1.05,
           default_seconds=default_s, armed_seconds=armed_s,
           overhead_fraction=overhead)
    assert armed_s <= default_s * 1.05, (
        f"supervision overhead gate: armed policy ran {overhead * 100:.2f}% "
        "slower than the default (limit 5%)"
    )
