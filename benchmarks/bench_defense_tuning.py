"""§VII-A technical-report material: tuning the IPC decision rule.

Sweeps (min_pairs, max_pair_gap) against the attack and a benign overlay
ensemble; prints the operating-point table and the recommended rule.
Expected shape: loose pair-gap ceilings start flagging twitchy-but-benign
widgets; fewer required pairs detect faster at equal false-positive cost.
"""

from repro.api import ExperimentRequest, run_experiment


def bench_ipc_rule_tuning(benchmark, scale):
    request = ExperimentRequest(
        name="defense_tuning", scale=scale, derive_seed=False,
        params={"attack_ms": 10_000.0, "benign_observation_ms": 90_000.0})
    result = benchmark.pedantic(run_experiment, args=(request,),
                                rounds=1, iterations=1)
    assert result.usable_points, "no deployable operating point found"
    best = result.best_point()
    assert best is not None
    assert best.detection_rate == 1.0 and best.false_positive_rate == 0.0
    # The loosest gap must show the benign cost that motivates tuning.
    loose = [p for p in result.points if p.max_pair_gap_ms >= 1200.0]
    assert any(p.false_positive_rate > 0.0 for p in loose)
    print("\nIPC decision-rule tuning (detection vs false positives):")
    print(f"  {'pairs':>6s} {'gap(ms)':>8s} {'detect':>7s} "
          f"{'latency(ms)':>12s} {'benign FP':>10s}")
    for p in result.points:
        latency = (f"{p.mean_detection_latency_ms:9.0f}"
                   if p.mean_detection_latency_ms is not None else "       --")
        print(f"  {p.min_pairs:6d} {p.max_pair_gap_ms:8.0f} "
              f"{p.detection_rate * 100:6.0f}% {latency:>12s} "
              f"{p.false_positive_rate * 100:9.0f}%")
    print(f"  recommended: min_pairs={best.min_pairs}, "
          f"max_gap={best.max_pair_gap_ms:.0f} ms "
          f"(detects in {best.mean_detection_latency_ms:.0f} ms)")
