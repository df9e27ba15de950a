"""Eq. (2) validation: predicted vs trace-measured mistouch time.

Paper shape (Section III-D / VI-B): the expected mistouch time decreases
as D increases, and "the experiment results match our analysis".
"""

from repro.api import ExperimentRequest, run_experiment


def bench_equation2_validation(benchmark, scale):
    request = ExperimentRequest(
        name="equation_validation", scale=scale, derive_seed=False,
        params={"attack_ms": 10_000.0})
    result = benchmark.pedantic(run_experiment, args=(request,),
                                rounds=1, iterations=1)
    assert result.max_relative_error < 0.05
    assert result.measured_decreases_with_d
    print(f"\nEq. (2) validation ({result.device_key}, 10 s attack):")
    print(f"  {'D (ms)':>7s} {'predicted':>10s} {'measured':>9s} "
          f"{'gaps':>5s} {'err':>6s}")
    for row in result.rows:
        print(f"  {row.attacking_window_ms:7.0f} {row.predicted_ms:9.1f}ms "
              f"{row.measured_ms:8.1f}ms {row.gap_count:5d} "
              f"{row.relative_error * 100:5.1f}%")
