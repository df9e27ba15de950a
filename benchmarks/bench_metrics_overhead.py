"""Metrics-subsystem overhead on the full QUICK suite.

Gates the ISSUE claim that the instrumented tree costs <5% when metrics
are *disabled*. With no registry installed, every instrumented hot path
pays exactly one attribute load + ``is not None`` branch; the disabled-
mode overhead is therefore (number of instrumented events) x (cost of
one such check). Both factors are measured here — the event count from a
metrics-enabled QUICK run's own counters, the per-check cost from a
micro-benchmark — and their product is gated against 5% of the
disabled-mode suite wall time.

Two sanity checks ride along: disabling metrics cannot be slower than
enabling them, and both arms must return equal results (observation-only;
the byte-level report check lives in
tests/experiments/test_observability.py). The walls are medians of five
interleaved rounds.
"""

from __future__ import annotations

import time

from repro.experiments import QUICK, run_all
from repro.obs import merge_samples

#: Counter series whose sum approximates "instrumented hot-path events":
#: one disabled-mode presence check happens at least once per increment.
_EVENT_COUNTERS = (
    "sim_scheduler_events_dispatched_total",
    "sim_scheduler_events_cancelled_total",
    "binder_transactions_sent_total",
    "binder_transactions_delivered_total",
    "compositor_frames_rendered_total",
    "compositor_queries_total",
    "toast_tokens_enqueued_total",
    "engine_trials_total",
)


def _per_check_seconds(iterations: int = 1_000_000) -> float:
    """Cost of one disabled-mode instrument check (attr + is-not-None)."""

    class Host:
        __slots__ = ("instrument",)

        def __init__(self):
            self.instrument = None

    host = Host()
    loop = range(iterations)
    # Baseline loop without the check, to subtract interpreter overhead.
    start = time.perf_counter()
    for _ in loop:
        pass
    baseline = time.perf_counter() - start
    start = time.perf_counter()
    for _ in loop:
        if host.instrument is not None:
            raise AssertionError
    checked = time.perf_counter() - start
    return max(checked - baseline, 0.0) / iterations


def _instrumented_event_count(results) -> float:
    merged = {s.name: s for s in
              merge_samples(em.samples for em in results.metrics)}
    missing = [name for name in _EVENT_COUNTERS if name not in merged]
    assert not missing, f"expected counter series absent: {missing}"
    return sum(merged[name].value or 0.0 for name in _EVENT_COUNTERS)


def bench_metrics_overhead(interleaved, ledger):
    """Disabled-mode metrics overhead gated at <5% of the QUICK wall."""
    disabled, enabled = interleaved(
        lambda: run_all(QUICK, collect_metrics=False),
        lambda: run_all(QUICK, collect_metrics=True), rounds=5)
    enabled_results = enabled.value
    assert enabled_results == disabled.value, (
        "metrics collection must not perturb results"
    )

    disabled_s, enabled_s = disabled.seconds, enabled.seconds
    events = _instrumented_event_count(enabled_results)
    check_s = _per_check_seconds()
    disabled_overhead_s = events * check_s
    fraction = disabled_overhead_s / disabled_s
    print(f"\ndisabled: {disabled_s:.2f}s   enabled: {enabled_s:.2f}s   "
          f"({(enabled_s / disabled_s - 1) * 100:+.1f}% when enabled)")
    print(f"instrumented events: {events:,.0f}   per-check: "
          f"{check_s * 1e9:.1f}ns   disabled-mode overhead: "
          f"{disabled_overhead_s * 1000:.1f}ms ({fraction * 100:.2f}% "
          f"of the QUICK wall)")
    ledger("metrics_overhead",
           gate="disabled-mode metrics < 5% of the suite wall",
           passed=fraction < 0.05,
           disabled_seconds=disabled_s, enabled_seconds=enabled_s,
           instrumented_events=events, per_check_ns=check_s * 1e9,
           overhead_fraction=fraction)
    assert disabled_s <= enabled_s * 1.02, (
        f"disabled mode ({disabled_s:.2f}s) must not run slower than "
        f"enabled mode ({enabled_s:.2f}s)"
    )
    assert fraction < 0.05, (
        f"disabled-mode metrics overhead gate: {fraction * 100:.2f}% of "
        f"the QUICK suite wall (limit 5%)"
    )
