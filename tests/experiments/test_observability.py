"""Metrics are observation-only, and results serialize losslessly.

The central safety property of ``repro.obs``: collecting metrics must not
perturb a single result — the registry never touches the scheduler,
clock or random streams. Pinned here by comparing a metrics-on QUICK run
against the session's serial reference run, down to the formatted
report's bytes.
"""

import gc
import hashlib
import weakref

import pytest

from repro.experiments import (
    QUICK,
    SMOKE,
    ScenarioMatrix,
    TrialExecutor,
    TrialSpec,
    format_report,
    run_all,
    run_trial,
)
from repro.experiments.engine import _SCENARIOS
from repro.experiments.runner import AllResults
from repro.obs import MetricsRegistry, use_metrics

#: The series the event kernel and the Binder router record.
KERNEL_SERIES = (
    "sim_scheduler_events_scheduled_total",
    "sim_scheduler_events_dispatched_total",
    "sim_scheduler_events_cancelled_total",
    "sim_scheduler_event_delay_ms",
    "sim_scheduler_queue_depth",
    "binder_transactions_sent_total",
    "binder_transactions_delivered_total",
    "binder_transactions_dropped_total",
    "binder_transit_ms",
)

#: sha256 of the ``repr`` of every kernel sample of a SMOKE pass, and of
#: every deterministic per-trial delta of ``_MATRIX``. Recorded when the
#: kernel still called ``Counter.inc``/``Histogram.observe`` per event,
#: so the folded series must reproduce them bit for bit.
KERNEL_SHA256 = {
    "smoke": "c51b7067db5c05343b65e27ce8c0249e5a092187180da197c86a5d1cc5f06f70",
    "matrix": "2cfff60e8507a26cf750a7b1c5795e32fc779b26d3ed33476a78d08e8c517fdc",
}

_MATRIX = ScenarioMatrix(
    name="probe", scenario="notification", scale=QUICK,
    configs=({"attacking_window_ms": 80.0}, {"attacking_window_ms": 300.0}),
    fault_profiles=("none", "mild"), trials=2)


def _digest(rows):
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def quick_metrics_results():
    return run_all(QUICK, collect_metrics=True)


class TestMetricsDoNotPerturb:
    def test_results_equal_with_metrics_enabled(
            self, quick_metrics_results, quick_serial_results):
        # AllResults equality covers every experiment field (timings and
        # metrics are compare=False), so this is the full-suite check.
        assert quick_metrics_results == quick_serial_results

    def test_report_byte_identical_with_metrics_enabled(
            self, quick_metrics_results, quick_serial_results):
        assert (format_report(quick_metrics_results)
                == format_report(quick_serial_results))

    def test_reference_run_attaches_no_metrics(self, quick_serial_results):
        assert quick_serial_results.metrics is None


class TestMetricsSnapshots:
    def test_every_experiment_has_a_snapshot(self, quick_metrics_results):
        names = [em.name for em in quick_metrics_results.metrics]
        assert len(names) == len(set(names))
        assert len(names) >= 20

    def test_kernel_series_are_populated(self, quick_metrics_results):
        all_names = {s.name
                     for em in quick_metrics_results.metrics
                     for s in em.samples}
        for expected in (
            "sim_scheduler_events_dispatched_total",
            "binder_transactions_delivered_total",
            "compositor_frames_rendered_total",
            "toast_tokens_enqueued_total",
            "engine_trials_total",
        ):
            assert expected in all_names, expected


class TestSerializationRoundTrip:
    def test_all_results_round_trip(self, quick_metrics_results):
        rebuilt = AllResults.from_dict(quick_metrics_results.to_dict())
        assert rebuilt == quick_metrics_results
        # compare=False fields must survive the codec too.
        assert rebuilt.metrics == quick_metrics_results.metrics
        assert rebuilt.timings == quick_metrics_results.timings

    def test_rebuilt_report_is_byte_identical(self, quick_metrics_results):
        rebuilt = AllResults.from_dict(quick_metrics_results.to_dict())
        assert format_report(rebuilt) == format_report(quick_metrics_results)


class TestFoldedKernelSeries:
    def test_smoke_kernel_series_are_pinned(self):
        results = run_all(SMOKE, collect_metrics=True)
        rows = [f"{em.name} {s!r}" for em in results.metrics
                for s in em.samples if s.name in KERNEL_SERIES]
        assert len(rows) == 167
        assert _digest(rows) == KERNEL_SHA256["smoke"]

    def test_run_matrix_trial_deltas_are_pinned(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            outcomes = TrialExecutor().run_matrix(_MATRIX)
        # Every series but the trial's wall-clock time is deterministic.
        rows = [repr(s) for outcome in outcomes for s in outcome.metrics
                if s.name != "engine_trial_wall_ms"]
        assert len(rows) == 135
        assert _digest(rows) == KERNEL_SHA256["matrix"]

    def test_standalone_trial_leaves_nothing_unfolded(self):
        registry = MetricsRegistry()
        spec = next(_MATRIX.cells())
        with use_metrics(registry):
            run_trial(spec)
        assert registry._tracked == []
        for name in ("sim_scheduler_event_delay_ms",
                     "sim_scheduler_queue_depth", "binder_transit_ms"):
            hist = registry.buffer(name)
            assert hist.pending == [] and hist.count > 0, name

    def test_registry_does_not_keep_a_per_trial_stack_alive(
            self, monkeypatch):
        registry = MetricsRegistry()
        schedulers = []

        def keep(stack):
            schedulers.append(weakref.ref(stack.simulation.scheduler))
            stack.simulation.schedule_after(1.0, lambda: None)
            stack.run_for(50.0)

        monkeypatch.setitem(_SCENARIOS, "_observability_keep", keep)
        with use_metrics(registry):
            TrialExecutor(reuse=False).run(
                TrialSpec(scenario="_observability_keep", seed=3))
        gc.collect()
        assert schedulers and schedulers[0]() is None
