"""Scenario-engine tests: registry, matrix seed partitioning, executor.

The matrix's per-cell seeds are part of the reproducibility contract:
they must stay stable across refactors (pinned values below), be
pairwise distinct across cells, and depend only on the cell key — never
on iteration order or on which other cells exist.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench import oracle
from repro.devices.registry import DEVICES, device, reference_device
from repro.experiments.config import QUICK, SMOKE
from repro.experiments.engine import (
    ScenarioMatrix,
    TrialExecutor,
    TrialSpec,
    current_executor,
    get_scenario,
    run_trial,
    scenario,
    scenario_names,
    scoped_executor,
    use_executor,
)


@scenario("test-engine-probe")
def _probe_scenario(stack, run_ms: float = 50.0):
    stack.run_for(run_ms)
    return (stack.profile.key, stack.now, stack.simulation.rng.random())


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_unknown_scenario_error_lists_registered_names():
    with pytest.raises(KeyError, match="notification"):
        get_scenario("no-such-scenario")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        scenario("test-engine-probe")(lambda stack: None)


def test_experiment_scenarios_are_registered():
    names = scenario_names()
    for expected in ("notification", "capture", "password",
                     "toast-continuity", "ipc-defense-attack",
                     "overlay-coverage", "trigger-channel"):
        assert expected in names


# ---------------------------------------------------------------------------
# Matrix seed partitioning
# ---------------------------------------------------------------------------

def _quick_matrix() -> ScenarioMatrix:
    return ScenarioMatrix(
        name="smoke",
        scenario="notification",
        scale=QUICK,
        configs=({"attacking_window_ms": 80.0},
                 {"attacking_window_ms": 160.0}),
        trials=2,
    )


def test_cell_seeds_are_pinned():
    """Regression pin: a refactor must not silently re-derive seeds."""
    seeds = [spec.seed for spec in _quick_matrix().cells()]
    assert seeds == [
        13303440576548337128,
        7760298392642681350,
        10824284260011573390,
        12069485564344466164,
    ]
    assert _quick_matrix().cell_seed(
        device("mi8", "9"), {}, "none", 0
    ) == 9826386210732213009


def test_cell_seeds_are_pairwise_distinct():
    matrix = ScenarioMatrix(
        name="wide",
        scenario="notification",
        scale=QUICK,
        versions=("9", "10"),
        configs=({"attacking_window_ms": 50.0},
                 {"attacking_window_ms": 100.0}),
        fault_profiles=("none", "mild"),
        trials=3,
    )
    seeds = [spec.seed for spec in matrix.cells()]
    assert len(seeds) == len(matrix)
    assert len(set(seeds)) == len(seeds)


def test_cell_seed_is_order_independent():
    """A cell's seed depends only on its own key, not on the sweep."""
    narrow = _quick_matrix()
    wide = ScenarioMatrix(
        name="smoke",  # same matrix name
        scenario="notification",
        scale=QUICK,
        configs=({"attacking_window_ms": 80.0},
                 {"attacking_window_ms": 160.0},
                 {"attacking_window_ms": 240.0}),
        trials=5,
    )
    dev = reference_device()
    config = {"attacking_window_ms": 80.0}
    assert (narrow.cell_seed(dev, config, "none", 1)
            == wide.cell_seed(dev, config, "none", 1))


def test_cell_seeds_differ_across_scales():
    dev = reference_device()
    quick = _quick_matrix()
    smoke = ScenarioMatrix(name="smoke", scenario="notification",
                           scale=SMOKE, trials=1)
    assert (quick.cell_seed(dev, {}, "none", 0)
            != smoke.cell_seed(dev, {}, "none", 0))


def test_versions_expand_to_registry_devices():
    matrix = ScenarioMatrix(name="m", scenario="notification",
                            scale=QUICK, versions=("10",))
    devices = matrix.resolved_devices()
    assert devices
    assert all(d.android_version.major == 10 for d in devices)


def test_unknown_version_error_lists_known_labels():
    matrix = ScenarioMatrix(name="m", scenario="notification",
                            scale=QUICK, versions=("7",))
    with pytest.raises(KeyError, match="evaluated versions"):
        matrix.resolved_devices()


def test_devices_covered_by_versions_appear_once():
    """Naming a device that ``versions`` also covers must not duplicate
    its cells: a repeat would share seeds and count one stream twice."""
    mi8 = device("mi8", "10")
    matrix = ScenarioMatrix(name="x", scenario="notification", scale=QUICK,
                            devices=(mi8,), versions=("10",))
    keys = [d.key for d in matrix.resolved_devices()]
    assert keys[0] == mi8.key
    assert len(keys) == len(set(keys)) == 12
    seeds = [spec.seed for spec in matrix.cells()]
    assert len(seeds) == len(matrix) == 12
    assert len(set(seeds)) == len(seeds)


def _axes_matrix() -> ScenarioMatrix:
    return ScenarioMatrix(
        name="axes",
        scenario="notification",
        scale=QUICK,
        versions=("11",),
        configs=({"attacking_window_ms": 50.0},
                 {"attacking_window_ms": 100.0}),
        attackers=("draw-and-destroy", "notification-flooding"),
        users=("stochastic-human", "gui-agent"),
        trials=2,
    )


def test_ranged_cells_equal_the_slice_of_all_cells():
    matrix = _axes_matrix()
    everything = list(matrix.cells())
    assert len(everything) == len(matrix) == 32
    for start in range(len(everything) + 1):
        for stop in range(start, len(everything) + 2):
            assert list(matrix.cells(start, stop)) == \
                everything[start:stop], (start, stop)
    assert list(matrix.cells(5)) == everything[5:]


def test_matrix_rejects_degenerate_axes():
    with pytest.raises(ValueError, match="trials"):
        ScenarioMatrix(name="m", scenario="notification", scale=QUICK,
                       trials=0)
    with pytest.raises(ValueError, match="configs"):
        ScenarioMatrix(name="m", scenario="notification", scale=QUICK,
                       configs=())


# ---------------------------------------------------------------------------
# Executor: stack reuse and equivalence
# ---------------------------------------------------------------------------

def test_executor_reuses_one_stack_per_pool_key():
    executor = TrialExecutor()
    specs = [TrialSpec(scenario="test-engine-probe", seed=100 + i)
             for i in range(4)]
    executor.map(specs)
    assert executor.stats.trials_run == 4
    assert executor.stats.stacks_built == 1
    assert executor.stats.stacks_reused == 3
    assert executor.stats.reuse_fraction == 0.75


def test_reused_results_match_fresh_builds():
    reused = TrialExecutor(reuse=True)
    fresh = TrialExecutor(reuse=False)
    specs = [TrialSpec(scenario="test-engine-probe", seed=7 + i,
                       faults="mild")
             for i in range(3)]
    assert reused.map(specs) == fresh.map(specs)
    assert fresh.stats.stacks_reused == 0
    assert fresh.stats.stacks_built == 3


def test_run_matrix_pairs_specs_with_values():
    executor = TrialExecutor()
    matrix = ScenarioMatrix(name="probe", scenario="test-engine-probe",
                            scale=QUICK, trials=3)
    outcomes = executor.run_matrix(matrix)
    assert len(outcomes) == 3
    assert [o.spec.seed for o in outcomes] == [s.seed for s in matrix.cells()]
    assert all(o.value[0] == reference_device().key for o in outcomes)


def test_scoped_executor_installs_and_restores_ambient():
    assert current_executor() is None
    with scoped_executor() as executor:
        assert current_executor() is executor
        with scoped_executor() as inner:
            assert inner is executor  # nested scopes share the pool
    assert current_executor() is None


def test_run_trial_uses_ambient_executor_when_present():
    spec = TrialSpec(scenario="test-engine-probe", seed=42)
    standalone = run_trial(spec)
    with use_executor(TrialExecutor()) as executor:
        run_trial(spec)
        pooled = run_trial(spec)
        assert executor.stats.stacks_reused == 1
    assert pooled == standalone


# ---------------------------------------------------------------------------
# The notification scenario's attacker axis
# ---------------------------------------------------------------------------

_NOTIFICATION_PARAMS = {"attacking_window_ms": 100.0, "duration_ms": 400.0}


def test_labeled_draw_and_destroy_matches_the_unlabeled_default():
    seed = QUICK.derived_seed("notification-axis")
    unlabeled = run_trial(TrialSpec(
        scenario="notification", seed=seed, params=_NOTIFICATION_PARAMS))
    labeled = run_trial(TrialSpec(
        scenario="notification", seed=seed, params=_NOTIFICATION_PARAMS,
        attacker="draw-and-destroy"))
    assert labeled == unlabeled


def test_notification_matrix_sweeps_the_attacker_axis():
    matrix = ScenarioMatrix(
        name="notification-axis", scenario="notification", scale=QUICK,
        configs=(_NOTIFICATION_PARAMS,), trials=2,
        attackers=("draw-and-destroy", "notification-flooding"))
    outcomes = TrialExecutor().run_matrix(matrix)
    assert len(outcomes) == len(matrix) == 4
    by_attacker = {}
    for outcome in outcomes:
        by_attacker.setdefault(outcome.spec.attacker, []).append(
            outcome.value)
    # D = 100 ms races the alert down; the flooder never races it.
    assert all(v.suppressed for v in by_attacker["draw-and-destroy"])
    assert not any(v.suppressed for v in by_attacker["notification-flooding"])


# ---------------------------------------------------------------------------
# The Eq. 3 outcome rule, checked by the benchmark's independent oracle
# ---------------------------------------------------------------------------

def test_fault_free_notification_trials_obey_eq3():
    """Below D = Tn + Tv + Ta the attack suppresses the alert, above it
    the alert shows; cells within one frame of the bound are undecided."""
    decided = []

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(profile=st.sampled_from(DEVICES),
           offset_ms=st.floats(-150.0, 150.0),
           seed=st.integers(0, 2**32 - 1))
    def check(profile, offset_ms, seed):
        d = max(50.0, oracle.eq3_bound_ms(profile) + offset_ms)
        outcome = run_trial(TrialSpec(
            scenario="notification", seed=seed, profile=profile,
            faults="none",
            params={"attacking_window_ms": d, "duration_ms": 600.0}))
        decided.append(oracle.check_outcome_rule(
            profile, d, suppressed_all=outcome.suppressed,
            suppressed_none=not outcome.suppressed))

    check()
    assert 4 * sum(decided) >= len(decided)
