"""Chaos/property tests of the deterministic fault-injection layer.

Three families of properties:

* **determinism** — the same seed and fault profile always produce a
  bit-identical trace, and a zero-magnitude profile is indistinguishable
  from running with no fault layer at all;
* **kernel invariants** — under *every* profile, no event is ever lost
  (``scheduled == dispatched + cancelled + pending``) and the trace's
  timestamps never go backwards;
* **graceful degradation** — as the adversarial profile is scaled up, the
  attack's committed capture rate falls (within CI-sized slack per step)
  and its actual mistouch exposure ``Tmis`` grows strictly.

Plus unit coverage of :mod:`repro.sim.faults` itself (including the
frame-fault sub-stream independence of ``render_time``) and the
regression pin for :meth:`TraceLog.record` notifying subscribers while
disabled.
"""

from dataclasses import replace

import pytest

from repro.analysis.uncovered_time import measure_overlay_coverage
from repro.attacks.overlay_attack import (
    DrawAndDestroyOverlayAttack,
    OverlayAttackConfig,
)
from repro.experiments.scenarios import run_capture_trial
from repro.sim.faults import (
    ADVERSARIAL,
    MILD,
    NONE,
    PIXEL_LOADED,
    PROFILES,
    FaultPlan,
    FaultProfile,
    default_profile_name,
    plan_for,
    profile,
    set_default_profile,
    use_default_profile,
)
from repro.sim.rng import SeededRng
from repro.sim.simulation import Simulation
from repro.sim.tracing import TraceLog
from repro.stack import build_stack
from repro.systemui import AlertMode
from repro.toast.toast import reset_toast_ids
from repro.toast.token_queue import reset_token_ids
from repro.users.participant import generate_participants
from repro.windows import Permission
from repro.windows.geometry import Point
from repro.windows.window import reset_window_ids

ALL_PROFILE_NAMES = sorted(PROFILES)
FAULTY_PROFILE_NAMES = [n for n in ALL_PROFILE_NAMES if n != "none"]


def traced_attack_run(seed, faults, duration_ms=3000.0):
    """One standard attack-plus-taps scenario; returns the finished stack.

    Window/toast/token ids come from process-global counters that leak
    into the trace, so they are reset first — the same normalization the
    parallel experiment runner performs before each experiment.
    """
    reset_toast_ids()
    reset_token_ids()
    reset_window_ids()
    stack = build_stack(seed=seed, alert_mode=AlertMode.ANALYTIC,
                        trace_enabled=True, faults=faults)
    attack = DrawAndDestroyOverlayAttack(
        stack, OverlayAttackConfig(attacking_window_ms=120.0)
    )
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    attack.start()
    while stack.now < duration_ms:
        stack.run_for(300.0)
        stack.touch.tap(Point(540.0, 1200.0))
    attack.stop()
    stack.run_for(500.0)
    return stack


def fingerprint(stack):
    """The trace as a hashable value: equal iff bit-identical."""
    return tuple(
        (rec.time, rec.source, rec.kind, repr(sorted(rec.detail.items())))
        for rec in stack.simulation.trace
    )


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("name", ALL_PROFILE_NAMES)
    def test_same_seed_same_profile_bit_identical_trace(self, name):
        first = fingerprint(traced_attack_run(seed=42, faults=name))
        second = fingerprint(traced_attack_run(seed=42, faults=name))
        assert first == second

    def test_zero_magnitude_profile_identical_to_no_fault_layer(self):
        # `scaled(0)` is a no-op profile; no-op regimes install nothing,
        # so the run is the same *bit for bit*, not just statistically.
        bare = fingerprint(traced_attack_run(seed=42, faults=None))
        named_none = fingerprint(traced_attack_run(seed=42, faults="none"))
        scaled_zero = fingerprint(
            traced_attack_run(seed=42, faults=ADVERSARIAL.scaled(0.0))
        )
        assert bare == named_none == scaled_zero

    def test_faults_actually_perturb_the_run(self):
        bare = fingerprint(traced_attack_run(seed=42, faults=None))
        noisy = fingerprint(traced_attack_run(seed=42, faults="adversarial"))
        assert bare != noisy

    def test_different_profiles_diverge(self):
        mild = fingerprint(traced_attack_run(seed=42, faults="mild"))
        adversarial = fingerprint(
            traced_attack_run(seed=42, faults="adversarial")
        )
        assert mild != adversarial


# ---------------------------------------------------------------------------
# Kernel invariants under every profile
# ---------------------------------------------------------------------------

class TestKernelInvariants:
    @pytest.mark.parametrize("name", ALL_PROFILE_NAMES)
    def test_no_event_is_ever_lost(self, name):
        stack = traced_attack_run(seed=7, faults=name)
        scheduler = stack.simulation.scheduler
        assert scheduler.scheduled_count == (
            scheduler.dispatched_count
            + scheduler.cancelled_count
            + scheduler.pending_count
        )
        assert scheduler.dispatched_count > 0

    @pytest.mark.parametrize("name", ALL_PROFILE_NAMES)
    def test_trace_timestamps_never_go_backwards(self, name):
        stack = traced_attack_run(seed=7, faults=name)
        times = [rec.time for rec in stack.simulation.trace]
        assert times, "scenario produced an empty trace"
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_gc_pauses_defer_events_not_drop_them(self):
        stack = traced_attack_run(seed=7, faults="adversarial")
        plan = stack.simulation.faults
        assert plan.events_deferred_by_gc > 0
        # Deferral only delays: the accounting above already proved none
        # were lost, and the clock ends past the requested horizon.
        assert stack.now >= 3500.0


# ---------------------------------------------------------------------------
# Graceful degradation as noise grows
# ---------------------------------------------------------------------------

class TestMonotoneDegradation:
    FACTORS = (0.0, 0.5, 1.0, 2.0)

    def _mean_capture_rate(self, factor):
        fault_profile = ADVERSARIAL.scaled(factor)
        pool = generate_participants(
            SeededRng(5, "prop-participants"), count=3
        )
        captured = total = 0
        for participant in pool:
            stream = SeededRng(5, f"prop/{participant.participant_id}")
            for _ in range(3):
                seed = stream.randint(0, 2**31 - 1)
                trial = run_capture_trial(
                    participant, 100.0, seed=seed, n_chars=8,
                    faults=fault_profile,
                )
                captured += trial.committed_to_overlay
                total += trial.total_taps
        return 100.0 * captured / total

    def test_capture_rate_degrades_monotonically_within_ci_slack(self):
        rates = [self._mean_capture_rate(f) for f in self.FACTORS]
        # Small samples jitter; each step tolerates a 10-percentage-point
        # rise, but the sweep as a whole must decline substantially.
        for factor, previous, current in zip(
            self.FACTORS[1:], rates, rates[1:]
        ):
            assert current <= previous + 10.0, (
                f"capture rate rose beyond slack at factor {factor}: "
                f"{previous:.1f}% -> {current:.1f}% (rates: {rates})"
            )
        assert rates[-1] < rates[0] - 10.0

    def _tmis(self, factor, seed=11):
        stack = build_stack(
            seed=seed, alert_mode=AlertMode.ANALYTIC, trace_enabled=True,
            faults=ADVERSARIAL.scaled(factor),
        )
        attack = DrawAndDestroyOverlayAttack(
            stack, OverlayAttackConfig(attacking_window_ms=100.0)
        )
        stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
        attack.start()
        stack.run_for(4000.0)
        end = stack.now
        attack.stop()
        stack.run_for(500.0)
        timeline = measure_overlay_coverage(
            stack.simulation.trace, attack.package, 0.0, end
        )
        intervals = timeline.covered_intervals
        gaps = [
            later_start - earlier_end
            for (_, earlier_end), (later_start, _) in zip(
                intervals, intervals[1:]
            )
        ]
        return sum(gaps) / len(gaps), timeline.uncovered_ms

    def test_mistouch_exposure_grows_strictly_with_noise(self):
        measurements = [self._tmis(f) for f in self.FACTORS]
        tmis_values = [m[0] for m in measurements]
        uncovered_values = [m[1] for m in measurements]
        assert all(a < b for a, b in zip(tmis_values, tmis_values[1:])), (
            f"Tmis not strictly increasing: {tmis_values}"
        )
        assert all(
            a < b for a, b in zip(uncovered_values, uncovered_values[1:])
        ), f"uncovered time not strictly increasing: {uncovered_values}"


# ---------------------------------------------------------------------------
# FaultProfile / FaultPlan units
# ---------------------------------------------------------------------------

def make_plan(**kwargs):
    return FaultPlan(FaultProfile(name="test", **kwargs), SeededRng(3, "f"))


class TestFaultProfile:
    def test_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FaultProfile(name="x", frame_jitter_ms=-1.0)
        with pytest.raises(ValueError):
            FaultProfile(name="x", frame_drop_probability=0.95)
        with pytest.raises(ValueError):
            FaultProfile(name="x", distribution="cauchy")
        with pytest.raises(ValueError):
            FaultProfile(name="x", gc_period_ms=100.0)  # pause missing
        with pytest.raises(ValueError):
            FaultProfile(name="x", gc_pause_ms=10.0)  # period missing

    def test_scaled_zero_is_noop(self):
        assert ADVERSARIAL.scaled(0.0).is_noop
        assert not ADVERSARIAL.scaled(0.01).is_noop

    def test_scaled_caps_probabilities(self):
        scaled = ADVERSARIAL.scaled(100.0)
        assert scaled.frame_drop_probability == 0.9
        assert scaled.binder_drop_probability == 0.9

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            MILD.scaled(-1.0)

    def test_named_profiles_are_registered(self):
        assert PROFILES["none"] is NONE
        assert PROFILES["mild"] is MILD
        assert PROFILES["pixel-loaded"] is PIXEL_LOADED
        assert PROFILES["adversarial"] is ADVERSARIAL
        assert NONE.is_noop

    def test_profile_lookup_error_lists_names(self):
        with pytest.raises(KeyError, match="adversarial"):
            profile("hurricane")


class TestPlanFor:
    def test_noop_regimes_install_nothing(self):
        rng = SeededRng(1, "r")
        assert plan_for("none", rng) is None
        assert plan_for(NONE, rng) is None
        assert plan_for(MILD.scaled(0.0), rng) is None

    def test_active_regimes_produce_a_plan(self):
        plan = plan_for("adversarial", SeededRng(1, "r"))
        assert isinstance(plan, FaultPlan)
        assert plan.profile is ADVERSARIAL

    def test_existing_plan_passes_through(self):
        plan = FaultPlan(MILD, SeededRng(1, "r"))
        assert plan_for(plan, SeededRng(2, "other")) is plan

    def test_none_resolves_through_ambient_default(self):
        assert default_profile_name() == "none"
        assert plan_for(None, SeededRng(1, "r")) is None
        with use_default_profile("mild"):
            plan = plan_for(None, SeededRng(1, "r"))
            assert plan.profile is MILD
        assert default_profile_name() == "none"

    def test_ambient_default_validates_eagerly(self):
        with pytest.raises(KeyError):
            set_default_profile("no-such-profile")
        assert default_profile_name() == "none"


class TestFaultPlan:
    def test_inactive_classes_inject_nothing(self):
        plan = make_plan(binder_jitter_ms=2.0)
        assert plan.frame_delay() == 0.0
        assert plan.drop_frame() is False
        assert plan.render_time(123.4) == 123.4
        assert plan.drop_binder() is False
        assert not plan.perturbs_dispatch

    def test_render_time_is_pure_and_order_independent(self):
        plan = make_plan(frame_jitter_ms=5.0, frame_drop_probability=0.3)
        forward = [plan.render_time(t) for t in (10.0, 250.0, 990.0)]
        backward = [plan.render_time(t) for t in (990.0, 250.0, 10.0)]
        assert forward == list(reversed(backward))

    def test_render_time_never_shows_the_future(self):
        plan = make_plan(frame_jitter_ms=8.0, frame_drop_probability=0.5)
        for t in range(0, 2000, 7):
            displayed = plan.render_time(float(t))
            assert 0.0 <= displayed <= float(t)

    def test_drop_frame_respects_probability_extremes(self):
        never = make_plan(frame_jitter_ms=1.0)
        assert not any(never.drop_frame() for _ in range(50))
        often = make_plan(frame_drop_probability=0.9)
        draws = [often.drop_frame() for _ in range(50)]
        assert any(draws) and not all(draws)

    def test_gc_windows_are_ordered_and_disjoint(self):
        plan = make_plan(gc_period_ms=100.0, gc_pause_ms=20.0)
        windows = plan.gc_windows_until(2000.0)
        assert windows
        for start, end in windows:
            assert 0.0 < start <= end
        for (_, earlier_end), (later_start, _) in zip(windows, windows[1:]):
            assert earlier_end <= later_start

    def test_defer_slips_to_pause_end_only_inside_a_pause(self):
        plan = make_plan(gc_period_ms=100.0, gc_pause_ms=20.0)
        start, end = plan.gc_windows_until(1000.0)[0]
        assert plan.defer_past_gc_pause(start) == end
        assert plan.defer_past_gc_pause((start + end) / 2) == end
        assert plan.defer_past_gc_pause(end) == end  # boundary: not inside
        assert plan.defer_past_gc_pause(start - 1.0) == start - 1.0

    def test_perturbation_only_ever_delays(self):
        plan = make_plan(dispatch_jitter_ms=3.0, gc_period_ms=200.0,
                         gc_pause_ms=15.0)
        assert plan.perturbs_dispatch
        for requested in (0.0, 17.5, 400.0, 1234.5):
            assert plan.perturb_event_time(requested, 0.0, "e") >= requested

    def test_install_rejects_second_plan_and_mid_run_install(self):
        from repro.sim.errors import SimulationError

        sim = Simulation(seed=1, faults=make_plan(dispatch_jitter_ms=1.0))
        with pytest.raises(SimulationError):
            sim.install_faults(make_plan(dispatch_jitter_ms=1.0))
        running = Simulation(seed=2)
        running.schedule_after(1.0, lambda: None)
        running.run_for(10.0)
        with pytest.raises(SimulationError):
            running.install_faults(make_plan(dispatch_jitter_ms=1.0))


# ---------------------------------------------------------------------------
# Query-side frame faults: what moves render_time, and what must not
# ---------------------------------------------------------------------------

RENDER_TIMES = [0.0, 3.0, 9.99, 10.0, 35.0, 111.1, 997.0, 2500.0]


def frame_draws(profile_, frames=400):
    plan = FaultPlan(profile_, SeededRng(1234, "faults"))
    return ([plan._frame_faults_at(i) for i in range(frames)],
            [plan.render_time(t) for t in RENDER_TIMES])


@pytest.mark.parametrize("perturbation", [
    {"binder_jitter_ms": 9.0},
    {"binder_drop_probability": 0.5},
    {"dispatch_jitter_ms": 7.0},
    {"gc_period_ms": 300.0, "gc_pause_ms": 50.0},
    # The frame-fault derivation always draws uniform jitter, so even the
    # distribution knob (which shapes dispatch/Binder latency) must leave
    # it untouched.
    {"distribution": "uniform"},
])
def test_other_fault_classes_do_not_shift_frame_draws(perturbation):
    assert frame_draws(replace(PIXEL_LOADED, **perturbation)) == \
        frame_draws(PIXEL_LOADED)


def test_frame_knobs_do_shift_frame_draws():
    base_rows, base_times = frame_draws(PIXEL_LOADED, frames=64)
    rows, times = frame_draws(replace(PIXEL_LOADED, frame_jitter_ms=9.0),
                              frames=64)
    assert rows != base_rows
    assert times != base_times


def test_frame_quiet_profiles_make_render_time_the_identity():
    dispatch_only = replace(NONE, name="dispatch-only", dispatch_jitter_ms=2.0)
    for quiet in (NONE, dispatch_only):
        plan = FaultPlan(quiet, SeededRng(1234, "faults"))
        assert [plan.render_time(t) for t in RENDER_TIMES] == RENDER_TIMES


# ---------------------------------------------------------------------------
# TraceLog regression: subscribers outlive disable()
# ---------------------------------------------------------------------------

class TestTraceSubscribersWhileDisabled:
    def test_subscribers_fire_even_when_recording_is_disabled(self):
        # The IPC defense monitor subscribes to the trace-adjacent router
        # observer *and* experiments run with trace_enabled=False; the
        # analogous TraceLog contract is that disabling recording must not
        # silence live subscribers.
        log = TraceLog(enabled=False)
        seen = []
        log.subscribe(seen.append)
        log.record(1.0, "src", "kind", value=7)
        assert len(log) == 0          # nothing stored...
        assert len(seen) == 1         # ...but the subscriber heard it
        assert seen[0].detail == {"value": 7}

    def test_disable_mid_run_keeps_notifying(self):
        log = TraceLog(enabled=True)
        seen = []
        log.subscribe(seen.append)
        log.record(1.0, "src", "a")
        log.disable()
        log.record(2.0, "src", "b")
        assert [rec.kind for rec in log] == ["a"]
        assert [rec.kind for rec in seen] == ["a", "b"]
