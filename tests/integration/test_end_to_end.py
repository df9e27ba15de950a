"""Cross-module integration tests: full-stack behaviour and determinism."""

import pytest

from repro import (
    AlertMode,
    DrawAndDestroyOverlayAttack,
    DrawAndDestroyToastAttack,
    NotificationOutcome,
    OverlayAttackConfig,
    Permission,
    ToastAttackConfig,
    build_stack,
    device,
)
from repro.defenses import EnhancedNotificationDefense, IpcDetector
from repro.experiments.scenarios import run_password_trial
from repro.sim import SeededRng
from repro.users import generate_participants
from repro.windows.geometry import Point, Rect


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        """The whole point of a seeded DES: bit-identical reruns."""
        def run(seed):
            stack = build_stack(seed=seed, alert_mode=AlertMode.ANALYTIC)
            attack = DrawAndDestroyOverlayAttack(
                stack, OverlayAttackConfig(attacking_window_ms=120.0)
            )
            stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
            attack.start()
            stack.run_for(3000.0)
            attack.stop()
            stack.run_for(500.0)
            return [
                (round(r.time, 9), r.source, r.kind)
                for r in stack.simulation.trace
            ]

        assert run(123) == run(123)
        assert run(123) != run(124)

    def test_password_trial_deterministic(self):
        pool = generate_participants(SeededRng(3, "det"), count=1)
        a = run_password_trial(pool[0], "aB1!", seed=55)
        b = run_password_trial(pool[0], "aB1!", seed=55)
        assert a.derived == b.derived
        assert a.error_type == b.error_type


class TestCombinedAttacks:
    def test_both_attacks_coexist(self):
        """Toast fake keyboard + overlay interception simultaneously."""
        stack = build_stack(seed=77, alert_mode=AlertMode.ANALYTIC)
        rect = Rect(0, 1400, 1080, 2160)
        toast_attack = DrawAndDestroyToastAttack(
            stack, ToastAttackConfig(rect=rect),
            content_provider=lambda: "fake-kbd",
            package="com.mal", process_name="com.mal#toast",
        )
        overlay_attack = DrawAndDestroyOverlayAttack(
            stack, OverlayAttackConfig(attacking_window_ms=150.0,
                                       overlay_rect=rect),
            package="com.mal", process_name="com.mal#overlay",
        )
        stack.permissions.grant("com.mal", Permission.SYSTEM_ALERT_WINDOW)
        toast_attack.start()
        overlay_attack.start()
        stack.run_for(2000.0)
        # The overlay sits above the toast: a tap in the keyboard area is
        # captured by the overlay while the toast stays visible beneath.
        stack.touch.tap(Point(540, 1800))
        stack.run_for(100.0)
        assert overlay_attack.stats.captured_count == 1
        assert toast_attack.coverage_at(stack.now) > 0.9
        assert stack.system_ui.worst_outcome() is NotificationOutcome.LAMBDA1
        overlay_attack.stop()
        toast_attack.stop()

    def test_defense_stack_defeats_combined_attack(self):
        """Enhanced notification + IPC detector both trip on the attack."""
        stack = build_stack(seed=78, alert_mode=AlertMode.ANALYTIC)
        EnhancedNotificationDefense(stack.system_server).install()
        detector = IpcDetector(stack.router, stack.system_server)
        attack = DrawAndDestroyOverlayAttack(
            stack, OverlayAttackConfig(attacking_window_ms=150.0)
        )
        stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
        attack.start()
        stack.run_for(10_000.0)
        assert detector.is_flagged(attack.package)
        assert stack.system_ui.worst_outcome() > NotificationOutcome.LAMBDA1
        assert stack.screen.windows_of(attack.package) == []


class TestCrossDeviceBehaviour:
    @pytest.mark.parametrize("model,version", [
        ("s8", None), ("mi8", "9"), ("mi8", "10"), ("pixel 2", None),
    ])
    def test_attack_suppressed_at_half_bound_everywhere(self, model, version):
        profile = device(model, version)
        stack = build_stack(seed=9, profile=profile, alert_mode=AlertMode.ANALYTIC)
        attack = DrawAndDestroyOverlayAttack(
            stack,
            OverlayAttackConfig(
                attacking_window_ms=profile.published_upper_bound_d * 0.5
            ),
        )
        stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
        attack.start()
        stack.run_for(3000.0)
        assert stack.system_ui.worst_outcome() is NotificationOutcome.LAMBDA1

    def test_same_d_works_on_slow_device_fails_on_fast(self):
        """D = 150 ms is safe on the Redmi (bound 395) but exposes the
        alert on the s8 (bound 60) — device-awareness matters, which is
        why the malware 'can collect the phone information before
        launching the attack' (Section VI-B)."""
        outcomes = {}
        for model in ("Redmi", "s8"):
            stack = build_stack(seed=10, profile=device(model),
                                alert_mode=AlertMode.ANALYTIC)
            attack = DrawAndDestroyOverlayAttack(
                stack, OverlayAttackConfig(attacking_window_ms=150.0)
            )
            stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
            attack.start()
            stack.run_for(3000.0)
            outcomes[model] = stack.system_ui.worst_outcome()
        assert outcomes["Redmi"] is NotificationOutcome.LAMBDA1
        assert outcomes["s8"] > NotificationOutcome.LAMBDA1


class TestFrameModeParity:
    def test_frame_mode_costs_more_events_than_analytic(self):
        # The ablation behind AlertMode.ANALYTIC for sweeps. D = 420 ms is
        # above the device's bound, so the alert actually animates (a
        # suppressed alert never reaches System UI in either mode).
        events = []
        for mode in (AlertMode.FRAME, AlertMode.ANALYTIC):
            stack = build_stack(seed=1, alert_mode=mode, trace_enabled=False)
            attack = DrawAndDestroyOverlayAttack(
                stack, OverlayAttackConfig(attacking_window_ms=420.0)
            )
            stack.permissions.grant(attack.package,
                                    Permission.SYSTEM_ALERT_WINDOW)
            attack.start()
            stack.run_for(2000.0)
            attack.stop()
            stack.run_for(100.0)
            events.append(stack.simulation.scheduler.dispatched_count)
        assert events[0] > events[1]

    def test_full_attack_same_outcome_in_frame_mode(self):
        outcomes = []
        for mode in (AlertMode.FRAME, AlertMode.ANALYTIC):
            stack = build_stack(seed=11, alert_mode=mode)
            attack = DrawAndDestroyOverlayAttack(
                stack, OverlayAttackConfig(attacking_window_ms=250.0)
            )
            stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
            attack.start()
            stack.run_for(2500.0)
            attack.stop()
            stack.run_for(500.0)
            outcomes.append(stack.system_ui.worst_outcome())
        assert outcomes[0] == outcomes[1]
