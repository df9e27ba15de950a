"""Tests for the draw-and-destroy overlay attack."""

import pytest

from repro.attacks.overlay_attack import (
    DrawAndDestroyOverlayAttack,
    OverlayAttackConfig,
)
from repro.stack import build_stack
from repro.systemui import AlertMode, NotificationOutcome
from repro.devices import device
from repro.windows import Permission, PermissionDenied
from repro.windows.geometry import Point


def launch(stack, d, remove_then_add=True):
    attack = DrawAndDestroyOverlayAttack(
        stack,
        OverlayAttackConfig(attacking_window_ms=d, remove_then_add=remove_then_add),
    )
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    attack.start()
    return attack


class TestMechanics:
    def test_requires_system_alert_window(self, analytic_stack):
        attack = DrawAndDestroyOverlayAttack(
            analytic_stack, OverlayAttackConfig(attacking_window_ms=100.0)
        )
        with pytest.raises(PermissionDenied):
            attack.start()

    def test_two_overlays_alternate(self, analytic_stack):
        attack = launch(analytic_stack, d=100.0)
        analytic_stack.run_for(1000.0)
        labels = {
            rec.detail["label"]
            for rec in analytic_stack.simulation.trace.filter(kind="wms.window_added")
            if rec.detail["owner"] == attack.package
        }
        assert len(labels) == 2

    def test_exactly_one_overlay_on_screen_between_cycles(self, analytic_stack):
        attack = launch(analytic_stack, d=100.0)
        analytic_stack.run_for(1050.0)  # mid-window, well past any swap
        overlays = analytic_stack.screen.windows_of(attack.package)
        assert len(overlays) == 1

    def test_stop_removes_final_overlay(self, analytic_stack):
        attack = launch(analytic_stack, d=100.0)
        analytic_stack.run_for(1000.0)
        attack.stop()
        analytic_stack.run_for(200.0)
        assert analytic_stack.screen.windows_of(attack.package) == []
        assert analytic_stack.simulation.scheduler.dispatched_count > 50

    def test_cycle_counter(self, analytic_stack):
        attack = launch(analytic_stack, d=100.0)
        analytic_stack.run_for(950.0)
        assert attack.stats.cycles == 10  # ticks at 0,100,...,900
        attack.stop()

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            OverlayAttackConfig(attacking_window_ms=0.0)

    def test_double_start_and_stop_are_idempotent(self, analytic_stack):
        attack = launch(analytic_stack, d=100.0)
        attack.start()
        analytic_stack.run_for(300.0)
        attack.stop()
        attack.stop()


class TestAlertSuppression:
    def test_suppressed_below_bound(self, analytic_stack):
        bound = analytic_stack.profile.published_upper_bound_d  # 330 ms
        launch(analytic_stack, d=bound - 30.0)
        analytic_stack.run_for(4000.0)
        assert analytic_stack.system_ui.worst_outcome() is NotificationOutcome.LAMBDA1

    def test_visible_above_bound(self, analytic_stack):
        bound = analytic_stack.profile.published_upper_bound_d
        launch(analytic_stack, d=bound + 40.0)
        analytic_stack.run_for(4000.0)
        assert analytic_stack.system_ui.worst_outcome() > NotificationOutcome.LAMBDA1

    def test_add_first_variant_fails(self):
        # "If addView is performed before removeView, there is a much
        # higher chance that O2 shows up before O1 is removed ... and the
        # attack fails" (Section III-C Step 2).
        stack = build_stack(seed=5, profile=device("mate20"),
                            alert_mode=AlertMode.ANALYTIC)
        launch(stack, d=100.0, remove_then_add=False)
        stack.run_for(4000.0)
        assert stack.system_ui.worst_outcome() > NotificationOutcome.LAMBDA1

    def test_remove_then_add_succeeds_same_device(self):
        stack = build_stack(seed=5, profile=device("mate20"),
                            alert_mode=AlertMode.ANALYTIC)
        launch(stack, d=100.0, remove_then_add=True)
        stack.run_for(4000.0)
        assert stack.system_ui.worst_outcome() is NotificationOutcome.LAMBDA1


class TestTouchInterception:
    def test_overlay_captures_taps(self, analytic_stack):
        attack = launch(analytic_stack, d=150.0)
        analytic_stack.run_for(75.0)  # overlay up, mid-window
        analytic_stack.touch.tap(Point(500, 1000))
        analytic_stack.run_for(50.0)
        assert attack.stats.captured_count == 1
        assert attack.stats.touches_captured[0].point == Point(500, 1000)

    def test_on_captured_callback(self, analytic_stack):
        seen = []
        attack = DrawAndDestroyOverlayAttack(
            analytic_stack, OverlayAttackConfig(attacking_window_ms=150.0),
            on_captured=seen.append,
        )
        analytic_stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
        attack.start()
        analytic_stack.run_for(75.0)
        analytic_stack.touch.tap(Point(100, 100))
        assert len(seen) == 1

    def test_tap_in_mistouch_gap_goes_elsewhere(self):
        # On Android 10 the gap Tmis ~ 4 ms: a tap timed inside it lands on
        # whatever is beneath, not the attacker's overlay.
        stack = build_stack(seed=3, profile=device("pixel 4"),
                            alert_mode=AlertMode.ANALYTIC)
        attack = launch(stack, d=100.0)
        stack.run_for(50.0)
        captured_before = attack.stats.captured_count
        # The swap happens at each 100 ms tick: remove effective ~Trm (6.5)
        # after, add effective ~Tam+Tas (10.5) after. Tap inside the gap.
        stack.run_until(100.0 + 8.5)
        stack.touch.tap(Point(500, 1000))
        stack.run_for(50.0)
        assert attack.stats.captured_count == captured_before

    def test_tap_just_before_gap_is_captured_but_cancelled(self):
        # Coordinates reach the overlay at finger-down even when the swap
        # then cancels the committed gesture — the asymmetry separating
        # Table III (down capture) from Fig. 7 (committed capture).
        stack = build_stack(seed=3, profile=device("pixel 4"),
                            alert_mode=AlertMode.ANALYTIC)
        attack = launch(stack, d=100.0)
        stack.run_for(50.0)
        stack.run_until(100.0 + 4.0)  # 2.5 ms before the remove lands
        record = stack.touch.tap(Point(500, 1000), commit_ms=12.0)
        stack.run_for(50.0)
        assert attack.stats.captured_count == 1
        assert not record.committed
