"""Tests for the Notification Manager Service's serialized toast display."""

import pytest

from repro.toast import Toast, analyze_switches
from repro.windows.geometry import Rect
from repro.windows.types import WindowType

RECT = Rect(0, 1400, 1080, 2160)


def enqueue(stack, content="x", duration=2000.0, owner="app"):
    toast = Toast(owner=owner, content=content, rect=RECT, duration_ms=duration)
    stack.router.transact(owner, "system_server", "enqueueToast",
                          {"toast": toast}, latency_ms=1.0)
    return toast


def cancel(stack, toast=None, owner="app"):
    payload = {} if toast is None else {"toast": toast}
    stack.router.transact(owner, "system_server", "cancelToast",
                          payload, latency_ms=1.0)


class TestDisplayLifecycle:
    def test_toast_shows_after_creation_cost(self, analytic_stack):
        toast = enqueue(analytic_stack)
        analytic_stack.run_for(100.0)
        assert toast.shown_at is not None
        windows = analytic_stack.screen.windows_of("app", WindowType.TOAST)
        assert len(windows) == 1

    def test_toast_expires_after_duration_plus_fade(self, analytic_stack):
        toast = enqueue(analytic_stack, duration=2000.0)
        analytic_stack.run_for(100.0)
        shown = toast.shown_at
        analytic_stack.run_for(2000.0 + 600.0)
        assert toast.fade_out_start == pytest.approx(shown + 2000.0)
        assert toast.removed_at == pytest.approx(toast.fade_out_start + 500.0)
        assert analytic_stack.screen.windows_of("app", WindowType.TOAST) == []

    def test_one_at_a_time_display(self, analytic_stack):
        # "the notification manager shows toasts one at a time" — the
        # second toast only shows once the first starts its fade-out.
        first = enqueue(analytic_stack, "first")
        second = enqueue(analytic_stack, "second")
        analytic_stack.run_for(1000.0)
        assert first.shown_at is not None
        assert second.shown_at is None
        analytic_stack.run_for(2000.0)
        assert second.shown_at is not None
        assert second.shown_at >= first.fade_out_start

    def test_successor_fetched_at_fade_out_start(self, analytic_stack):
        first = enqueue(analytic_stack, "first")
        second = enqueue(analytic_stack, "second")
        analytic_stack.run_for(4000.0)
        # The new toast is created while the old is still fading: the gap
        # is just the window-creation cost Tas (~10 ms), far below the
        # 500 ms fade (paper Section IV-C Step 2).
        gap = second.shown_at - first.fade_out_start
        assert 0.0 < gap < 50.0

    def test_inter_toast_gap_defense_delays_successor(self, analytic_stack):
        analytic_stack.notification_manager.inter_toast_gap_ms = 500.0
        first = enqueue(analytic_stack, "first")
        second = enqueue(analytic_stack, "second")
        analytic_stack.run_for(4000.0)
        assert second.shown_at - first.fade_out_start >= 500.0

    def test_coverage_composites_overlapping_fades(self, analytic_stack):
        enqueue(analytic_stack, "first")
        enqueue(analytic_stack, "second")
        analytic_stack.run_for(2100.0)  # mid-switch
        coverage = analytic_stack.notification_manager.coverage_at(
            analytic_stack.now, RECT
        )
        assert coverage > 0.9  # fade overlap keeps combined opacity high


class TestCancellation:
    def test_cancel_current_starts_fade_now(self, analytic_stack):
        toast = enqueue(analytic_stack, duration=3500.0)
        analytic_stack.run_for(200.0)
        cancel(analytic_stack)
        analytic_stack.run_for(10.0)
        assert toast.fade_out_start is not None
        assert toast.fade_out_start < toast.shown_at + 3500.0

    def test_cancel_queued_toast_removes_from_queue(self, analytic_stack):
        enqueue(analytic_stack, "current")
        stale = enqueue(analytic_stack, "stale")
        analytic_stack.run_for(100.0)
        cancel(analytic_stack, toast=stale)
        fresh = enqueue(analytic_stack, "fresh")
        cancel(analytic_stack)  # fade the current one
        analytic_stack.run_for(200.0)
        assert stale.shown_at is None      # never displayed
        assert fresh.shown_at is not None  # displayed instead

    def test_cancel_with_nothing_showing_is_noop(self, analytic_stack):
        cancel(analytic_stack)
        analytic_stack.run_for(10.0)  # must not crash

    def test_cancel_from_wrong_app_is_noop(self, analytic_stack):
        toast = enqueue(analytic_stack, owner="app")
        analytic_stack.run_for(100.0)
        cancel(analytic_stack, owner="other")
        analytic_stack.run_for(10.0)
        assert toast.fade_out_start is None


class TestSwitchAnalysis:
    def test_back_to_back_switch_is_shallow(self, analytic_stack):
        first = enqueue(analytic_stack, "a", duration=2000.0)
        second = enqueue(analytic_stack, "b", duration=2000.0)
        analytic_stack.run_for(6000.0)
        switches = analyze_switches([first, second])
        assert len(switches) == 1
        # Composited coverage dips only slightly mid-switch.
        assert switches[0].min_coverage > 0.9

    def test_gap_defense_produces_deep_dip(self, analytic_stack):
        analytic_stack.notification_manager.inter_toast_gap_ms = 500.0
        first = enqueue(analytic_stack, "a", duration=2000.0)
        second = enqueue(analytic_stack, "b", duration=2000.0)
        analytic_stack.run_for(7000.0)
        switches = analyze_switches([first, second])
        assert switches[0].min_coverage == pytest.approx(0.0, abs=1e-6)
        assert switches[0].time_below_threshold_ms > 200.0

    def test_fade_out_is_what_hides_the_switch(self):
        # Section IV ablation: the same back-to-back switch with the real
        # 500 ms exit fade stays covered; with a 1 ms fade (effectively
        # instant removal) it flickers. The animation is the vulnerability.
        def min_coverage(fade_ms):
            toasts = []
            for i in range(2):
                toast = Toast(owner="m", content=i, rect=RECT,
                              duration_ms=2000.0, fade_ms=fade_ms)
                toast.shown_at = i * 2010.0
                toast.fade_out_start = toast.shown_at + 2000.0
                toast.removed_at = toast.fade_out_start + fade_ms
                toasts.append(toast)
            return analyze_switches(toasts)[0].min_coverage

        assert min_coverage(500.0) > 0.9
        assert min_coverage(1.0) < 0.2
