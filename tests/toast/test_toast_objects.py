"""Tests for toast objects, their opacity timeline, and the token queue."""

import pytest

from repro.experiments import SMOKE, compare_toast_durations
from repro.toast import (
    MAX_TOASTS_PER_APP,
    TOAST_LENGTH_LONG_MS,
    TOAST_LENGTH_SHORT_MS,
    Toast,
    ToastToken,
    ToastTokenQueue,
)
from repro.windows.geometry import Rect

RECT = Rect(0, 1400, 1080, 2160)


def make_toast(duration=TOAST_LENGTH_LONG_MS, owner="app"):
    return Toast(owner=owner, content="x", rect=RECT, duration_ms=duration)


class TestToastDurations:
    def test_allowed_durations(self):
        make_toast(TOAST_LENGTH_SHORT_MS)
        make_toast(TOAST_LENGTH_LONG_MS)

    def test_arbitrary_duration_rejected(self):
        # Android only offers LENGTH_SHORT / LENGTH_LONG.
        with pytest.raises(ValueError):
            make_toast(10_000.0)

    def test_long_toasts_switch_less(self):
        # Section IV-D: over the same attack period, 3.5 s toasts need
        # fewer switches than 2 s ones, which is why the attack uses them.
        short, long = compare_toast_durations(SMOKE)
        assert len(short.switches) > len(long.switches)


class TestAlphaTimeline:
    def test_zero_before_shown(self):
        toast = make_toast()
        assert toast.alpha_at(100.0) == 0.0
        toast.shown_at = 1000.0
        assert toast.alpha_at(999.9) == 0.0

    def test_fade_in_is_fast_at_start(self):
        toast = make_toast()
        toast.shown_at = 0.0
        # Decelerate: at 10% of the fade it is already ~19% opaque.
        assert toast.alpha_at(50.0) == pytest.approx(0.19, abs=0.01)

    def test_fully_opaque_after_fade_in(self):
        toast = make_toast()
        toast.shown_at = 0.0
        assert toast.alpha_at(500.0) == 1.0
        assert toast.alpha_at(2000.0) == 1.0

    def test_fade_out_is_slow_at_start(self):
        toast = make_toast()
        toast.shown_at = 0.0
        toast.fade_out_start = 3500.0
        # Accelerate: 10% into the fade only ~1% opacity lost.
        assert toast.alpha_at(3550.0) == pytest.approx(0.99, abs=0.005)

    def test_zero_after_removal(self):
        toast = make_toast()
        toast.shown_at = 0.0
        toast.fade_out_start = 3500.0
        toast.removed_at = 4000.0
        assert toast.alpha_at(4000.0) == 0.0
        assert toast.alpha_at(3999.9) < 0.05

    def test_cancelled_during_fade_in_takes_min(self):
        toast = make_toast()
        toast.shown_at = 0.0
        toast.fade_out_start = 100.0  # cancelled very early
        # Both fade-in (rising) and fade-out (falling) apply; alpha must
        # not exceed what the fade-in had reached.
        alpha = toast.alpha_at(150.0)
        assert alpha <= 1.0 - (1.0 - 150.0 / 500.0) ** 2 + 1e-9


class TestTokenQueue:
    def test_fifo_order(self):
        queue = ToastTokenQueue()
        tokens = [ToastToken(app="a", toast=make_toast()) for _ in range(3)]
        for token in tokens:
            assert queue.enqueue(token)
        assert [queue.dequeue() for _ in range(3)] == tokens

    def test_per_app_cap_enforced(self):
        # "the number of tokens associated with one app in the queue should
        # be no more than 50" (Section IV-C).
        queue = ToastTokenQueue()
        for i in range(MAX_TOASTS_PER_APP):
            assert queue.enqueue(ToastToken(app="a", toast=make_toast()))
        assert not queue.enqueue(ToastToken(app="a", toast=make_toast()))
        assert queue.rejected_for("a") == 1
        # Other apps are unaffected by a's cap.
        assert queue.enqueue(ToastToken(app="b", toast=make_toast()))

    def test_depth_tracking(self):
        queue = ToastTokenQueue()
        queue.enqueue(ToastToken(app="a", toast=make_toast()))
        queue.enqueue(ToastToken(app="a", toast=make_toast()))
        assert queue.depth_for("a") == 2
        queue.dequeue()
        assert queue.depth_for("a") == 1

    def test_dequeue_empty_returns_none(self):
        assert ToastTokenQueue().dequeue() is None

    def test_remove_toast_by_id(self):
        queue = ToastTokenQueue()
        first, second = make_toast(), make_toast()
        queue.enqueue(ToastToken(app="a", toast=first))
        queue.enqueue(ToastToken(app="a", toast=second))
        assert queue.remove_toast(first.toast_id)
        assert queue.depth_for("a") == 1
        assert queue.dequeue().toast is second
        assert not queue.remove_toast(999999)

    def test_remove_app_drops_all(self):
        queue = ToastTokenQueue()
        for _ in range(3):
            queue.enqueue(ToastToken(app="a", toast=make_toast()))
        queue.enqueue(ToastToken(app="b", toast=make_toast()))
        assert queue.remove_app("a") == 3
        assert len(queue) == 1

    def test_invalid_cap_raises(self):
        with pytest.raises(ValueError):
            ToastTokenQueue(max_per_app=0)
