"""Frame-driven animator running on the simulation clock.

Android renders animations as discrete frames separated by the display
refresh interval (10 ms by default per the Android developer guides, as the
paper cites in Section III-B). The attacker's window exists *because*
animations are frame-quantized and eased: completeness between frames is
irrelevant — only what a frame actually draws can be seen.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..sim.event import Event
from ..sim.simulation import Simulation
from .interpolators import Interpolator
from .kernels import frame_table, rendered_pixels

#: Android's ANIMATION_DURATION_STANDARD (ms) — notification slide-in.
ANIMATION_DURATION_STANDARD = 360.0

#: Duration of the toast fade-in and fade-out animations (ms).
TOAST_ANIMATION_DURATION = 500.0

#: Default interval between animation frames (ms).
DEFAULT_REFRESH_INTERVAL = 10.0


class AnimationState(enum.Enum):
    """Lifecycle of an :class:`Animator`."""

    IDLE = "idle"
    RUNNING = "running"
    FINISHED = "finished"
    CANCELLED = "cancelled"
    REVERSING = "reversing"
    REVERSED = "reversed"


FrameCallback = Callable[[float], None]
DoneCallback = Callable[[], None]


class Animator:
    """Plays an eased animation as scheduled frames on the simulation clock.

    The animator reports *rendered* progress: ``progress`` only changes when
    a frame fires. ``max_progress`` records the high-water mark, which the
    outcome classifier (paper Fig. 6) uses to decide how much of the
    notification view a user could ever have seen.
    """

    def __init__(
        self,
        simulation: Simulation,
        interpolator: Interpolator,
        duration_ms: float,
        refresh_interval_ms: float = DEFAULT_REFRESH_INTERVAL,
        on_frame: Optional[FrameCallback] = None,
        on_finished: Optional[DoneCallback] = None,
        name: str = "animator",
    ) -> None:
        if duration_ms <= 0:
            raise ValueError(f"duration must be positive, got {duration_ms}")
        if refresh_interval_ms <= 0:
            raise ValueError(f"refresh interval must be positive, got {refresh_interval_ms}")
        self._simulation = simulation
        self._interpolator = interpolator
        self._duration = float(duration_ms)
        self._refresh = float(refresh_interval_ms)
        self._on_frame = on_frame
        self._on_finished = on_finished
        self._name = name

        self._state = AnimationState.IDLE
        self._start_time: Optional[float] = None
        self._progress = 0.0
        self._max_progress = 0.0
        self._frames_rendered = 0
        self._frames_dropped = 0
        self._pending: Optional[Event] = None
        # Reverse playback bookkeeping.
        self._reverse_from = 0.0
        self._reverse_start: Optional[float] = None
        # Frame accounting for the metrics plane. Imported lazily: the
        # compositor (which owns the metric names) imports toast code that
        # imports this module.
        if simulation.metrics is not None:
            from ..windows.compositor import frame_instruments

            self._m_frames = frame_instruments(simulation.metrics)
        else:
            self._m_frames = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> AnimationState:
        return self._state

    @property
    def progress(self) -> float:
        """Most recently *rendered* completeness fraction."""
        return self._progress

    @property
    def max_progress(self) -> float:
        """Highest completeness ever rendered (survives cancel/reverse)."""
        return self._max_progress

    @property
    def frames_rendered(self) -> int:
        return self._frames_rendered

    @property
    def frames_dropped(self) -> int:
        """Frames skipped by the fault layer (0 in fault-free runs)."""
        return self._frames_dropped

    @property
    def duration_ms(self) -> float:
        return self._duration

    @property
    def interpolator(self) -> Interpolator:
        return self._interpolator

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin forward playback; frames fire every refresh interval."""
        if self._state is AnimationState.RUNNING:
            return
        self._state = AnimationState.RUNNING
        self._start_time = self._simulation.now
        self._schedule_next_frame()

    def cancel(self) -> None:
        """Stop playback immediately, freezing rendered progress."""
        self._drop_pending()
        if self._state in (AnimationState.RUNNING, AnimationState.REVERSING):
            self._state = AnimationState.CANCELLED

    def reverse(self) -> None:
        """Play back from current rendered progress down to zero.

        This models ``startTopAnimation`` removing the notification view "in
        a reverse way" (paper Section III-C Step 3).
        """
        self._drop_pending()
        if self._progress <= 0.0:
            self._state = AnimationState.REVERSED
            self._finish(reverse=True)
            return
        self._state = AnimationState.REVERSING
        self._reverse_from = self._progress
        self._reverse_start = self._simulation.now
        self._schedule_next_frame()

    # ------------------------------------------------------------------
    # Frame machinery
    # ------------------------------------------------------------------
    def _schedule_next_frame(self) -> None:
        delay = self._refresh
        plan = self._simulation.faults
        if plan is not None:
            # Render jitter: the next vsync callback lands late. The
            # animation still samples its eased curve at the *actual*
            # frame time, so jitter skips portions of the curve — exactly
            # what a janky real device does.
            delay += plan.frame_delay()
        self._pending = self._simulation.schedule_after(
            delay, self._frame, name=f"{self._name}:frame"
        )

    def _drop_pending(self) -> None:
        if self._pending is not None:
            self._pending.cancel_if_pending()
            self._pending = None

    def _frame(self) -> None:
        self._pending = None
        plan = self._simulation.faults
        if plan is not None and plan.drop_frame():
            # Dropped frame: nothing is rendered, but the machinery keeps
            # going — the next frame is scheduled even past the nominal
            # end, so the animation always terminates (drop probability is
            # capped below 1).
            self._frames_dropped += 1
            if self._m_frames is not None:
                self._m_frames[1].inc()
            if self._state in (AnimationState.RUNNING, AnimationState.REVERSING):
                self._schedule_next_frame()
            return
        if self._state is AnimationState.RUNNING:
            assert self._start_time is not None
            elapsed = self._simulation.now - self._start_time
            x = min(elapsed / self._duration, 1.0)
            self._render(self._interpolator.value(x))
            if x >= 1.0:
                self._state = AnimationState.FINISHED
                self._finish(reverse=False)
            else:
                self._schedule_next_frame()
        elif self._state is AnimationState.REVERSING:
            assert self._reverse_start is not None
            elapsed = self._simulation.now - self._reverse_start
            # Reverse playback retraces the eased curve proportionally to
            # how far in the animation had progressed.
            span = self._reverse_from * self._duration
            x = 1.0 - min(elapsed / span, 1.0) if span > 0 else 0.0
            self._render(self._reverse_from * x)
            if x <= 0.0:
                self._state = AnimationState.REVERSED
                self._finish(reverse=True)
            else:
                self._schedule_next_frame()

    def _render(self, completeness: float) -> None:
        self._progress = completeness
        if completeness > self._max_progress:
            self._max_progress = completeness
        self._frames_rendered += 1
        if self._m_frames is not None:
            self._m_frames[0].inc()
        if self._on_frame is not None:
            self._on_frame(completeness)

    def _finish(self, reverse: bool) -> None:
        if not reverse and self._on_finished is not None:
            self._on_finished()

    # ------------------------------------------------------------------
    # Static timing analysis
    # ------------------------------------------------------------------
    def first_visible_frame_time(self, view_height_px: int) -> float:
        """Time (ms after start) of the first frame drawing >= 1 pixel.

        A frame at elapsed time ``t`` renders ``round(height * value(t/dur))``
        pixels; Android rounds sub-pixel heights down to nothing, which is
        why the very first frames of the FastOutSlowIn slide-in show zero
        pixels (paper Section III-B, the 72 px / 0.17% example).
        """
        return first_visible_frame_time(
            self._interpolator, self._duration, self._refresh, view_height_px
        )


# ``rendered_pixels`` is imported from ``.kernels`` above and re-exported
# here unchanged so existing importers keep working; the pixel math
# (including the documented [0, 1] clamp) lives in one place.


def first_visible_frame_time(
    interpolator: Interpolator,
    duration_ms: float,
    refresh_interval_ms: float,
    view_height_px: int,
) -> float:
    """Earliest frame time (ms after animation start) rendering >= 1 px.

    A zero-duration animation renders the complete view on its very first
    frame, so the answer is 0.0 when the view has any pixels at full
    completeness (and the usual "never visible" error otherwise).
    """
    t = frame_table(
        interpolator, duration_ms, refresh_interval_ms, view_height_px
    ).first_visible_time_ms()
    if t is None:
        raise ValueError(
            f"animation never renders a visible pixel of a "
            f"{view_height_px}px view"
        )
    return t
