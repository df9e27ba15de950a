"""Notification entries in the notification drawer.

An entry's rendering timeline is fully deterministic once its animation
start time is fixed: frames fire every refresh interval, the slide-in eases
along the FastOutSlowIn Bezier for 360 ms, and the message/icon render only
after the view completes. :class:`NotificationEntry` exposes that timeline
analytically (``progress_at`` / ``snapshot_at``), which lets large sweeps
classify outcomes without simulating each 10 ms frame, while the
frame-driven :class:`~repro.animation.animator.Animator` path renders the
identical values (asserted by the cross-validation tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..animation.animator import ANIMATION_DURATION_STANDARD
from ..animation.interpolators import FastOutSlowInInterpolator, Interpolator
from ..animation.kernels import frame_table
from .outcomes import NotificationOutcome, NotificationSnapshot, classify

#: Delay between the view completing and the message text starting to
#: render (layout/measure pass), ms.
MESSAGE_RENDER_DELAY_MS = 30.0
#: Time for the message text to render fully, ms.
MESSAGE_RENDER_DURATION_MS = 120.0
#: Delay after the message completes until the icon is drawn, ms.
ICON_RENDER_DELAY_MS = 60.0

_SHARED_INTERPOLATOR = FastOutSlowInInterpolator()


@dataclass
class NotificationEntry:
    """One overlay-presence alert living in the notification drawer."""

    app: str
    anim_start: float
    view_height_px: int
    refresh_interval_ms: float
    duration_ms: float = ANIMATION_DURATION_STANDARD
    interpolator: Interpolator = field(default=_SHARED_INTERPOLATOR)
    removed_at: Optional[float] = None

    def __post_init__(self) -> None:
        # One memoized per-frame table shared by every entry with the same
        # (curve, duration, refresh, height): the analytic timeline
        # quantizes queries to frame indices and reads the table's rows.
        self._table = frame_table(
            self.interpolator,
            self.duration_ms,
            self.refresh_interval_ms,
            self.view_height_px,
        )

    # ------------------------------------------------------------------
    # Analytic rendering timeline
    # ------------------------------------------------------------------
    def progress_at(self, time: float) -> float:
        """Frame-quantized slide-in completeness at ``time``.

        Only what a frame actually drew counts: progress between frames is
        invisible, which is what gives the attacker a whole extra refresh
        interval of slack."""
        elapsed = time - self.anim_start
        if elapsed < self.refresh_interval_ms:
            return 0.0
        frames = math.floor(elapsed / self.refresh_interval_ms)
        return self._table.completeness_at_frame(frames)

    def pixels_at(self, time: float) -> int:
        elapsed = time - self.anim_start
        if elapsed < self.refresh_interval_ms:
            return 0
        frames = math.floor(elapsed / self.refresh_interval_ms)
        return self._table.pixels_at_frame(frames)

    @property
    def view_complete_at(self) -> float:
        """Time the final animation frame fires."""
        frames = math.ceil(self.duration_ms / self.refresh_interval_ms)
        return self.anim_start + frames * self.refresh_interval_ms

    @property
    def message_start_at(self) -> float:
        return self.view_complete_at + MESSAGE_RENDER_DELAY_MS

    @property
    def message_complete_at(self) -> float:
        return self.message_start_at + MESSAGE_RENDER_DURATION_MS

    @property
    def icon_shown_at(self) -> float:
        return self.message_complete_at + ICON_RENDER_DELAY_MS

    def message_progress_at(self, time: float) -> float:
        if time <= self.message_start_at:
            return 0.0
        progress = (time - self.message_start_at) / MESSAGE_RENDER_DURATION_MS
        return min(progress, 1.0)

    def first_visible_at(self) -> Optional[float]:
        """Earliest time a frame renders >= 1 px, or None if the entry was
        removed before that happened."""
        frame = 1
        while True:
            t = self.anim_start + frame * self.refresh_interval_ms
            if self.removed_at is not None and t >= self.removed_at:
                return None
            if self.pixels_at(t) >= 1:
                return t
            if t >= self.view_complete_at:
                return None
            frame += 1

    # ------------------------------------------------------------------
    # Snapshots and classification
    # ------------------------------------------------------------------
    def snapshot_at(self, time: float) -> NotificationSnapshot:
        """Rendering high-water marks as of ``time`` (or removal time if
        the entry was removed earlier)."""
        if self.removed_at is not None:
            time = min(time, self.removed_at)
        return NotificationSnapshot(
            view_progress=self.progress_at(time),
            max_pixels=self.pixels_at(time),
            message_progress=self.message_progress_at(time),
            icon_shown=time >= self.icon_shown_at,
        )

    def outcome_at(self, time: float) -> NotificationOutcome:
        return classify(self.snapshot_at(time))

    def visible_time_ms(self, until: float) -> float:
        """Total wall time with >= 1 rendered pixel, up to ``until``."""
        end = until if self.removed_at is None else min(self.removed_at, until)
        first = self.first_visible_at()
        if first is None or first >= end:
            return 0.0
        return end - first


@dataclass(frozen=True)
class NotificationRecord:
    """Immutable history record of one retired notification entry."""

    app: str
    anim_start: float
    removed_at: float
    snapshot: NotificationSnapshot
    outcome: NotificationOutcome
    visible_ms: float
