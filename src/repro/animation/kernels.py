"""Precomputed interpolator frame tables.

Android quantizes animations to frames: a view's completeness only changes
when a vsync callback fires, every ``refresh_interval_ms``. The analytic
notification timeline (:class:`~repro.systemui.notification.NotificationEntry`)
and the first-visible-frame search therefore evaluate the interpolator at
the *same* normalized times over and over, with the FastOutSlowIn cubic
Bezier costing a Newton/bisection solve per call. A :class:`FrameTable`
evaluates each frame exactly once.

Every row is computed by the float expressions a direct evaluation would
use (``min(k * refresh, duration) / duration`` fed to
``Interpolator.value``), so a table read returns the same bits
``Interpolator.value`` would (pinned by
``tests/animation/test_kernel_properties.py``).

Tables are memoized in :data:`FRAME_TABLE_CACHE` under a content key —
interpolator curve parameters, duration, refresh interval, view height —
so one table serves every entry on a device across all trials; the cache
lives at module level, so stack ``reset()`` never touches it.
Interpolators without a stable curve key (unknown subclasses) get a fresh,
unshared table instead.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from .interpolators import Interpolator

#: A table's content key: (interpolator curve key, duration, refresh
#: interval, view height). Two animations with equal keys render exactly
#: the same per-frame values, so they share one table.
TableKey = Tuple[Tuple, float, float, int]


def rendered_pixels(completeness: float, view_height_px: int) -> int:
    """Pixels of a ``view_height_px``-tall view shown at ``completeness``.

    Uses round-half-up to match the paper's "rounds 0.1224 up to 0" wording
    (banker's rounding vs. half-up is irrelevant below 0.5 px).

    ``completeness`` is clamped into ``[0, 1]`` first — documented
    behavior, not an accident: a custom overshooting Bezier (``y`` control
    points outside ``[0, 1]``) can report completeness beyond the range,
    but a view never renders negative pixels or more pixels than it has.
    """
    if completeness <= 0.0:
        return 0
    if completeness >= 1.0:
        return view_height_px
    return int(math.floor(completeness * view_height_px + 0.5))


class FrameTable:
    """Immutable per-frame rendering table of one quantized animation.

    Row ``k`` describes the frame nominally fired at ``k * refresh`` ms
    after animation start:

    * ``times_ms[k]``   — the nominal frame time ``k * refresh`` (the
      final row's time may exceed ``duration``; the frame that lands at or
      past the end renders completeness 1.0, exactly like the animator's
      clamp);
    * ``completeness[k]`` — ``interpolator.value(min(k*refresh, duration)
      / duration)``;
    * ``pixels[k]``     — ``rendered_pixels(completeness[k], height)``.

    The last row is the first frame with ``k * refresh >= duration``; any
    frame index beyond it renders identically to it (the animation is
    complete), so lookups clamp to the final row.
    """

    __slots__ = (
        "duration_ms", "refresh_interval_ms", "view_height_px",
        "times_ms", "completeness", "pixels",
        "first_visible_index",
    )

    def __init__(
        self,
        interpolator: Interpolator,
        duration_ms: float,
        refresh_interval_ms: float,
        view_height_px: int,
    ) -> None:
        if duration_ms < 0:
            raise ValueError(f"duration must be >= 0, got {duration_ms}")
        if refresh_interval_ms <= 0:
            raise ValueError(
                f"refresh interval must be positive, got {refresh_interval_ms}"
            )
        if view_height_px < 0:
            raise ValueError(
                f"view height must be >= 0, got {view_height_px}"
            )
        self.duration_ms = float(duration_ms)
        self.refresh_interval_ms = float(refresh_interval_ms)
        self.view_height_px = int(view_height_px)

        times = []
        values = []
        pixels = []
        k = 0
        while True:
            t = k * self.refresh_interval_ms
            if self.duration_ms > 0.0:
                x = min(t, self.duration_ms) / self.duration_ms
            else:
                # Zero-duration animation: every frame (including the one
                # at t=0) renders the fully-complete view.
                x = 1.0
            value = interpolator.value(x)
            times.append(t)
            values.append(value)
            pixels.append(rendered_pixels(value, self.view_height_px))
            if t >= self.duration_ms:
                break
            k += 1
        self.times_ms: Tuple[float, ...] = tuple(times)
        self.completeness: Tuple[float, ...] = tuple(values)
        self.pixels: Tuple[int, ...] = tuple(pixels)

        first_visible: Optional[int] = None
        for index in range(1, len(self.pixels)):
            if self.pixels[index] >= 1:
                first_visible = index
                break
        if first_visible is None and self.duration_ms == 0.0 \
                and self.pixels and self.pixels[0] >= 1:
            first_visible = 0
        #: Index of the first frame after start rendering >= 1 px, or
        #: ``None`` if the animation never shows a visible pixel.
        self.first_visible_index = first_visible

    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        return len(self.times_ms)

    def rows(self) -> Tuple[Tuple[float, float, int], ...]:
        """The table as ``(time_ms, completeness, rendered_pixels)`` rows."""
        return tuple(zip(self.times_ms, self.completeness, self.pixels))

    def completeness_at_frame(self, index: int) -> float:
        """Completeness rendered by frame ``index`` (clamped past the end)."""
        if index < 0:
            return self.completeness[0]
        last = len(self.completeness) - 1
        return self.completeness[index if index < last else last]

    def pixels_at_frame(self, index: int) -> int:
        if index < 0:
            return self.pixels[0]
        last = len(self.pixels) - 1
        return self.pixels[index if index < last else last]

    def first_visible_time_ms(self) -> Optional[float]:
        """Nominal time of the first frame rendering >= 1 px, or ``None``."""
        if self.first_visible_index is None:
            return None
        return self.times_ms[self.first_visible_index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FrameTable(frames={self.frame_count}, "
            f"duration={self.duration_ms}ms, "
            f"refresh={self.refresh_interval_ms}ms, "
            f"height={self.view_height_px}px)"
        )


#: The process-wide table cache. Unbounded by design: its key space is the
#: distinct (curve, duration, refresh, height) combinations of a run — a
#: few dozen entries even for fleet campaigns.
FRAME_TABLE_CACHE: Dict[TableKey, FrameTable] = {}


def frame_table(
    interpolator: Interpolator,
    duration_ms: float,
    refresh_interval_ms: float,
    view_height_px: int,
) -> FrameTable:
    """The frame table for one (curve, duration, refresh, height).

    Memoized in :data:`FRAME_TABLE_CACHE` when the interpolator has a
    stable curve key; an unknown subclass (whose values the cache could
    not vouch for) gets a fresh table of its own.
    """
    curve_key = interpolator.cache_key()
    if curve_key is None:
        return FrameTable(interpolator, duration_ms, refresh_interval_ms,
                          view_height_px)
    key = (curve_key, float(duration_ms), float(refresh_interval_ms),
           int(view_height_px))
    table = FRAME_TABLE_CACHE.get(key)
    if table is None:
        table = FrameTable(interpolator, duration_ms, refresh_interval_ms,
                           view_height_px)
        FRAME_TABLE_CACHE[key] = table
    return table


__all__ = ["FRAME_TABLE_CACHE", "FrameTable", "frame_table",
           "rendered_pixels"]
