"""Choreographer: factory for animators bound to one display's frame clock.

On a real device every window's animations are driven by a single vsync
source. The simulated :class:`Choreographer` captures the per-device refresh
interval (from the device profile) so that subsystems creating animators —
System UI for the notification alert, the Window Manager Service for toast
fades — agree on frame timing without re-plumbing the constant everywhere.
"""

from __future__ import annotations

from typing import Optional

from ..sim.simulation import Simulation
from .animator import (
    DEFAULT_REFRESH_INTERVAL,
    Animator,
    DoneCallback,
    FrameCallback,
)
from .interpolators import Interpolator


class Choreographer:
    """Creates :class:`Animator` instances sharing one refresh interval."""

    def __init__(
        self,
        simulation: Simulation,
        refresh_interval_ms: float = DEFAULT_REFRESH_INTERVAL,
    ) -> None:
        if refresh_interval_ms <= 0:
            raise ValueError(
                f"refresh interval must be positive, got {refresh_interval_ms}"
            )
        self._simulation = simulation
        self._refresh_interval = float(refresh_interval_ms)
        self._animators_created = 0

    @property
    def refresh_interval_ms(self) -> float:
        return self._refresh_interval

    @property
    def animators_created(self) -> int:
        """Total animators handed out (a cheap load/overhead metric)."""
        return self._animators_created

    def create_animator(
        self,
        interpolator: Interpolator,
        duration_ms: float,
        on_frame: Optional[FrameCallback] = None,
        on_finished: Optional[DoneCallback] = None,
        name: str = "animator",
    ) -> Animator:
        self._animators_created += 1
        return Animator(
            simulation=self._simulation,
            interpolator=interpolator,
            duration_ms=duration_ms,
            refresh_interval_ms=self._refresh_interval,
            on_frame=on_frame,
            on_finished=on_finished,
            name=name,
        )
