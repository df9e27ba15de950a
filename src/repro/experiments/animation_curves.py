"""Fig. 2 and Fig. 4: animation completeness curves.

Fig. 2 plots the FastOutSlowIn notification slide-in (360 ms); Fig. 4
plots the toast fade-out (Accelerate) and fade-in (Decelerate) over 500 ms.
These are deterministic interpolator evaluations; the result object embeds
the paper's qualitative anchors so tests and benches can assert them:

* less than 50% of the view is shown within the first 100 ms of the
  slide-in;
* the first 10 ms frame renders ~0.17% (0 px of a 72 px view);
* fade-out starts slow (low completeness early), fade-in starts fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..serialization import SerializableMixin
from ..animation.animator import (
    ANIMATION_DURATION_STANDARD,
    DEFAULT_REFRESH_INTERVAL,
    TOAST_ANIMATION_DURATION,
    rendered_pixels,
)
from ..animation.interpolators import (
    AccelerateInterpolator,
    DecelerateInterpolator,
    FastOutSlowInInterpolator,
)
from ..obs.context import current_metrics


def _replay_on_animator(interpolator, duration_ms: float) -> None:
    """Drive the curve through a live frame-driven :class:`Animator`.

    Only runs under the metrics plane: it feeds the compositor frame
    counters with the real frame machinery the analytic curves abstract
    over (frame quantization at the 10 ms refresh interval), on a private
    simulation. The result objects never read anything from it, so the
    figures are byte-identical with metrics on or off.
    """
    from ..animation.animator import Animator
    from ..sim.simulation import Simulation

    simulation = Simulation(seed=0, trace_enabled=False)
    animator = Animator(simulation, interpolator, duration_ms,
                        name="fig2-replay")
    animator.start()
    simulation.run_for(duration_ms + DEFAULT_REFRESH_INTERVAL)


@dataclass(frozen=True)
class CurveSeries(SerializableMixin):
    """One sampled curve: (time ms, completeness %) pairs."""

    name: str
    duration_ms: float
    points: Tuple[Tuple[float, float], ...]

    def completeness_at(self, time_ms: float) -> float:
        """Linear lookup of the nearest sampled point (samples are dense)."""
        best = min(self.points, key=lambda p: abs(p[0] - time_ms))
        return best[1]


@dataclass(frozen=True)
class Fig2Result(SerializableMixin):
    """The notification slide-in curve plus its paper anchors."""

    curve: CurveSeries
    completeness_at_100ms: float
    completeness_at_10ms: float
    pixels_at_10ms_of_72px_view: int


@dataclass(frozen=True)
class Fig4Result(SerializableMixin):
    """The toast fade curves."""

    accelerate: CurveSeries
    decelerate: CurveSeries


def _sample(name: str, interpolator, duration_ms: float, step_ms: float) -> CurveSeries:
    points: List[Tuple[float, float]] = []
    t = 0.0
    while t <= duration_ms + 1e-9:
        points.append((t, interpolator.value(t / duration_ms) * 100.0))
        t += step_ms
    return CurveSeries(name=name, duration_ms=duration_ms, points=tuple(points))


def _run_fig2(step_ms: float = 2.0) -> Fig2Result:
    interpolator = FastOutSlowInInterpolator()
    if current_metrics() is not None:
        _replay_on_animator(interpolator, ANIMATION_DURATION_STANDARD)
    curve = _sample(
        "fast-out-slow-in", interpolator, ANIMATION_DURATION_STANDARD, step_ms
    )
    at_10 = interpolator.value(10.0 / ANIMATION_DURATION_STANDARD)
    return Fig2Result(
        curve=curve,
        completeness_at_100ms=interpolator.value(100.0 / ANIMATION_DURATION_STANDARD)
        * 100.0,
        completeness_at_10ms=at_10 * 100.0,
        pixels_at_10ms_of_72px_view=rendered_pixels(at_10, 72),
    )


def _run_fig4(step_ms: float = 2.0) -> Fig4Result:
    return Fig4Result(
        accelerate=_sample(
            "accelerate", AccelerateInterpolator(), TOAST_ANIMATION_DURATION, step_ms
        ),
        decelerate=_sample(
            "decelerate", DecelerateInterpolator(), TOAST_ANIMATION_DURATION, step_ms
        ),
    )
