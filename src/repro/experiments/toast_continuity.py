"""Section IV analysis: continuity of the draw-and-destroy toast attack.

Runs the toast attack for an observation window and measures:

* how many toasts were displayed, and that the token queue stayed within
  Android's 50-per-app cap;
* the opacity dip at every toast switch — with the fade overlap it stays
  in the high nineties, far above any flicker-perception threshold;
* coverage over time: the fraction of the observation window during which
  the fake content was at (near-)full opacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..serialization import SerializableMixin
from ..attacks.toast_attack import DrawAndDestroyToastAttack, ToastAttackConfig
from ..devices.profiles import DeviceProfile
from ..obs.context import current_metrics
from ..stack import AndroidStack
from ..toast.lifecycle import ToastSwitch
from ..toast.toast import TOAST_LENGTH_LONG_MS, TOAST_LENGTH_SHORT_MS
from ..windows.compositor import coverage as glass_coverage
from ..windows.geometry import Rect
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, run_trial, scenario, scoped_executor

#: On-glass coverage is a fraction; bucket it finely near 1.0 where the
#: attack lives.
_COVERAGE_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


@dataclass(frozen=True)
class ToastContinuityResult(SerializableMixin):
    """Continuity metrics of one toast-attack run."""

    duration_ms: float
    toast_duration_ms: float
    toasts_shown: int
    switches: Tuple[ToastSwitch, ...]
    min_switch_coverage: float
    mean_switch_gap_ms: float
    max_queue_depth_observed: int
    coverage_fraction_above_95: float

    @property
    def imperceptible(self) -> bool:
        """No switch dipped below a conservative 75% visibility floor."""
        return self.min_switch_coverage >= 0.75


@scenario("toast-continuity")
def toast_continuity_scenario(
    stack: AndroidStack,
    observation_ms: float,
    toast_duration_ms: float = TOAST_LENGTH_LONG_MS,
    inter_toast_gap_ms: float = 0.0,
) -> ToastContinuityResult:
    """Run the toast attack and measure switch visibility."""
    profile = stack.profile
    if inter_toast_gap_ms:
        stack.notification_manager.inter_toast_gap_ms = inter_toast_gap_ms
    rect = Rect(0, 1400, profile.screen_width_px, profile.screen_height_px)
    attack = DrawAndDestroyToastAttack(
        stack,
        ToastAttackConfig(rect=rect, duration_ms=toast_duration_ms),
        content_provider=lambda: "fake-keyboard",
    )
    attack.start()
    max_depth = 0
    sample_step = 250.0
    samples_above = 0
    samples_total = 0
    elapsed = 0.0
    warmup = 1000.0
    while elapsed < observation_ms:
        stack.run_for(sample_step)
        elapsed += sample_step
        depth = stack.notification_manager.queue.depth_for(attack.package)
        max_depth = max(max_depth, depth)
        if elapsed >= warmup:
            samples_total += 1
            if attack.coverage_at(stack.now) >= 0.95:
                samples_above += 1
            registry = current_metrics()
            if registry is not None:
                # Cross-check the analytic coverage against what is
                # actually on glass, through the compositor. Pure
                # observation: ``glass_coverage`` consumes no randomness
                # and schedules nothing, so results are unchanged; it
                # exists to feed the compositor metric series.
                registry.histogram(
                    "compositor_on_glass_coverage",
                    buckets=_COVERAGE_BUCKETS,
                ).observe(glass_coverage(
                    stack.screen, rect, stack.now,
                    predicate=lambda w: w.owner == attack.package,
                    faults=stack.simulation.faults,
                ))
    attack.stop()
    stack.run_for(toast_duration_ms + 1500.0)

    switches = tuple(attack.switches())
    min_coverage = min((s.min_coverage for s in switches), default=1.0)
    mean_gap = (
        sum(s.switch_gap_ms for s in switches) / len(switches) if switches else 0.0
    )
    return ToastContinuityResult(
        duration_ms=observation_ms,
        toast_duration_ms=toast_duration_ms,
        toasts_shown=len(attack.displayed_toasts()),
        switches=switches,
        min_switch_coverage=min_coverage,
        mean_switch_gap_ms=mean_gap,
        max_queue_depth_observed=max_depth,
        coverage_fraction_above_95=(
            samples_above / samples_total if samples_total else 0.0
        ),
    )


def _run_toast_continuity(
    scale: ExperimentScale = QUICK,
    profile: Optional[DeviceProfile] = None,
    toast_duration_ms: float = TOAST_LENGTH_LONG_MS,
    inter_toast_gap_ms: float = 0.0,
) -> ToastContinuityResult:
    """Run the toast attack and measure switch visibility.

    ``inter_toast_gap_ms`` > 0 evaluates the toast-spacing defense: the
    same metrics then show deep, long dips.
    """
    return run_trial(TrialSpec(
        scenario="toast-continuity",
        seed=scale.seed,
        profile=profile,
        params={
            "observation_ms": scale.toast_observation_ms,
            "toast_duration_ms": toast_duration_ms,
            "inter_toast_gap_ms": inter_toast_gap_ms,
        },
    ))


def compare_toast_durations(
    scale: ExperimentScale = QUICK,
) -> Tuple[ToastContinuityResult, ToastContinuityResult]:
    """Paper Section IV-D: 3.5 s toasts switch less often than 2 s toasts
    over the same attack period — return (short, long) for comparison."""
    with scoped_executor():
        short = _run_toast_continuity(scale, toast_duration_ms=TOAST_LENGTH_SHORT_MS)
        long = _run_toast_continuity(scale, toast_duration_ms=TOAST_LENGTH_LONG_MS)
    return short, long
