"""Validating the paper's Eq. (2) against the simulated attack.

Section III-D derives the expected total mistouch time

    E(Tm) = (ceil(T/D) - 1) E(Tmis) + E(Tam) + E(Tas).

The simulation measures the *actual* uncovered time directly from the
window add/remove trace. This study runs the attack across attacking
windows and compares prediction vs measurement — the in-silico analogue of
the paper's "the experiment results match our analysis".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..analysis.uncovered_time import measure_overlay_coverage
from ..attacks.overlay_attack import DrawAndDestroyOverlayAttack, OverlayAttackConfig
from ..attacks.timing import expected_mistouch_for_profile
from ..devices.profiles import DeviceProfile
from ..devices.registry import device
from ..stack import AndroidStack
from ..windows.permissions import Permission
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, scenario, scoped_executor


@dataclass(frozen=True)
class EquationValidationRow(SerializableMixin):
    """Predicted vs measured mistouch budget at one attacking window."""

    attacking_window_ms: float
    attack_duration_ms: float
    predicted_ms: float
    measured_ms: float
    gap_count: int

    @property
    def relative_error(self) -> float:
        if self.predicted_ms == 0:
            return 0.0 if self.measured_ms == 0 else float("inf")
        return abs(self.measured_ms - self.predicted_ms) / self.predicted_ms


@dataclass(frozen=True)
class EquationValidationResult(SerializableMixin):
    device_key: str
    rows: Tuple[EquationValidationRow, ...]

    @property
    def max_relative_error(self) -> float:
        return max(row.relative_error for row in self.rows)

    @property
    def measured_decreases_with_d(self) -> bool:
        measured = [row.measured_ms for row in self.rows]
        return all(a >= b - 2.0 for a, b in zip(measured, measured[1:]))


@scenario("equation-validation")
def equation_validation_scenario(
    stack: AndroidStack, attacking_window_ms: float, attack_ms: float
) -> EquationValidationRow:
    """Attack at one D; compare Eq. (2) with trace-measured exposure."""
    attack = DrawAndDestroyOverlayAttack(
        stack, OverlayAttackConfig(attacking_window_ms=attacking_window_ms)
    )
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    start = stack.now
    attack.start()
    stack.run_for(attack_ms)
    coverage = measure_overlay_coverage(
        stack.simulation.trace, attack.package, start, stack.now
    )
    attack.stop()
    stack.run_for(500.0)
    predicted = expected_mistouch_for_profile(
        stack.profile, attack_ms, attacking_window_ms
    ).expected_mistouch_ms
    return EquationValidationRow(
        attacking_window_ms=attacking_window_ms,
        attack_duration_ms=attack_ms,
        predicted_ms=predicted,
        measured_ms=coverage.uncovered_ms,
        gap_count=coverage.gap_count,
    )


def _run_equation_validation(
    scale: ExperimentScale = QUICK,
    profile: Optional[DeviceProfile] = None,
    durations: Sequence[float] = (50.0, 100.0, 150.0, 200.0),
    attack_ms: float = 10_000.0,
) -> EquationValidationResult:
    """Attack at each D; compare Eq. (2) with trace-measured exposure."""
    profile = profile or device("pixel 4")  # Android 10: visible Tmis
    specs = [
        TrialSpec(
            scenario="equation-validation",
            seed=scale.seed + index,
            profile=profile,
            trace_enabled=True,
            params={"attacking_window_ms": float(d), "attack_ms": attack_ms},
        )
        for index, d in enumerate(durations)
    ]
    with scoped_executor() as executor:
        rows: List[EquationValidationRow] = executor.map(specs)
    return EquationValidationResult(device_key=profile.key, rows=tuple(rows))
