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
from typing import Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..attacks.timing import expected_mistouch_for_profile
from ..devices.profiles import DeviceProfile
from ..devices.registry import device
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, scoped_executor


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


def _run_equation_validation(
    scale: ExperimentScale = QUICK,
    profile: Optional[DeviceProfile] = None,
    durations: Sequence[float] = (50.0, 100.0, 150.0, 200.0),
    attack_ms: float = 10_000.0,
) -> EquationValidationResult:
    """Attack at each D; compare Eq. (2) with trace-measured exposure."""
    profile = profile or device("pixel 4")  # Android 10: visible Tmis
    windows = [float(d) for d in durations]
    specs = [
        TrialSpec(
            scenario="overlay-coverage",
            seed=scale.seed + index,
            profile=profile,
            trace_enabled=True,
            params={"attacking_window_ms": d, "attack_ms": attack_ms},
        )
        for index, d in enumerate(windows)
    ]
    with scoped_executor() as executor:
        runs = executor.map(specs)
    rows = tuple(
        EquationValidationRow(
            attacking_window_ms=d,
            attack_duration_ms=attack_ms,
            predicted_ms=expected_mistouch_for_profile(
                profile, attack_ms, d).expected_mistouch_ms,
            measured_ms=coverage.uncovered_ms,
            gap_count=coverage.gap_count,
        )
        for d, (coverage, _) in zip(windows, runs)
    )
    return EquationValidationResult(device_key=profile.key, rows=rows)


def _render_equation_validation(result: EquationValidationResult) -> str:
    rows = "".join(
        f"| {row.attacking_window_ms:.0f} | {row.predicted_ms:.1f} | "
        f"{row.measured_ms:.1f} | {row.relative_error * 100:.1f}% |\n"
        for row in result.rows)
    return ("| D (ms) | predicted (ms) | measured (ms) | error |\n"
            f"|---|---|---|---|\n{rows}\n")
