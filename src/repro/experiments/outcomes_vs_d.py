"""Fig. 6: the five notification outcomes under an increasing D.

The paper's Fig. 6 screenshots the notification drawer at increasing
attacking windows: Λ1 (nothing) through Λ5 (view + message + icon). The
reproduction sweeps D on one device and reports the worst outcome per D —
which must be monotonically non-decreasing and traverse the Λ ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..devices.profiles import DeviceProfile
from ..devices.registry import reference_device
from ..systemui.outcomes import NotificationOutcome
from .engine import TrialSpec, scoped_executor


@dataclass(frozen=True)
class Fig6Result(SerializableMixin):
    """Worst outcome per attacking window on one device."""

    device_key: str
    published_upper_bound_d: float
    outcomes: Tuple[Tuple[float, NotificationOutcome], ...]

    def outcome_at(self, d: float) -> NotificationOutcome:
        for probed, outcome in self.outcomes:
            if probed == d:
                return outcome
        raise KeyError(f"D={d} was not probed")

    @property
    def is_monotone(self) -> bool:
        values = [outcome.value for _, outcome in self.outcomes]
        return all(a <= b for a, b in zip(values, values[1:]))


def _run_fig6(
    profile: Optional[DeviceProfile] = None,
    durations: Optional[Sequence[float]] = None,
    seed: int = 7,
    trial_ms: float = 3000.0,
) -> Fig6Result:
    """Sweep D and classify the notification outcome at each value."""
    profile = profile or reference_device()
    if durations is None:
        bound = profile.published_upper_bound_d
        durations = (
            bound * 0.3,
            bound * 0.7,
            bound * 0.97,
            bound + 30.0,
            bound + 150.0,
            bound + 420.0,
            bound + 900.0,
        )
    specs = [
        TrialSpec(
            scenario="notification",
            seed=seed,
            profile=profile,
            params={"attacking_window_ms": float(d), "duration_ms": trial_ms},
        )
        for d in durations
    ]
    with scoped_executor() as executor:
        outcomes = tuple(
            (spec.params["attacking_window_ms"], executor.run(spec))
            for spec in specs
        )
    return Fig6Result(
        device_key=profile.key,
        published_upper_bound_d=profile.published_upper_bound_d,
        outcomes=outcomes,
    )


def _fig6_heading(result: Optional[Fig6Result]) -> str:
    suffix = f" ({result.device_key})" if result is not None else ""
    return f"Fig. 6 — notification outcomes vs D{suffix}"


def _render_fig6(result: Fig6Result) -> str:
    rows = "".join(f"| {d:.0f} | {outcome.label} |\n"
                   for d, outcome in result.outcomes)
    return f"| D (ms) | outcome |\n|---|---|\n{rows}\n"
