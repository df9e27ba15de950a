"""Table II: the upper boundary of D per device — plus the load study.

For every one of the 30 evaluation devices, the boundary finder runs the
simulated draw-and-destroy overlay attack across candidate attacking
windows and reports the largest D that still keeps every trial at Λ1,
reproducing the per-phone Table II measurement (and, as a sanity check,
its version-level structure: Android 10/11 bounds are larger thanks to the
ANA dispatch delay).

The load study (Section VI-B "Impact of the load") re-measures one
device's boundary with 0 / 3 / 5 background apps and confirms the shift is
negligible (well under one animation frame).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..attacks.timing import BoundarySearchResult, UpperBoundFinder
from ..devices.profiles import DeviceProfile
from ..devices.registry import DEVICES, device
from ..systemui.outcomes import NotificationOutcome
from .config import ExperimentScale, QUICK
from .engine import scoped_executor
from .scenarios import run_notification_trial


@dataclass(frozen=True)
class Table2Result(SerializableMixin):
    """Measured vs published boundary per device."""

    rows: Tuple[BoundarySearchResult, ...]

    @property
    def max_abs_error_ms(self) -> float:
        return max(abs(r.error_ms) for r in self.rows)

    @property
    def mean_abs_error_ms(self) -> float:
        return sum(abs(r.error_ms) for r in self.rows) / len(self.rows)

    def version_means(self) -> Dict[str, float]:
        """Mean measured boundary per Android major version."""
        sums: Dict[str, List[float]] = {}
        for row, profile in zip(self.rows, DEVICES):
            sums.setdefault(str(profile.android_version.major), []).append(
                row.measured_upper_bound_d
            )
        return {k: sum(v) / len(v) for k, v in sums.items()}


def _make_finder(scale: ExperimentScale) -> UpperBoundFinder:
    def trial(profile: DeviceProfile, d: float, seed: int) -> NotificationOutcome:
        return run_notification_trial(
            profile, d, seed=seed, duration_ms=scale.boundary_trial_ms
        )

    return UpperBoundFinder(
        run_trial=trial,
        trials_per_d=scale.boundary_trials_per_d,
        step_ms=5.0,
        base_seed=scale.seed,
    )


def _run_table2(
    scale: ExperimentScale = QUICK,
    profiles: Optional[Sequence[DeviceProfile]] = None,
) -> Table2Result:
    """Recover the Table II boundary for every device (or a subset)."""
    finder = _make_finder(scale)
    with scoped_executor():
        rows = tuple(finder.find(profile) for profile in (profiles or DEVICES))
    return Table2Result(rows=rows)


def _render_table2(result: Table2Result) -> str:
    rows = "".join(
        f"| {profile.key} | {row.published_upper_bound_d:.0f} | "
        f"{row.measured_upper_bound_d:.0f} | {row.error_ms:+.0f} |\n"
        for row, profile in zip(result.rows, DEVICES))
    return ("| device | published (ms) | measured (ms) | error |\n"
            f"|---|---|---|---|\n{rows}"
            f"\nmean abs error: {result.mean_abs_error_ms:.1f} ms; "
            f"version means: {result.version_means()}\n\n")


# ---------------------------------------------------------------------------
# Load impact (Section VI-B)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadImpactResult(SerializableMixin):
    """Boundary vs number of background apps on one device."""

    device_key: str
    bounds_by_load: Tuple[Tuple[int, float], ...]

    @property
    def max_shift_ms(self) -> float:
        bounds = [b for _, b in self.bounds_by_load]
        return max(bounds) - min(bounds)


def _run_load_impact(
    scale: ExperimentScale = QUICK,
    model: str = "mi8",
    version_label: str = "9",
    background_app_counts: Sequence[int] = (0, 3, 5),
) -> LoadImpactResult:
    """Measure the Λ1 boundary under background load (paper: no app /
    three popular apps / five popular apps — all nearly identical)."""
    base = device(model, version_label)
    finder = _make_finder(scale)
    bounds: List[Tuple[int, float]] = []
    with scoped_executor():
        for count in background_app_counts:
            loaded = base.with_load(count)
            result = finder.find(loaded)
            bounds.append((count, result.measured_upper_bound_d))
    return LoadImpactResult(device_key=base.key, bounds_by_load=tuple(bounds))


def _render_load_impact(result: LoadImpactResult) -> str:
    rows = "".join(f"- {count} background apps: boundary {bound:.0f} ms\n"
                   for count, bound in result.bounds_by_load)
    return (f"{rows}- max shift: {result.max_shift_ms:.1f} ms "
            "(paper: negligible)\n\n")
