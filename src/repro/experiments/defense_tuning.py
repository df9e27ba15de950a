"""Tuning the IPC defense's decision rule (paper §VII-A, technical report).

The decision rule has two knobs: the number of qualifying add/remove pairs
before flagging (``min_pairs``) and the pair-gap ceiling
(``max_pair_gap_ms``). This study sweeps them against

* the draw-and-destroy attack at several attacking windows (detection
  rate and latency), and
* an ensemble of benign overlay workloads with progressively twitchier
  add/remove cadences (false positives),

yielding the operating-point table a deployer would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..defenses.ipc_detector import DetectionRule
from ..devices.profiles import DeviceProfile
from ..devices.registry import reference_device
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, run_trial, scoped_executor


@dataclass(frozen=True)
class RuleOperatingPoint(SerializableMixin):
    """Detection/false-positive trade-off of one rule configuration."""

    min_pairs: int
    max_pair_gap_ms: float
    detection_rate: float
    mean_detection_latency_ms: Optional[float]
    false_positive_rate: float

    @property
    def usable(self) -> bool:
        """A deployable point: catches everything, flags nothing benign."""
        return self.detection_rate == 1.0 and self.false_positive_rate == 0.0


@dataclass(frozen=True)
class DefenseTuningResult(SerializableMixin):
    points: Tuple[RuleOperatingPoint, ...]

    @property
    def usable_points(self) -> List[RuleOperatingPoint]:
        return [p for p in self.points if p.usable]

    def best_point(self) -> Optional[RuleOperatingPoint]:
        """The usable point with the lowest detection latency."""
        usable = [
            p for p in self.usable_points
            if p.mean_detection_latency_ms is not None
        ]
        return min(usable, key=lambda p: p.mean_detection_latency_ms,
                   default=None)


def _attack_detection(
    profile: DeviceProfile, rule: DetectionRule, d: float, seed: int,
    attack_ms: float,
) -> Optional[float]:
    """Run one attack; return detection latency or None."""
    trial, _ = run_trial(TrialSpec(
        scenario="ipc-defense-attack",
        seed=seed,
        profile=profile,
        params={"attacking_window_ms": d, "attack_ms": attack_ms,
                "rule": rule},
    ))
    return trial.detection_latency_ms


#: From placid floating widgets to a twitchy screen-dimmer that toggles
#: its overlay under a second — the workload that punishes loose rules.
_TUNING_BENIGN_APPS = tuple(
    (f"com.benign.{index}", dwell, pause)
    for index, (dwell, pause) in enumerate([
        (45_000.0, 15_000.0),
        (12_000.0, 4_000.0),
        (3_000.0, 1_500.0),
        (800.0, 400.0),
    ])
)


def _benign_false_positives(
    profile: DeviceProfile, rule: DetectionRule, seed: int,
    observation_ms: float,
) -> Tuple[int, int]:
    """Run the benign ensemble; return (flagged, total)."""
    return run_trial(TrialSpec(
        scenario="benign-overlays",
        seed=seed,
        profile=profile,
        params={"apps": _TUNING_BENIGN_APPS, "observation_ms": observation_ms,
                "rule": rule, "terminate_on_detection": False},
    ))


def _run_defense_tuning(
    scale: ExperimentScale = QUICK,
    profile: Optional[DeviceProfile] = None,
    min_pairs_values: Sequence[int] = (4, 8, 16),
    max_gap_values: Sequence[float] = (300.0, 600.0, 1200.0),
    attack_windows: Sequence[float] = (100.0, 250.0),
    attack_ms: float = 12_000.0,
    benign_observation_ms: float = 120_000.0,
) -> DefenseTuningResult:
    """Sweep the rule grid and report each operating point."""
    profile = profile or reference_device()
    points: List[RuleOperatingPoint] = []
    with scoped_executor():
        _tune_grid(
            points, profile, scale, min_pairs_values, max_gap_values,
            attack_windows, attack_ms, benign_observation_ms,
        )
    return DefenseTuningResult(points=tuple(points))


def _render_defense_tuning(result: DefenseTuningResult) -> str:
    out = ["| min pairs | max gap (ms) | detection | latency (ms) | benign FP |\n"
           "|---|---|---|---|---|\n"]
    for p in result.points:
        latency = (f"{p.mean_detection_latency_ms:.0f}"
                   if p.mean_detection_latency_ms is not None else "--")
        out.append(f"| {p.min_pairs} | {p.max_pair_gap_ms:.0f} | "
                   f"{p.detection_rate * 100:.0f}% | {latency} | "
                   f"{p.false_positive_rate * 100:.0f}% |\n")
    best = result.best_point()
    if best is not None:
        out.append(f"\nrecommended rule: min_pairs={best.min_pairs}, "
                   f"max_gap={best.max_pair_gap_ms:.0f} ms\n")
    out.append("\n")
    return "".join(out)


def _tune_grid(
    points: List[RuleOperatingPoint],
    profile: DeviceProfile,
    scale: ExperimentScale,
    min_pairs_values: Sequence[int],
    max_gap_values: Sequence[float],
    attack_windows: Sequence[float],
    attack_ms: float,
    benign_observation_ms: float,
) -> None:
    for min_pairs in min_pairs_values:
        for max_gap in max_gap_values:
            rule = DetectionRule(
                window_ms=max(3000.0, max_gap * (min_pairs + 1)),
                min_pairs=min_pairs,
                max_pair_gap_ms=max_gap,
            )
            latencies: List[float] = []
            detected = 0
            total = 0
            for index, d in enumerate(attack_windows):
                total += 1
                latency = _attack_detection(
                    profile, rule, float(d), scale.seed + index, attack_ms
                )
                if latency is not None:
                    detected += 1
                    latencies.append(latency)
            flagged, benign_total = _benign_false_positives(
                profile, rule, scale.seed + 977, benign_observation_ms
            )
            points.append(
                RuleOperatingPoint(
                    min_pairs=min_pairs,
                    max_pair_gap_ms=max_gap,
                    detection_rate=detected / total if total else 0.0,
                    mean_detection_latency_ms=(
                        sum(latencies) / len(latencies) if latencies else None
                    ),
                    false_positive_rate=(
                        flagged / benign_total if benign_total else 0.0
                    ),
                )
            )
