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
from ..defenses.benign import BenignOverlayApp
from ..defenses.ipc_detector import DetectionRule, IpcDetector
from ..devices.profiles import DeviceProfile
from ..devices.registry import reference_device
from ..stack import AndroidStack
from ..windows.permissions import Permission
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, run_trial, scenario, scoped_executor


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


@scenario("ipc-tuning-benign")
def ipc_tuning_benign_scenario(
    stack: AndroidStack,
    rule: DetectionRule,
    observation_ms: float,
) -> Tuple[int, int]:
    """Run the benign ensemble; return (flagged, total)."""
    detector = IpcDetector(stack.router, stack.system_server, rule=rule,
                           terminate_on_detection=False)
    # From placid floating widgets to a twitchy screen-dimmer that toggles
    # its overlay under a second — the workload that punishes loose rules.
    cadences = [
        (45_000.0, 15_000.0),
        (12_000.0, 4_000.0),
        (3_000.0, 1_500.0),
        (800.0, 400.0),
    ]
    apps = []
    for index, (dwell, pause) in enumerate(cadences):
        app = BenignOverlayApp(stack, package=f"com.benign.{index}",
                               dwell_ms=dwell, pause_ms=pause)
        stack.permissions.grant(app.package, Permission.SYSTEM_ALERT_WINDOW)
        app.start()
        apps.append(app)
    stack.run_for(observation_ms)
    for app in apps:
        app.stop()
    stack.run_for(500.0)
    flagged = sum(1 for app in apps if detector.is_flagged(app.package))
    return flagged, len(apps)


def _benign_false_positives(
    profile: DeviceProfile, rule: DetectionRule, seed: int,
    observation_ms: float,
) -> Tuple[int, int]:
    return run_trial(TrialSpec(
        scenario="ipc-tuning-benign",
        seed=seed,
        profile=profile,
        params={"rule": rule, "observation_ms": observation_ms},
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
