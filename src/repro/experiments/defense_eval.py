"""Section VII: defense evaluation.

* **IPC detector** — detection rate and latency against the overlay attack
  across attacking windows, false positives on benign overlay workloads,
  and the (negligible) per-transaction overhead;
* **Enhanced notification** — with the ``t = 690 ms`` hide delay installed,
  the attack can no longer keep the alert at Λ1 for any D: the alert
  animates to full visibility;
* **Toast spacing** — with a scheduling gap between toasts, every switch
  produces a deep visible flicker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..actors import get_attacker
from ..defenses.enhanced_notification import (
    DEFAULT_HIDE_DELAY_MS,
    EnhancedNotificationDefense,
)
from ..defenses.ipc_detector import DetectionRule, IpcDetector
from ..devices.profiles import DeviceProfile
from ..devices.registry import reference_device
from ..stack import AndroidStack
from ..systemui.outcomes import NotificationOutcome
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, run_trial, scenario, scoped_executor
from .toast_continuity import ToastContinuityResult, _run_toast_continuity


# ---------------------------------------------------------------------------
# IPC-based detection (Section VII-A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IpcDefenseTrial:
    attacking_window_ms: float
    detected: bool
    detection_latency_ms: Optional[float]
    overlay_windows_created: int


@dataclass(frozen=True)
class IpcDefenseResult(SerializableMixin):
    trials: Tuple[IpcDefenseTrial, ...]
    benign_apps_observed: int
    false_positives: int
    monitor_overhead_ms_per_txn: float

    @property
    def detection_rate(self) -> float:
        return sum(1 for t in self.trials if t.detected) / len(self.trials)

    @property
    def median_detection_latency_ms(self) -> Optional[float]:
        latencies = sorted(
            t.detection_latency_ms for t in self.trials if t.detection_latency_ms is not None
        )
        if not latencies:
            return None
        return latencies[len(latencies) // 2]


@scenario("ipc-defense-attack")
def ipc_defense_attack_scenario(
    stack: AndroidStack,
    attacking_window_ms: float,
    attack_ms: float = 8000.0,
    rule: Optional[DetectionRule] = None,
) -> Tuple[IpcDefenseTrial, Optional[float]]:
    """One attack run with the detector installed; also reports the mean
    monitor+analyzer overhead per inspected transaction (or ``None``)."""
    detector = IpcDetector(stack.router, stack.system_server, rule=rule)
    attacker = get_attacker("draw-and-destroy")
    start_time = stack.now
    attack = attacker.launch(stack, attacking_window_ms=attacking_window_ms)
    stack.run_for(attack_ms)
    attacker.withdraw(attack)
    stack.run_for(500.0)
    detection = next(
        (det for det in detector.detections if det.caller == attack.package), None
    )
    trial = IpcDefenseTrial(
        attacking_window_ms=attacking_window_ms,
        detected=detection is not None,
        detection_latency_ms=(
            detection.time - start_time if detection is not None else None
        ),
        overlay_windows_created=stack.system_server.windows_created,
    )
    overhead = None
    if detector.monitor.transactions_seen:
        overhead = (
            (detector.monitor.overhead_ms + detector.overhead_ms)
            / detector.monitor.transactions_seen
        )
    return trial, overhead


#: Floating-widget apps of the Section VII-A false-positive control.
_IPC_BENIGN_APPS = tuple(
    (f"com.benign.app{i}", 20_000.0, 6_000.0) for i in range(3))


def _run_ipc_defense(
    scale: ExperimentScale = QUICK,
    profile: Optional[DeviceProfile] = None,
    durations: Sequence[float] = (50.0, 100.0, 150.0, 200.0, 300.0),
    rule: Optional[DetectionRule] = None,
    attack_ms: float = 8000.0,
    benign_observation_ms: float = 240_000.0,
) -> IpcDefenseResult:
    """Attack trials with the detector installed + a benign control run."""
    profile = profile or reference_device()
    with scoped_executor() as executor:
        attack_runs = executor.map([
            TrialSpec(
                scenario="ipc-defense-attack",
                seed=scale.seed + index,
                profile=profile,
                params={"attacking_window_ms": d, "attack_ms": attack_ms,
                        "rule": rule},
            )
            for index, d in enumerate(durations)
        ])
        # Benign control: floating-widget apps must not be flagged.
        false_positives, benign_observed = executor.run(TrialSpec(
            scenario="benign-overlays",
            seed=scale.seed + 991,
            profile=profile,
            params={"apps": _IPC_BENIGN_APPS,
                    "observation_ms": benign_observation_ms, "rule": rule},
        ))
    trials = [trial for trial, _ in attack_runs]
    overhead_samples = [overhead for _, overhead in attack_runs
                        if overhead is not None]
    return IpcDefenseResult(
        trials=tuple(trials),
        benign_apps_observed=benign_observed,
        false_positives=false_positives,
        monitor_overhead_ms_per_txn=(
            sum(overhead_samples) / len(overhead_samples) if overhead_samples else 0.0
        ),
    )


def _render_ipc_defense(result: IpcDefenseResult) -> str:
    latency = result.median_detection_latency_ms or float("nan")
    return (f"- IPC detector: detection rate {result.detection_rate * 100:.0f}%, "
            f"median latency {latency:.0f} ms, "
            f"false positives {result.false_positives}/"
            f"{result.benign_apps_observed}, overhead "
            f"{result.monitor_overhead_ms_per_txn * 1000:.1f} µs/transaction\n")


# ---------------------------------------------------------------------------
# Enhanced notification defense (Section VII-B)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NotificationDefenseTrial:
    attacking_window_ms: float
    outcome_without_defense: NotificationOutcome
    outcome_with_defense: NotificationOutcome

    @property
    def defense_effective(self) -> bool:
        """The defense must surface the alert whenever the undefended
        attack suppressed it."""
        if self.outcome_without_defense is NotificationOutcome.LAMBDA1:
            return self.outcome_with_defense > NotificationOutcome.LAMBDA1
        return True


@dataclass(frozen=True)
class NotificationDefenseResult(SerializableMixin):
    hide_delay_ms: float
    trials: Tuple[NotificationDefenseTrial, ...]
    hides_suppressed: int

    @property
    def all_effective(self) -> bool:
        return all(t.defense_effective for t in self.trials)


@scenario("defended-notification")
def defended_notification_scenario(
    stack: AndroidStack,
    attacking_window_ms: float,
    attack_ms: float,
    hide_delay_ms: Optional[float],
) -> Tuple[NotificationOutcome, int]:
    """Overlay attack with the hide-delay defense optionally installed;
    returns (worst outcome, hides the defense suppressed)."""
    defense = None
    if hide_delay_ms is not None:
        defense = EnhancedNotificationDefense(
            stack.system_server, hide_delay_ms=hide_delay_ms
        ).install()
    attacker = get_attacker("draw-and-destroy")
    attack = attacker.launch(stack, attacking_window_ms=attacking_window_ms)
    stack.run_for(attack_ms)
    worst = stack.system_ui.worst_outcome()
    attacker.withdraw(attack)
    stack.run_for(1500.0)
    worst = max(worst, stack.system_ui.worst_outcome())
    return worst, (defense.hides_suppressed if defense is not None else 0)


def _attack_outcome(
    profile: DeviceProfile,
    d: float,
    seed: int,
    attack_ms: float,
    hide_delay_ms: Optional[float],
) -> Tuple[NotificationOutcome, int]:
    return run_trial(TrialSpec(
        scenario="defended-notification",
        seed=seed,
        profile=profile,
        params={"attacking_window_ms": d, "attack_ms": attack_ms,
                "hide_delay_ms": hide_delay_ms},
    ))


def _run_notification_defense(
    scale: ExperimentScale = QUICK,
    profile: Optional[DeviceProfile] = None,
    durations: Optional[Sequence[float]] = None,
    hide_delay_ms: float = DEFAULT_HIDE_DELAY_MS,
    attack_ms: float = 4000.0,
) -> NotificationDefenseResult:
    """Compare attack outcomes with and without the hide delay installed."""
    profile = profile or reference_device()
    if durations is None:
        bound = profile.published_upper_bound_d
        durations = (bound * 0.3, bound * 0.6, bound * 0.9)
    trials: List[NotificationDefenseTrial] = []
    suppressed_total = 0
    with scoped_executor():
        for index, d in enumerate(durations):
            without, _ = _attack_outcome(
                profile, float(d), scale.seed + index, attack_ms, hide_delay_ms=None
            )
            with_defense, suppressed = _attack_outcome(
                profile, float(d), scale.seed + index, attack_ms,
                hide_delay_ms=hide_delay_ms
            )
            suppressed_total += suppressed
            trials.append(
                NotificationDefenseTrial(
                    attacking_window_ms=float(d),
                    outcome_without_defense=without,
                    outcome_with_defense=with_defense,
                )
            )
    return NotificationDefenseResult(
        hide_delay_ms=hide_delay_ms,
        trials=tuple(trials),
        hides_suppressed=suppressed_total,
    )


def _render_notification_defense(result: NotificationDefenseResult) -> str:
    return (f"- enhanced notification (t={result.hide_delay_ms:.0f} ms): "
            f"effective on all trials: {result.all_effective} "
            f"(hides suppressed: {result.hides_suppressed})\n")


# ---------------------------------------------------------------------------
# Toast spacing defense (Section VII-B, toast half)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToastDefenseResult(SerializableMixin):
    without_defense: ToastContinuityResult
    with_defense: ToastContinuityResult

    @property
    def defense_effective(self) -> bool:
        """Attack imperceptible undefended; clearly visible defended."""
        return (
            self.without_defense.imperceptible
            and not self.with_defense.imperceptible
        )


def _run_toast_defense(
    scale: ExperimentScale = QUICK, gap_ms: float = 500.0
) -> ToastDefenseResult:
    with scoped_executor():
        return ToastDefenseResult(
            without_defense=_run_toast_continuity(scale, inter_toast_gap_ms=0.0),
            with_defense=_run_toast_continuity(scale, inter_toast_gap_ms=gap_ms),
        )


def _render_toast_defense(result: ToastDefenseResult) -> str:
    return (f"- toast spacing: undefended min coverage "
            f"{result.without_defense.min_switch_coverage * 100:.1f}% vs "
            f"defended {result.with_defense.min_switch_coverage * 100:.1f}% "
            f"(effective: {result.defense_effective})\n\n")
