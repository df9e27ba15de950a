"""Noise sensitivity: how timing-window attacks degrade under faults.

The paper measured its attacks on real devices whose timing noise is
implicit in the numbers. This experiment makes the noise an axis: one base
fault regime (the ``adversarial`` profile) is swept across scale factors,
and at each point we measure

* the committed touch-capture rate (Fig. 7's metric) for the plain and the
  *adaptive* attack — the adaptive variant re-measures ``Trm`` and widens
  ``D`` after suppression failures;
* the actual mistouch exposure ``Tmis`` between overlay switches, read off
  the trace the way Eq. (2) validation does;
* the IPC detector's precision/recall — dispatch jitter stretches the
  add/remove gaps the pairing rule keys on, and Binder drops can remove
  one side of a pair.

The factor-0 point is bit-identical to a run with no fault layer at all
(``FaultProfile.scaled(0)`` is a no-op profile, and no-op regimes install
nothing), which the ``baseline_capture_rate`` field pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..analysis.uncovered_time import measure_overlay_coverage
from ..attacks.overlay_attack import DrawAndDestroyOverlayAttack, OverlayAttackConfig
from ..defenses.benign import BenignOverlayApp
from ..defenses.ipc_detector import IpcDetector
from ..sim.faults import ADVERSARIAL, NONE, FaultProfile
from ..sim.rng import SeededRng
from ..stack import AndroidStack
from ..users.participant import generate_participants
from ..windows.permissions import Permission
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, run_trial, scenario, scoped_executor
from .scenarios import run_capture_trial

#: Scale factors applied to the base profile (0 = the fault-free anchor).
NOISE_FACTORS = (0.0, 0.25, 0.5, 1.0)

#: Attacking window used throughout the sweep (the paper's reference D).
ATTACKING_WINDOW_MS = 100.0

#: Simulated observation length of the benign control stack (ms).
_BENIGN_OBSERVATION_MS = 60_000.0

#: Attack trials per factor for the detector-recall measurement.
_DETECTOR_TRIALS = 3


@dataclass(frozen=True)
class NoisePoint(SerializableMixin):
    """Every measurement taken at one jitter factor."""

    factor: float
    profile_name: str
    #: Mean committed capture rate (%) of the plain attack.
    capture_rate: float
    #: Mean committed capture rate (%) with adaptive window widening.
    adaptive_capture_rate: float
    #: Window widenings performed across the adaptive trials.
    adaptations: int
    #: Mean mistouch gap between overlay switches (ms), from the trace.
    tmis_ms: float
    #: Total uncovered time over the traced attack run (ms).
    uncovered_ms: float
    #: Number of uncovered gaps in the traced run.
    gap_count: int
    #: IPC detector recall over the attack trials (flagged / run).
    detector_recall: float
    #: IPC detector precision (attack flags / all flags; 1.0 when silent).
    detector_precision: float


@dataclass(frozen=True)
class NoiseSensitivityResult(SerializableMixin):
    """Capture rate, ``Tmis`` and detector quality vs noise magnitude."""

    base_profile: str
    attacking_window_ms: float
    points: Tuple[NoisePoint, ...]
    #: Capture rate (%) measured with the fault layer absent entirely;
    #: must equal the factor-0 point exactly (same seeds, same streams).
    baseline_capture_rate: float

    @property
    def degradation_is_monotonic(self) -> bool:
        """Capture rate never *rises* with noise beyond CI slack.

        Small samples jitter, so each step tolerates a 10-percentage-point
        rise; the property guards the trend, not each pair.
        """
        rates = [p.capture_rate for p in self.points]
        return all(b <= a + 10.0 for a, b in zip(rates, rates[1:]))

    def point_at(self, factor: float) -> NoisePoint:
        for point in self.points:
            if point.factor == factor:
                return point
        raise KeyError(f"no noise point at factor {factor}")


def _mean_capture_rate(
    pool,
    scale: ExperimentScale,
    faults: FaultProfile,
    adaptive: bool,
    stream_tag: str,
) -> float:
    """Mean committed capture rate (%) across the participant pool.

    Seeds derive from ``(scale.seed, participant, string index)`` only —
    *not* from the fault profile — so every factor (and the no-fault
    baseline) replays the same typing against the same base streams and
    differs only by the injected faults.
    """
    rates: List[float] = []
    for participant in pool:
        stream = SeededRng(
            scale.seed, f"noise/{stream_tag}/{participant.participant_id}"
        )
        captured = 0
        total = 0
        for _ in range(scale.strings_per_d):
            seed = stream.randint(0, 2**31 - 1)
            trial = run_capture_trial(
                participant,
                ATTACKING_WINDOW_MS,
                seed=seed,
                n_chars=scale.chars_per_string,
                faults=faults,
                adaptive=adaptive,
            )
            captured += trial.committed_to_overlay
            total += trial.total_taps
        rates.append(100.0 * captured / total if total else 0.0)
    return sum(rates) / len(rates) if rates else 0.0


@scenario("noise-tmis")
def noise_tmis_scenario(
    stack: AndroidStack, horizon_ms: float
) -> Tuple[float, float, int, int]:
    """(mean gap ms, uncovered ms, gap count, adaptations) of one traced run."""
    attack = DrawAndDestroyOverlayAttack(
        stack,
        OverlayAttackConfig(
            attacking_window_ms=ATTACKING_WINDOW_MS, adaptive=True
        ),
    )
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    attack.start()
    stack.run_for(horizon_ms)
    end = stack.now
    attack.stop()
    stack.run_for(500.0)
    timeline = measure_overlay_coverage(
        stack.simulation.trace, attack.package, 0.0, end
    )
    intervals = timeline.covered_intervals
    # Internal gaps between consecutive covered intervals are the per-cycle
    # mistouch windows (paper Eq. (1): Tmis = Tam + Tas - Trm, widened here
    # by whatever the fault layer injected).
    gaps = [
        later_start - earlier_end
        for (_, earlier_end), (later_start, _) in zip(intervals, intervals[1:])
    ]
    mean_gap = sum(gaps) / len(gaps) if gaps else 0.0
    return (
        mean_gap,
        timeline.uncovered_ms,
        timeline.gap_count,
        attack.stats.adaptations,
    )


def _measure_tmis(
    scale: ExperimentScale, faults: FaultProfile, seed: int
) -> Tuple[float, float, int, int]:
    return run_trial(TrialSpec(
        scenario="noise-tmis",
        seed=seed,
        trace_enabled=True,
        faults=faults,
        params={"horizon_ms": max(3000.0, scale.boundary_trial_ms)},
    ))


@scenario("noise-detector-attack")
def noise_detector_attack_scenario(
    stack: AndroidStack, attack_ms: float
) -> bool:
    """One attack run with the detector; True when it was flagged."""
    detector = IpcDetector(stack.router, stack.system_server)
    attack = DrawAndDestroyOverlayAttack(
        stack, OverlayAttackConfig(attacking_window_ms=ATTACKING_WINDOW_MS)
    )
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    attack.start()
    stack.run_for(attack_ms)
    attack.stop()
    stack.run_for(500.0)
    return detector.is_flagged(attack.package)


@scenario("noise-detector-benign")
def noise_detector_benign_scenario(stack: AndroidStack) -> int:
    """Benign floating-widget control run; returns false positives."""
    detector = IpcDetector(stack.router, stack.system_server)
    benign = []
    for i in range(2):
        app = BenignOverlayApp(
            stack, package=f"com.benign.noise{i}", dwell_ms=15_000.0,
            pause_ms=5_000.0,
        )
        stack.permissions.grant(app.package, Permission.SYSTEM_ALERT_WINDOW)
        app.start()
        benign.append(app)
    stack.run_for(_BENIGN_OBSERVATION_MS)
    for app in benign:
        app.stop()
    stack.run_for(500.0)
    return sum(1 for app in benign if detector.is_flagged(app.package))


def _detector_quality(
    scale: ExperimentScale, faults: FaultProfile, seed_base: int
) -> Tuple[float, float]:
    """(recall, precision) of the IPC detector under one fault regime."""
    attack_ms = max(3000.0, scale.boundary_trial_ms)
    true_positives = sum(
        1 for index in range(_DETECTOR_TRIALS)
        if run_trial(TrialSpec(
            scenario="noise-detector-attack",
            seed=seed_base + index,
            faults=faults,
            params={"attack_ms": attack_ms},
        ))
    )
    # Benign control: floating-widget apps under the same noise.
    false_positives = run_trial(TrialSpec(
        scenario="noise-detector-benign",
        seed=seed_base + 977,
        faults=faults,
    ))
    recall = true_positives / _DETECTOR_TRIALS
    flagged_total = true_positives + false_positives
    precision = true_positives / flagged_total if flagged_total else 1.0
    return recall, precision


def _run_noise_sensitivity(
    scale: ExperimentScale = QUICK,
    factors: Sequence[float] = NOISE_FACTORS,
    base: Optional[FaultProfile] = None,
) -> NoiseSensitivityResult:
    """Sweep the base fault profile across ``factors`` and measure."""
    base = base or ADVERSARIAL
    pool = generate_participants(
        SeededRng(scale.seed, "noise-participants"),
        count=max(2, scale.participants // 4),
    )
    trm_stream = SeededRng(scale.seed, "noise-tmis")
    detector_stream = SeededRng(scale.seed, "noise-detector")
    # Per-factor seeds are drawn up front in factor order so the sweep's
    # point list (not the execution details) fixes every stream.
    tmis_seeds = [trm_stream.randint(0, 2**31 - 1) for _ in factors]
    detector_seeds = [detector_stream.randint(0, 2**31 - 1) for _ in factors]

    points: List[NoisePoint] = []
    with scoped_executor():
        baseline_rate = _mean_capture_rate(
            pool, scale, NONE, adaptive=False, stream_tag="capture"
        )
        for index, factor in enumerate(factors):
            fault_profile = base.scaled(factor)
            plain_rate = _mean_capture_rate(
                pool, scale, fault_profile, adaptive=False, stream_tag="capture"
            )
            adaptive_rate = _mean_capture_rate(
                pool, scale, fault_profile, adaptive=True, stream_tag="capture"
            )
            tmis, uncovered, gap_count, adaptations = _measure_tmis(
                scale, fault_profile, tmis_seeds[index]
            )
            recall, precision = _detector_quality(
                scale, fault_profile, detector_seeds[index]
            )
            points.append(
                NoisePoint(
                    factor=factor,
                    profile_name=fault_profile.name,
                    capture_rate=plain_rate,
                    adaptive_capture_rate=adaptive_rate,
                    adaptations=adaptations,
                    tmis_ms=tmis,
                    uncovered_ms=uncovered,
                    gap_count=gap_count,
                    detector_recall=recall,
                    detector_precision=precision,
                )
            )
    return NoiseSensitivityResult(
        base_profile=base.name,
        attacking_window_ms=ATTACKING_WINDOW_MS,
        points=tuple(points),
        baseline_capture_rate=baseline_rate,
    )
