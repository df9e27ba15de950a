"""Fig. 7 and Fig. 8: touch-event capture rate vs attacking window.

Protocol (paper Section VI-B): for each D in {50..200} ms, each participant
types 10 random 10-character strings into the testing app while the
draw-and-destroy overlay attack runs; the capture rate is captured
characters over the total typed. Fig. 7 aggregates all participants
(box-plot statistics per D); Fig. 8 splits by Android version, showing
Android 10/11 capturing less because the shrunken ``Trm`` widens the
mistouch gap.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..sim.rng import SeededRng
from ..users.participant import Participant, generate_participants
from .config import FIG7_DURATIONS, FIG7_PAPER_MEANS, ExperimentScale, QUICK
from .engine import scoped_executor
from .scenarios import run_capture_trial


@dataclass(frozen=True)
class CaptureBoxStats(SerializableMixin):
    """Box-plot statistics of per-participant capture rates at one D."""

    attacking_window_ms: float
    mean: float
    median: float
    minimum: float
    maximum: float
    q1: float
    q3: float
    per_participant: Tuple[float, ...]


@dataclass(frozen=True)
class Fig7Result(SerializableMixin):
    """Capture-rate distribution per attacking window."""

    stats: Tuple[CaptureBoxStats, ...]
    paper_means: Tuple[float, ...]

    def means(self) -> List[float]:
        return [s.mean for s in self.stats]

    @property
    def is_increasing(self) -> bool:
        means = self.means()
        return all(a <= b + 1.0 for a, b in zip(means, means[1:]))


@dataclass(frozen=True)
class Fig8Result(SerializableMixin):
    """Mean capture rate per Android version per attacking window."""

    durations: Tuple[float, ...]
    by_version: Dict[str, Tuple[float, ...]]

    def version_mean(self, version: str) -> float:
        series = self.by_version[version]
        return sum(series) / len(series)


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    ordered = sorted(values)
    if len(ordered) < 4:
        return ordered[0], ordered[-1]
    quartiles = statistics.quantiles(ordered, n=4)
    return quartiles[0], quartiles[2]


def _participant_rate(
    participant: Participant,
    d: float,
    scale: ExperimentScale,
    seed_stream: SeededRng,
) -> float:
    captured = 0
    total = 0
    for string_index in range(scale.strings_per_d):
        seed = seed_stream.randint(0, 2**31 - 1)
        trial = run_capture_trial(
            participant, d, seed=seed, n_chars=scale.chars_per_string
        )
        captured += trial.committed_to_overlay
        total += trial.total_taps
    return captured / total if total else 0.0


def _run_fig7(
    scale: ExperimentScale = QUICK,
    durations: Sequence[float] = FIG7_DURATIONS,
    participants: Optional[Sequence[Participant]] = None,
) -> Fig7Result:
    """Capture-rate box statistics per D across the participant pool."""
    pool = list(participants) if participants is not None else generate_participants(
        SeededRng(scale.seed, "participants"), count=scale.participants
    )
    stats: List[CaptureBoxStats] = []
    with scoped_executor():
        for d in durations:
            rates: List[float] = []
            for participant in pool:
                stream = SeededRng(
                    scale.seed, f"fig7/{d}/{participant.participant_id}"
                )
                rates.append(100.0 * _participant_rate(participant, d, scale, stream))
            q1, q3 = _quartiles(rates)
            stats.append(
                CaptureBoxStats(
                    attacking_window_ms=d,
                    mean=sum(rates) / len(rates),
                    median=statistics.median(rates),
                    minimum=min(rates),
                    maximum=max(rates),
                    q1=q1,
                    q3=q3,
                    per_participant=tuple(rates),
                )
            )
    return Fig7Result(stats=tuple(stats), paper_means=tuple(FIG7_PAPER_MEANS))


def _render_fig7(result: Fig7Result) -> str:
    rows = "".join(
        f"| {stats.attacking_window_ms:.0f} | {stats.mean:.1f} | "
        f"{paper:.1f} |\n"
        for stats, paper in zip(result.stats, result.paper_means))
    return (f"| D (ms) | measured mean % | paper mean % |\n|---|---|---|\n"
            f"{rows}\n")


def _run_fig8(
    scale: ExperimentScale = QUICK,
    durations: Sequence[float] = FIG7_DURATIONS,
) -> Fig8Result:
    """Capture rate per Android version.

    Participants are drawn per version group (so every series exists even
    at reduced scale), using that version's devices from the registry."""
    from ..devices.registry import devices_by_version

    per_group = max(1, scale.participants // 4)
    groups: Dict[str, List[Participant]] = {}
    for version, devices in sorted(devices_by_version().items()):
        count = min(per_group, len(devices)) if scale.participants < 30 else len(devices)
        groups[version] = generate_participants(
            SeededRng(scale.seed, f"fig8-participants/{version}"),
            count=count,
            devices=devices,
        )
    by_version: Dict[str, Tuple[float, ...]] = {}
    with scoped_executor():
        for version, members in sorted(groups.items()):
            series: List[float] = []
            for d in durations:
                rates = []
                for participant in members:
                    stream = SeededRng(
                        scale.seed, f"fig8/{d}/{participant.participant_id}"
                    )
                    rates.append(100.0 * _participant_rate(participant, d, scale, stream))
                series.append(sum(rates) / len(rates))
            by_version[version] = tuple(series)
    return Fig8Result(durations=tuple(durations), by_version=by_version)


def _render_fig8(result: Fig8Result) -> str:
    header = ("| version | "
              + " | ".join(f"{d:.0f}" for d in result.durations) + " |\n")
    rule = "|---|" + "---|" * len(result.durations) + "\n"
    rows = "".join(
        f"| Android {version}.x | "
        + " | ".join(f"{v:.1f}" for v in series) + " |\n"
        for version, series in sorted(result.by_version.items()))
    return f"{header}{rule}{rows}\n"
