"""Supplementary analyses beyond the paper's tables.

* ``table3_by_version`` — Table III broken down by Android major
  version: the version effect (Android 10/11's larger mistouch gap) shows
  up directly in password-stealing success, a split the paper does not
  report but its model predicts;
* ``fig7_cis`` — Fig. 7 means with bootstrap confidence
  intervals over participants, quantifying how tight the 30-person study
  actually is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..serialization import SerializableMixin
from ..analysis.statistics import ConfidenceInterval, bootstrap_mean_ci, wilson_interval
from ..apps.keyboard import KeyboardSpec, default_keyboard_rect
from ..devices.registry import devices_by_version
from ..sim.rng import SeededRng
from ..users.participant import Participant, generate_participants
from ..users.passwords import PasswordGenerator
from .capture_rate import _run_fig7
from .config import ExperimentScale, FIG7_DURATIONS, QUICK
from .engine import scoped_executor
from .scenarios import run_password_trial


@dataclass(frozen=True)
class VersionSuccessRow(SerializableMixin):
    """Password-stealing outcomes for one Android major version."""

    version: str
    attempts: int
    successes: int
    ci: ConfidenceInterval

    @property
    def success_rate(self) -> float:
        return 100.0 * self.successes / self.attempts if self.attempts else 0.0


@dataclass(frozen=True)
class Table3ByVersionResult(SerializableMixin):
    password_length: int
    rows: Tuple[VersionSuccessRow, ...]

    def row(self, version: str) -> VersionSuccessRow:
        for row in self.rows:
            if row.version == version:
                return row
        raise KeyError(f"version {version!r} not evaluated")

    @property
    def newer_versions_harder(self) -> bool:
        """Android 10 succeeds less often than 9 (larger Tmis)."""
        return self.row("10").success_rate <= self.row("9").success_rate + 2.0


def _run_table3_by_version(
    scale: ExperimentScale = QUICK,
    password_length: int = 8,
) -> Table3ByVersionResult:
    """Password-stealing success split by Android version."""
    per_group = max(2, scale.participants // 4)
    rows: List[VersionSuccessRow] = []
    with scoped_executor():
        _table3_by_version_rows(rows, scale, password_length, per_group)
    return Table3ByVersionResult(password_length=password_length,
                                 rows=tuple(rows))


def _table3_by_version_rows(
    rows: List[VersionSuccessRow],
    scale: ExperimentScale,
    password_length: int,
    per_group: int,
) -> None:
    for version, devices in sorted(devices_by_version().items()):
        members: Sequence[Participant] = generate_participants(
            SeededRng(scale.seed, f"t3v-participants/{version}"),
            count=min(per_group, len(devices)) if scale.participants < 30
            else len(devices),
            devices=devices,
        )
        attempts = 0
        successes = 0
        for participant in members:
            spec = KeyboardSpec(
                default_keyboard_rect(
                    participant.device.screen_width_px,
                    participant.device.screen_height_px,
                )
            )
            stream = SeededRng(
                scale.seed, f"t3v/{version}/{participant.participant_id}"
            )
            generator = PasswordGenerator(stream.child("pw"), spec)
            for _ in range(scale.passwords_per_length):
                trial = run_password_trial(
                    participant,
                    generator.generate(password_length),
                    seed=stream.randint(0, 2**31 - 1),
                    type_username_first=False,
                )
                attempts += 1
                successes += trial.success
        rows.append(
            VersionSuccessRow(
                version=version,
                attempts=attempts,
                successes=successes,
                ci=wilson_interval(successes, attempts),
            )
        )


@dataclass(frozen=True)
class Fig7CiRow(SerializableMixin):
    attacking_window_ms: float
    mean: float
    ci: ConfidenceInterval


@dataclass(frozen=True)
class Fig7WithCisResult(SerializableMixin):
    rows: Tuple[Fig7CiRow, ...]

    @property
    def all_cis_reasonably_tight(self) -> bool:
        return all(row.ci.width < 25.0 for row in self.rows)


def _run_fig7_with_cis(
    scale: ExperimentScale = QUICK,
    durations: Sequence[float] = FIG7_DURATIONS,
) -> Fig7WithCisResult:
    """Fig. 7 means with 95% bootstrap CIs over participants."""
    base = _run_fig7(scale, durations=durations)
    rows: List[Fig7CiRow] = []
    for stats in base.stats:
        ci = bootstrap_mean_ci(
            stats.per_participant, seed=scale.seed, resamples=1000
        )
        rows.append(
            Fig7CiRow(
                attacking_window_ms=stats.attacking_window_ms,
                mean=stats.mean,
                ci=ci,
            )
        )
    return Fig7WithCisResult(rows=tuple(rows))
