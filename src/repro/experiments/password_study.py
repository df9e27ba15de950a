"""Table III and the stealthiness study (Sections VI-C1 and VI-C3).

Table III: passwords of length 4/6/8/10/12, each participant typing
``passwords_per_length`` random passwords mixing all four character
classes; the attack runs at each device's calibrated optimal D. Reported:
success rate plus the three error categories (length, wrong-key,
capitalization).

Stealthiness: participants type passwords on the Bank of America app with
and without the malware installed; afterwards each reports whether they
noticed anything (alert, flicker) or felt lag. The paper observed 1/30
reporting lag and nobody noticing the attack.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..apps.catalog import bank_of_america
from ..apps.keyboard import KeyboardSpec, default_keyboard_rect
from ..attacks.password_stealing import PasswordErrorType
from ..sim.rng import SeededRng
from ..users.participant import Participant, generate_participants
from ..users.passwords import TABLE_III_LENGTHS, PasswordGenerator
from .config import ExperimentScale, QUICK, TABLE_III_PAPER
from .engine import scoped_executor
from .scenarios import (
    PasswordTrialResult,
    run_control_trial,
    run_password_trial,
)


@dataclass(frozen=True)
class Table3Row(SerializableMixin):
    """Aggregated outcomes for one password length."""

    length: int
    attempts: int = 0
    successes: int = 0
    length_errors: int = 0
    capitalization_errors: int = 0
    wrong_key_errors: int = 0
    other_errors: int = 0

    @property
    def success_rate(self) -> float:
        return 100.0 * self.successes / self.attempts if self.attempts else 0.0

    @classmethod
    def from_outcomes(
        cls, length: int, outcomes: Sequence[PasswordErrorType]
    ) -> "Table3Row":
        """Aggregate one length's trial outcomes into a row."""
        counts = Counter(outcomes)
        known = (PasswordErrorType.SUCCESS, PasswordErrorType.LENGTH_ERROR,
                 PasswordErrorType.CAPITALIZATION_ERROR,
                 PasswordErrorType.WRONG_KEY_ERROR)
        return cls(
            length=length,
            attempts=len(outcomes),
            successes=counts[PasswordErrorType.SUCCESS],
            length_errors=counts[PasswordErrorType.LENGTH_ERROR],
            capitalization_errors=counts[
                PasswordErrorType.CAPITALIZATION_ERROR],
            wrong_key_errors=counts[PasswordErrorType.WRONG_KEY_ERROR],
            other_errors=sum(n for t, n in counts.items() if t not in known),
        )


@dataclass(frozen=True)
class Table3Result(SerializableMixin):
    rows: Tuple[Table3Row, ...]
    paper_reference: Dict[int, Dict[str, float]] = field(
        default_factory=lambda: dict(TABLE_III_PAPER)
    )

    def row(self, length: int) -> Table3Row:
        for row in self.rows:
            if row.length == length:
                return row
        raise KeyError(f"length {length} not evaluated")

    @property
    def success_rates(self) -> List[float]:
        return [row.success_rate for row in self.rows]

def _run_table3(
    scale: ExperimentScale = QUICK,
    lengths: Sequence[int] = TABLE_III_LENGTHS,
    participants: Optional[Sequence[Participant]] = None,
) -> Table3Result:
    """The full password-stealing study across lengths and participants."""
    pool = list(participants) if participants is not None else generate_participants(
        SeededRng(scale.seed, "participants"), count=scale.participants
    )
    rows: List[Table3Row] = []
    with scoped_executor():
        for length in lengths:
            outcomes: List[PasswordErrorType] = []
            for participant in pool:
                spec = KeyboardSpec(
                    default_keyboard_rect(
                        participant.device.screen_width_px,
                        participant.device.screen_height_px,
                    )
                )
                stream = SeededRng(scale.seed, f"table3/{length}/{participant.participant_id}")
                generator = PasswordGenerator(stream.child("passwords"), spec)
                for attempt in range(scale.passwords_per_length):
                    password = generator.generate(length)
                    trial = run_password_trial(
                        participant,
                        password,
                        seed=stream.randint(0, 2**31 - 1),
                        type_username_first=False,
                    )
                    outcomes.append(trial.error_type)
            rows.append(Table3Row.from_outcomes(length, outcomes))
    return Table3Result(rows=tuple(rows))


def _render_table3(result: Table3Result) -> str:
    out = ["| length | success % (paper) | length err | capitalization err | "
           "wrong key err | attempts |\n|---|---|---|---|---|---|\n"]
    for row in result.rows:
        paper = result.paper_reference.get(row.length, {})
        out.append(
            f"| {row.length} | {row.success_rate:.1f} "
            f"({paper.get('success_rate', '—')}) | {row.length_errors} | "
            f"{row.capitalization_errors} | {row.wrong_key_errors} | "
            f"{row.attempts} |\n")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Stealthiness (Section VI-C3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StealthinessResult(SerializableMixin):
    """User-reported observations with and without the malware."""

    participants: int
    noticed_alert: int
    noticed_flicker: int
    reported_lag: int
    noticed_anything_without_malware: int

    @property
    def noticed_attack(self) -> int:
        return self.noticed_alert + self.noticed_flicker


def _run_stealthiness(
    scale: ExperimentScale = QUICK,
    password_length: int = 8,
) -> StealthinessResult:
    """BofA typing sessions with the malware; perception statistics."""
    pool = generate_participants(
        SeededRng(scale.seed, "participants"), count=scale.participants
    )
    noticed_alert = 0
    noticed_flicker = 0
    reported_lag = 0
    control_noticed = 0
    with scoped_executor():
        for participant in pool:
            spec = KeyboardSpec(
                default_keyboard_rect(
                    participant.device.screen_width_px,
                    participant.device.screen_height_px,
                )
            )
            stream = SeededRng(scale.seed, f"stealth/{participant.participant_id}")
            generator = PasswordGenerator(stream.child("passwords"), spec)
            trial: PasswordTrialResult = run_password_trial(
                participant,
                generator.generate(password_length),
                seed=stream.randint(0, 2**31 - 1),
                victim_spec=bank_of_america(),
                type_username_first=False,
            )
            if trial.alert_noticed:
                noticed_alert += 1
            if trial.flicker_noticed:
                noticed_flicker += 1
            if trial.lag_reported:
                reported_lag += 1
            # Control arm: the same participant, same app, no malware.
            control = run_control_trial(
                participant,
                generator.generate(password_length),
                seed=stream.randint(0, 2**31 - 1),
                victim_spec=bank_of_america(),
            )
            if control.noticed_anything:
                control_noticed += 1
    return StealthinessResult(
        participants=len(pool),
        noticed_alert=noticed_alert,
        noticed_flicker=noticed_flicker,
        reported_lag=reported_lag,
        noticed_anything_without_malware=control_noticed,
    )


def _render_stealthiness(result: StealthinessResult) -> str:
    return (f"- participants: {result.participants}\n"
            f"- noticed the alert: {result.noticed_alert} (paper: 0)\n"
            f"- noticed toast flicker: {result.noticed_flicker} (paper: 0)\n"
            f"- reported lag: {result.reported_lag} (paper: 1/30)\n\n")
