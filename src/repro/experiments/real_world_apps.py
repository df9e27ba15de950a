"""Table IV: the password-stealing attack against eight real-world apps.

Every app is attackable; Alipay requires the extra username-widget
workaround because it disables accessibility events on the password field
(Section VI-C1). The reproduction runs one full attack per app and reports
whether the attack launched, which trigger path it used, and whether the
derived password matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..apps.catalog import TABLE_IV_APPS, VictimAppSpec
from ..sim.rng import SeededRng
from ..users.participant import generate_participants
from .config import ExperimentScale, QUICK
from .engine import scoped_executor
from .scenarios import run_password_trial


@dataclass(frozen=True)
class Table4Row(SerializableMixin):
    """One victim app's outcome."""

    app_name: str
    version: str
    compromised: bool
    trigger_path: str
    needs_extra_effort: bool
    derived_matches: bool

    @property
    def marker(self) -> str:
        """Table IV notation: check = direct, * = extra effort needed."""
        if not self.compromised:
            return "x"
        return "*" if self.needs_extra_effort else "✓"


@dataclass(frozen=True)
class Table4Result(SerializableMixin):
    rows: Tuple[Table4Row, ...]

    @property
    def all_compromised(self) -> bool:
        return all(row.compromised for row in self.rows)

    def row(self, app_name: str) -> Table4Row:
        for row in self.rows:
            if row.app_name == app_name:
                return row
        raise KeyError(f"app {app_name!r} not evaluated")


def _run_table4(
    scale: ExperimentScale = QUICK,
    apps: Optional[Sequence[VictimAppSpec]] = None,
    password: str = "tk&%48GH",
) -> Table4Result:
    """Attack each Table IV app once (the paper's video-demo password is
    the default ground truth)."""
    participant = generate_participants(
        SeededRng(scale.seed, "participants"), count=1
    )[0]
    rows = []
    with scoped_executor():
        for index, spec in enumerate(apps or TABLE_IV_APPS):
            trial = run_password_trial(
                participant,
                password,
                seed=scale.seed + index * 7919,
                victim_spec=spec,
                type_username_first=True,
            )
            launched = trial.trigger_path != "none"
            rows.append(
                Table4Row(
                    app_name=spec.app_name,
                    version=spec.version,
                    compromised=launched and len(trial.derived) > 0,
                    trigger_path=trial.trigger_path,
                    needs_extra_effort=trial.trigger_path == "username_workaround",
                    derived_matches=trial.success,
                )
            )
    return Table4Result(rows=tuple(rows))
