"""Comparing password-entry detection channels (Section VI-C2 note).

The paper uses the accessibility service to detect when the user enters a
password but stresses that "other approaches can be used". This study
compares the two implemented triggers end to end:

* **accessibility** — fires on the password widget's focus event
  (~2 ms dispatch), but is defeated by Alipay-style hardening (needing
  the username workaround);
* **UI-state side channel** — polling-based, slower to fire and noisy,
  but immune to accessibility hardening.

Reported per channel: trigger latency from focus, launch success, and
end-to-end theft success on both a plain and a hardened victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..serialization import SerializableMixin
from ..apps.accessibility import AccessibilityBus
from ..apps.catalog import VictimAppSpec, bank_of_america, spec_by_name
from ..apps.ime import RealKeyboard
from ..apps.keyboard import KeyboardSpec, default_keyboard_rect
from ..apps.victim import VictimApp
from ..attacks.password_stealing import PasswordStealingAttack
from ..attacks.timing_channels import SideChannelConfig
from ..sim.rng import SeededRng
from ..stack import AndroidStack
from ..users.participant import Participant, generate_participants
from ..users.typist import Typist
from ..windows.permissions import Permission
from .config import ExperimentScale, QUICK
from .engine import TrialSpec, drive_until, run_trial, scenario, scoped_executor


@dataclass(frozen=True)
class TriggerTrialResult(SerializableMixin):
    """One end-to-end run with one trigger channel."""

    channel: str
    victim: str
    launched: bool
    trigger_latency_ms: Optional[float]
    derived_matches: bool
    trigger_path: str


@dataclass(frozen=True)
class TriggerComparisonResult(SerializableMixin):
    trials: Tuple[TriggerTrialResult, ...]

    def channel_trials(self, channel: str) -> List[TriggerTrialResult]:
        return [t for t in self.trials if t.channel == channel]

    def mean_latency(self, channel: str) -> Optional[float]:
        latencies = [
            t.trigger_latency_ms
            for t in self.channel_trials(channel)
            if t.trigger_latency_ms is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    @property
    def accessibility_is_faster(self) -> bool:
        a11y = self.mean_latency("accessibility")
        side = self.mean_latency("side_channel")
        return a11y is not None and side is not None and a11y < side


@scenario("trigger-channel")
def trigger_channel_scenario(
    stack: AndroidStack,
    channel: str,
    victim_spec: VictimAppSpec,
    participant: Participant,
    password: str,
) -> TriggerTrialResult:
    bus = AccessibilityBus(stack.simulation)
    spec = KeyboardSpec(default_keyboard_rect(
        participant.device.screen_width_px,
        participant.device.screen_height_px))
    ime = RealKeyboard(stack, spec)
    victim = VictimApp(stack, bus, victim_spec, ime)
    malware = PasswordStealingAttack(stack, bus, victim, spec)
    stack.permissions.grant(malware.package, Permission.SYSTEM_ALERT_WINDOW)
    if channel == "accessibility":
        malware.arm()
    else:
        malware.arm_with_side_channel(SideChannelConfig())

    victim.open_login()
    stack.run_for(100.0)
    focus_time = stack.now
    victim.focus_password()
    stack.run_for(600.0)  # generous trigger window for both channels

    launched = malware.launched
    latency = (
        malware.result().launched_at - focus_time if launched else None
    )
    derived_matches = False
    if launched:
        typist = Typist(stack, spec, participant.typing, participant.touch)
        session = typist.type_text(password)
        drive_until(stack, lambda: session.complete)
        stack.run_for(300.0)
        result = malware.finish()
        derived_matches = result.derived_password == password
    return TriggerTrialResult(
        channel=channel,
        victim=victim_spec.app_name,
        launched=launched,
        trigger_latency_ms=latency,
        derived_matches=derived_matches,
        trigger_path=malware.result().trigger_path,
    )


def _run_one(
    channel: str,
    victim_spec: VictimAppSpec,
    seed: int,
    password: str,
) -> TriggerTrialResult:
    participant = generate_participants(
        SeededRng(seed, "trigger-cmp"), count=1
    )[0]
    return run_trial(TrialSpec(
        scenario="trigger-channel",
        seed=seed,
        profile=participant.device,
        params={"channel": channel, "victim_spec": victim_spec,
                "participant": participant, "password": password},
    ))


def _run_trigger_comparison(
    scale: ExperimentScale = QUICK,
    password: str = "aB3$xy",
) -> TriggerComparisonResult:
    """Both channels against a plain and a hardened victim."""
    trials: List[TriggerTrialResult] = []
    victims = (bank_of_america(), spec_by_name("Alipay"))
    with scoped_executor():
        for channel_index, channel in enumerate(("accessibility", "side_channel")):
            for victim_index, victim_spec in enumerate(victims):
                seed = scale.seed + channel_index * 101 + victim_index * 13
                trials.append(_run_one(channel, victim_spec, seed, password))
    return TriggerComparisonResult(trials=tuple(trials))
