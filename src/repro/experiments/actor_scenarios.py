"""Scenario families built on the actor layer.

Two new regimes extend the paper's draw-and-destroy study along the axes
the actor layer makes sweepable:

* ``notification-flooding`` — the attacker gives up the animation race
  and saturates the alert *channel* instead (Knock-Knock style): one
  persistent overlay, so the overlay-presence alert completes cleanly
  (Λ5), buried under a stream of junk notifications. Evaluated against
  the IPC detector, whose paired add/remove rule is structurally blind
  to a single ``addView``.
* ``gui-agent-user`` — the victim is a screenshot-then-click GUI agent
  rather than a human: its perceive-to-act latency is hundreds of
  milliseconds, so an overlay swap anywhere inside the inference window
  captures a click decided against a stale frame. The attacker axis
  stays draw-and-destroy; what changes is the timing-window *regime*.

Both scenarios default their behavior models but accept the engine's
resolved ``attacker`` / ``user`` params, so a :class:`ScenarioMatrix`
can sweep either axis (e.g. flooding vs. racing against the same
detector, or human vs. agent under the same attack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..actors import AttackerModel, UserModel, get_attacker, get_channel, get_user
from ..apps.keyboard import KeyboardSpec, default_keyboard_rect
from ..defenses.ipc_detector import DetectionRule, IpcDetector
from ..serialization import SerializableMixin
from ..stack import AndroidStack
from ..systemui.outcomes import NotificationOutcome
from ..users.passwords import PasswordGenerator
from ..users.perception import PerceptionModel
from ..windows.touch import TapOutcome
from .engine import TrialSpec, drive_until, run_trial, scenario
from .scenarios import SETTLE_MS


# ---------------------------------------------------------------------------
# Notification flooding (channel saturation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloodingTrialResult(SerializableMixin):
    """One channel-saturation run, judged on both fronts.

    The animation front (``worst_outcome``) and the channel front
    (``alert_occluded`` / ``alert_conspicuous``) fail independently: a
    flooding attacker *loses* the animation race on purpose and still
    keeps the alert from ever reaching the user.
    """

    worst_outcome: NotificationOutcome
    #: Was the overlay-presence alert pushed below the drawer fold?
    alert_occluded: bool
    #: Junk notifications the channel accepted during the run.
    posts_delivered: int
    #: Drawer saturation (posts / status-bar slots) at measurement time.
    channel_saturation: float
    #: Would the modelled user actually have noticed the alert?
    alert_conspicuous: bool
    #: Did the IPC detector flag the attacking package?
    detector_flagged: bool

    @property
    def alert_evaded(self) -> bool:
        """The user never effectively saw the alert, however that happened."""
        return not self.alert_conspicuous

    @property
    def stealthy(self) -> bool:
        """Evaded both the user and the deployed defense."""
        return self.alert_evaded and not self.detector_flagged


@scenario("notification-flooding")
def notification_flooding_scenario(
    stack: AndroidStack,
    attacker: Optional[AttackerModel] = None,
    duration_ms: float = 3000.0,
    detection_rule: Optional[DetectionRule] = None,
    perception: Optional[PerceptionModel] = None,
    **attack_params: Any,
) -> FloodingTrialResult:
    """Run one attacker against the notification channel + IPC detector.

    Defaults to the flooding attacker; sweeping the matrix's
    ``attackers`` axis over ``("notification-flooding",
    "draw-and-destroy")`` contrasts the two evasion strategies against
    the *same* defense: the racer beats the user but trips the detector,
    the flooder is invisible to the detector but must bury the alert.
    """
    attacker = attacker or get_attacker("notification-flooding")
    perception = perception or PerceptionModel()
    drawer = get_channel("notification-drawer")
    detector = IpcDetector(stack.router, stack.system_server,
                           rule=detection_rule,
                           terminate_on_detection=False)
    handle = attacker.launch(stack, **attack_params)
    package = handle.package
    stack.run_for(duration_ms)
    # Judge the channel while the attack (and any surviving alert) is live.
    worst_during = stack.system_ui.worst_outcome()
    occluded = stack.system_ui.alert_occluded(package)
    posts = stack.system_ui.posted_count()
    saturation = drawer.saturation(stack)
    conspicuous = drawer.alert_conspicuous(stack, package, perception)
    attacker.withdraw(handle)
    stack.run_for(SETTLE_MS)
    return FloodingTrialResult(
        worst_outcome=max(worst_during, stack.system_ui.worst_outcome()),
        alert_occluded=occluded,
        posts_delivered=posts,
        channel_saturation=saturation,
        alert_conspicuous=conspicuous,
        detector_flagged=detector.is_flagged(package),
    )


def run_flooding_trial(
    seed: int,
    profile=None,
    duration_ms: float = 3000.0,
    attacker: str = "notification-flooding",
    faults: Any = None,
    **attack_params: Any,
) -> FloodingTrialResult:
    """One flooding-family trial through the engine's attacker axis."""
    return run_trial(TrialSpec(
        scenario="notification-flooding",
        seed=seed,
        profile=profile,
        faults=faults,
        params={"duration_ms": duration_ms, **attack_params},
        attacker=attacker,
    ))


# ---------------------------------------------------------------------------
# GUI-agent victims (stale-percept timing regime)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentTrialResult(SerializableMixin):
    """One user-model session typed under an active overlay attack."""

    user_model: str
    total_taps: int
    #: Taps whose gesture committed into the attacker's overlay.
    captured_committed: int
    #: Taps whose ACTION_DOWN coordinates the overlay saw.
    captured_down: int
    cancelled: int
    #: Taps decided against a frame whose topmost window had changed by
    #: act time — the stale-percept signature of slow perceive-to-act.
    stale_taps: int
    mean_percept_age_ms: float
    detector_flagged: bool

    @property
    def capture_rate(self) -> float:
        if self.total_taps == 0:
            return 0.0
        return self.captured_committed / self.total_taps

    @property
    def stale_fraction(self) -> float:
        if self.total_taps == 0:
            return 0.0
        return self.stale_taps / self.total_taps


@scenario("gui-agent-user")
def gui_agent_user_scenario(
    stack: AndroidStack,
    user: Optional[UserModel] = None,
    attacker: Optional[AttackerModel] = None,
    n_chars: int = 8,
    detection_rule: Optional[DetectionRule] = None,
    **attack_params: Any,
) -> AgentTrialResult:
    """One user model types a random string under draw-and-destroy.

    Defaults to the ``gui-agent`` user; sweeping the ``users`` axis over
    ``("stochastic-human", "gui-agent")`` measures how the same attack's
    capture rate shifts when the victim's perceive-to-act latency grows
    from one keystroke interval to a screenshot + inference round trip.
    """
    user = user or get_user("gui-agent")
    attacker = attacker or get_attacker("draw-and-destroy")
    spec = KeyboardSpec(default_keyboard_rect(
        stack.profile.screen_width_px, stack.profile.screen_height_px))
    # Text comes off the stack's seed tree so matrix cells stay
    # self-contained (no side-channel seed param).
    generator = PasswordGenerator(
        stack.simulation.rng.child("agent-text"), spec)
    text = generator.generate_letters(n_chars)
    detector = IpcDetector(stack.router, stack.system_server,
                           rule=detection_rule,
                           terminate_on_detection=False)
    handle = attacker.launch(stack, **attack_params)
    stack.run_for(50.0)  # let the first overlay come up
    session = user.type_text(stack, spec, text)
    drive_until(stack, lambda: session.complete)
    attacker.withdraw(handle)
    stack.run_for(SETTLE_MS)
    package = handle.package
    committed = sum(
        1 for t in session.taps
        if t.tap.outcome is TapOutcome.DELIVERED
        and t.tap.target_owner == package
    )
    cancelled = sum(
        1 for t in session.taps
        if t.tap.outcome is TapOutcome.CANCELLED_WINDOW_REMOVED
    )
    return AgentTrialResult(
        user_model=user.name,
        total_taps=len(session.taps),
        captured_committed=committed,
        captured_down=session.captured_by(package),
        cancelled=cancelled,
        stale_taps=session.stale_count,
        mean_percept_age_ms=session.mean_percept_age_ms,
        detector_flagged=detector.is_flagged(package),
    )


def run_gui_agent_trial(
    seed: int,
    profile=None,
    user: str = "gui-agent",
    attacker: str = "draw-and-destroy",
    n_chars: int = 8,
    faults: Any = None,
    **attack_params: Any,
) -> AgentTrialResult:
    """One agent-family trial through the engine's user/attacker axes."""
    return run_trial(TrialSpec(
        scenario="gui-agent-user",
        seed=seed,
        profile=profile,
        faults=faults,
        params={"n_chars": n_chars, **attack_params},
        attacker=attacker,
        user=user,
    ))
