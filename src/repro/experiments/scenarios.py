"""Reusable end-to-end scenario runners.

These building blocks power most experiments:

* :func:`run_notification_trial` — run one attacker model (by default the
  bare draw-and-destroy overlay attack) on one device for a while and
  report the worst notification outcome (Fig. 6 / Table II, and the
  feasibility service's D sweep);
* :func:`run_capture_trial` — one participant types random characters on
  the testing app while the overlay attack runs; reports the committed
  touch-capture rate (Fig. 7 / Fig. 8);
* :func:`run_password_trial` — the full password-stealing attack against a
  victim app, including trigger, fake keyboard, inference and perception
  (Table III / Table IV / stealthiness study);
* ``overlay-coverage`` — a traced attack run whose overlay coverage Eq. (2)
  validation and the noise sweep read off;
* ``benign-overlays`` — benign overlay apps under the IPC detector, the
  false-positive control of every detector study.

Each is a registered engine scenario (it runs against a leased stack); the
``run_*`` wrappers build the :class:`~repro.experiments.engine.TrialSpec`
and route through :func:`~repro.experiments.engine.run_trial` — under an
experiment's executor the stack is reused across trials; standalone calls
still build per trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..serialization import SerializableMixin
from ..actors import AttackerModel, UserModel, get_attacker
from ..analysis.uncovered_time import CoverageTimeline, measure_overlay_coverage
from ..apps.catalog import VictimAppSpec, bank_of_america
from ..apps.ime import RealKeyboard
from ..apps.accessibility import AccessibilityBus
from ..apps.keyboard import (
    KEY_ENTER,
    KeyboardSpec,
    KeyPress,
    default_keyboard_rect,
    plan_key_sequence,
)
from ..apps.victim import VictimApp
from ..attacks.overlay_attack import DrawAndDestroyOverlayAttack, OverlayAttackConfig
from ..attacks.password_stealing import (
    PasswordAttackResult,
    PasswordErrorType,
    PasswordStealingAttack,
    PasswordStealingConfig,
    classify_password_attempt,
)
from ..defenses.benign import BenignOverlayApp
from ..defenses.ipc_detector import DetectionRule, IpcDetector
from ..devices.profiles import DeviceProfile
from ..sim.rng import SeededRng
from ..stack import AndroidStack
from ..systemui.outcomes import NotificationOutcome
from ..systemui.system_ui import AlertMode
from ..users.participant import Participant
from ..users.passwords import PasswordGenerator
from ..users.typist import Typist
from ..windows.permissions import Permission
from ..windows.touch import TapOutcome
from .engine import TrialSpec, drive_until, run_trial, scenario

#: Settling time appended after the last user action or attack withdrawal
#: (ms); every scenario and the served queries settle for the same time so
#: outcomes classify identically.
SETTLE_MS = 400.0

#: The notification scenario's default attacker, resolved once: campaigns
#: run that scenario per trial.
_DRAW_AND_DESTROY = get_attacker("draw-and-destroy")


# ---------------------------------------------------------------------------
# Notification outcome trials (Fig. 6, Table II)
# ---------------------------------------------------------------------------

@scenario("notification")
def notification_scenario(
    stack: AndroidStack,
    attacking_window_ms: float,
    duration_ms: float = 3000.0,
    attacker: AttackerModel = _DRAW_AND_DESTROY,
    user: Optional[UserModel] = None,
) -> NotificationOutcome:
    """One attacker model alone; classify the alert's worst outcome.

    Defaults to the paper's draw-and-destroy overlay. ``attacker``/``user``
    arrive as resolved behavior models when the :class:`TrialSpec` carries
    labels, so a matrix can sweep the ``attackers`` axis (e.g. racing vs.
    flooding); the user model is unused — the trial measures the alert,
    not input capture.
    """
    handle = attacker.launch(stack, attacking_window_ms=attacking_window_ms)
    stack.run_for(duration_ms)
    worst_during = stack.system_ui.worst_outcome()
    attacker.withdraw(handle)
    stack.run_for(SETTLE_MS)
    worst_after = stack.system_ui.worst_outcome()
    return max(worst_during, worst_after)


def run_notification_trial(
    profile: DeviceProfile,
    attacking_window_ms: float,
    seed: int,
    duration_ms: float = 3000.0,
    alert_mode: AlertMode = AlertMode.ANALYTIC,
    faults=None,
) -> NotificationOutcome:
    """Run the overlay attack alone and classify the alert's worst outcome."""
    return run_trial(TrialSpec(
        scenario="notification",
        seed=seed,
        profile=profile,
        alert_mode=alert_mode,
        trace_enabled=False,
        faults=faults,
        params={"attacking_window_ms": attacking_window_ms,
                "duration_ms": duration_ms},
    ))


# ---------------------------------------------------------------------------
# Trace-measured overlay coverage (Eq. 2 validation, noise sensitivity)
# ---------------------------------------------------------------------------

@scenario("overlay-coverage")
def overlay_coverage_scenario(
    stack: AndroidStack,
    attacking_window_ms: float,
    attack_ms: float,
    adaptive: bool = False,
) -> Tuple[CoverageTimeline, int]:
    """Run draw-and-destroy for ``attack_ms`` on a traced stack; return
    its overlay coverage over ``[0, attack end]`` and the window
    widenings the (optionally adaptive) attack performed."""
    handle = _DRAW_AND_DESTROY.launch(
        stack, attacking_window_ms=attacking_window_ms, adaptive=adaptive)
    stack.run_for(attack_ms)
    end = stack.now
    _DRAW_AND_DESTROY.withdraw(handle)
    stack.run_for(500.0)
    coverage = measure_overlay_coverage(
        stack.simulation.trace, handle.package, 0.0, end)
    return coverage, handle.stats.adaptations


# ---------------------------------------------------------------------------
# Benign overlay workloads (IPC detector false-positive controls)
# ---------------------------------------------------------------------------

#: One benign overlay workload: ``(package, dwell_ms, pause_ms)``.
BenignApp = Tuple[str, float, float]


@scenario("benign-overlays")
def benign_overlays_scenario(
    stack: AndroidStack,
    apps: Sequence[BenignApp],
    observation_ms: float,
    rule: Optional[DetectionRule] = None,
    terminate_on_detection: bool = True,
) -> Tuple[int, int]:
    """Benign overlay apps under the IPC detector — the false-positive
    control of every detector study; returns (flagged, observed)."""
    detector = IpcDetector(stack.router, stack.system_server, rule=rule,
                           terminate_on_detection=terminate_on_detection)
    running = []
    for package, dwell_ms, pause_ms in apps:
        app = BenignOverlayApp(stack, package=package, dwell_ms=dwell_ms,
                               pause_ms=pause_ms)
        stack.permissions.grant(app.package, Permission.SYSTEM_ALERT_WINDOW)
        app.start()
        running.append(app)
    stack.run_for(observation_ms)
    for app in running:
        app.stop()
    stack.run_for(500.0)
    flagged = sum(1 for app in running if detector.is_flagged(app.package))
    return flagged, len(running)


# ---------------------------------------------------------------------------
# Touch-capture trials (Fig. 7, Fig. 8)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaptureTrialResult(SerializableMixin):
    """One participant-string capture measurement."""

    total_taps: int
    committed_to_overlay: int
    down_seen_by_overlay: int
    cancelled: int

    @property
    def capture_rate(self) -> float:
        """Committed capture rate — what the paper's testing app counts."""
        if self.total_taps == 0:
            return 0.0
        return self.committed_to_overlay / self.total_taps

    @property
    def down_capture_rate(self) -> float:
        """Coordinates seen at ACTION_DOWN — what the password thief gets."""
        if self.total_taps == 0:
            return 0.0
        return self.down_seen_by_overlay / self.total_taps


@scenario("capture")
def capture_scenario(
    stack: AndroidStack,
    participant: Participant,
    attacking_window_ms: float,
    seed: int,
    n_chars: int = 10,
    adaptive: bool = False,
) -> CaptureTrialResult:
    """One random string typed into the testing app under attack.

    ``seed`` is passed explicitly (in addition to seeding the stack)
    because the generated text historically draws from the independent
    ``SeededRng(seed, "capture-text")`` stream.
    """
    spec = KeyboardSpec(
        default_keyboard_rect(
            participant.device.screen_width_px, participant.device.screen_height_px
        )
    )
    attack = DrawAndDestroyOverlayAttack(
        stack,
        OverlayAttackConfig(
            attacking_window_ms=attacking_window_ms, adaptive=adaptive
        ),
    )
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    typist = Typist(stack, spec, participant.typing, participant.touch)
    generator = PasswordGenerator(SeededRng(seed, "capture-text"), spec)
    text = generator.generate_letters(n_chars)

    attack.start()
    stack.run_for(50.0)  # let the first overlay come up
    session = typist.type_text(text)
    drive_until(stack, lambda: session.complete)
    attack.stop()
    stack.run_for(SETTLE_MS)

    committed = sum(
        1
        for executed in session.taps
        if executed.tap.outcome is TapOutcome.DELIVERED
        and executed.tap.target_owner == attack.package
    )
    down_seen = sum(
        1
        for executed in session.taps
        if executed.tap.target_owner == attack.package
    )
    cancelled = sum(
        1
        for executed in session.taps
        if executed.tap.outcome is TapOutcome.CANCELLED_WINDOW_REMOVED
    )
    return CaptureTrialResult(
        total_taps=len(session.taps),
        committed_to_overlay=committed,
        down_seen_by_overlay=down_seen,
        cancelled=cancelled,
    )


def run_capture_trial(
    participant: Participant,
    attacking_window_ms: float,
    seed: int,
    n_chars: int = 10,
    faults=None,
    adaptive: bool = False,
) -> CaptureTrialResult:
    """One random string typed into the testing app under attack.

    ``faults`` selects the fault regime for the stack (profile name,
    :class:`~repro.sim.faults.FaultProfile`, or ``None`` for the ambient
    default); ``adaptive`` enables the attack's failure-driven window
    widening.
    """
    return run_trial(TrialSpec(
        scenario="capture",
        seed=seed,
        profile=participant.device,
        alert_mode=AlertMode.ANALYTIC,
        trace_enabled=False,
        faults=faults,
        params={"participant": participant,
                "attacking_window_ms": attacking_window_ms,
                "seed": seed,
                "n_chars": n_chars,
                "adaptive": adaptive},
    ))


# ---------------------------------------------------------------------------
# Password-stealing trials (Table III, Table IV, stealthiness)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PasswordTrialResult(SerializableMixin):
    """One end-to-end password theft attempt."""

    truth: str
    derived: str
    error_type: PasswordErrorType
    trigger_path: str
    attacking_window_ms: float
    keyboard_switches: int
    alert_noticed: bool
    flicker_noticed: bool
    lag_reported: bool
    attack_result: PasswordAttackResult

    @property
    def success(self) -> bool:
        return self.error_type is PasswordErrorType.SUCCESS

    @property
    def noticed_anything(self) -> bool:
        return self.alert_noticed or self.flicker_noticed


@dataclass(frozen=True)
class ControlTrialResult(SerializableMixin):
    """One no-malware session: the study's control arm."""

    truth: str
    typed_into_widget: str
    alert_noticed: bool
    flicker_noticed: bool
    lag_reported: bool

    @property
    def typed_correctly(self) -> bool:
        return self.typed_into_widget == self.truth

    @property
    def noticed_anything(self) -> bool:
        return self.alert_noticed or self.flicker_noticed


@scenario("control")
def control_scenario(
    stack: AndroidStack,
    participant: Participant,
    password: str,
    victim_spec: Optional[VictimAppSpec] = None,
) -> ControlTrialResult:
    """The stealthiness study's control arm: same victim app, same typing,
    no malware installed. The password reaches the real keyboard and the
    real widget; there is no alert and no toast to notice."""
    victim_spec = victim_spec or bank_of_america()
    bus = AccessibilityBus(stack.simulation)
    spec = KeyboardSpec(
        default_keyboard_rect(
            participant.device.screen_width_px, participant.device.screen_height_px
        )
    )
    ime = RealKeyboard(stack, spec)
    victim = VictimApp(stack, bus, victim_spec, ime)
    victim.open_login()
    stack.run_for(100.0)
    victim.focus_password()
    stack.run_for(120.0)
    typist = Typist(stack, spec, participant.typing, participant.touch)
    session = typist.type_text(password, initial_delay_ms=150.0)
    drive_until(stack, lambda: session.complete)
    stack.run_for(SETTLE_MS)
    perception = participant.perception
    return ControlTrialResult(
        truth=password,
        typed_into_widget=victim.password_widget.text,
        alert_noticed=perception.notices_alert(stack.system_ui),
        flicker_noticed=False,  # no toasts exist to flicker
        lag_reported=False,     # nothing adds latency in the control arm
    )


def run_control_trial(
    participant: Participant,
    password: str,
    seed: int,
    victim_spec: Optional[VictimAppSpec] = None,
) -> ControlTrialResult:
    """The stealthiness study's control arm (see :func:`control_scenario`)."""
    return run_trial(TrialSpec(
        scenario="control",
        seed=seed,
        profile=participant.device,
        alert_mode=AlertMode.ANALYTIC,
        trace_enabled=False,
        params={"participant": participant,
                "password": password,
                "victim_spec": victim_spec},
    ))


@scenario("password")
def password_scenario(
    stack: AndroidStack,
    participant: Participant,
    password: str,
    seed: int,
    victim_spec: Optional[VictimAppSpec] = None,
    attack_config: Optional[PasswordStealingConfig] = None,
    type_username_first: bool = True,
    username: str = "victimuser",
) -> PasswordTrialResult:
    """Full attack run: login, trigger, fake keyboard, theft, perception."""
    victim_spec = victim_spec or bank_of_america()
    bus = AccessibilityBus(stack.simulation)
    spec = KeyboardSpec(
        default_keyboard_rect(
            participant.device.screen_width_px, participant.device.screen_height_px
        )
    )
    ime = RealKeyboard(stack, spec)
    victim = VictimApp(stack, bus, victim_spec, ime)
    malware = PasswordStealingAttack(
        stack, bus, victim, spec, config=attack_config
    )
    stack.permissions.grant(malware.package, Permission.SYSTEM_ALERT_WINDOW)
    malware.arm()

    victim.open_login()
    stack.run_for(100.0)
    typist = Typist(stack, spec, participant.typing, participant.touch)

    if type_username_first:
        victim.focus_username()
        stack.run_for(50.0)
        username_session = typist.type_text(username)
        drive_until(stack, lambda: username_session.complete)

    # The user taps into the password field; the focus change (or, for
    # hardened apps, the username widget's content-changed event) triggers
    # the malware.
    victim.focus_password()
    stack.run_for(120.0)  # accessibility dispatch + attack launch + overlays

    presses: List[KeyPress] = plan_key_sequence(spec, password)
    final_layout = presses[-1].layout if presses else "lower"
    import_layout = KeyboardSpec.layout_after_key(final_layout, presses[-1].key) if presses else "lower"
    presses = presses + [KeyPress(layout=import_layout, key=KEY_ENTER)]
    session = typist.type_presses(password, presses, initial_delay_ms=150.0)
    drive_until(stack, lambda: session.complete)
    stack.run_for(SETTLE_MS)
    result = malware.finish()
    stack.run_for(SETTLE_MS)

    error_type = classify_password_attempt(password, result.derived_password)
    perception = participant.perception
    perception_rng = SeededRng(seed, "perception")
    return PasswordTrialResult(
        truth=password,
        derived=result.derived_password,
        error_type=error_type,
        trigger_path=result.trigger_path,
        attacking_window_ms=malware.attacking_window_ms,
        keyboard_switches=result.keyboard_switches,
        alert_noticed=perception.notices_alert(stack.system_ui),
        flicker_noticed=perception.notices_flicker(
            malware.toast_attack.switches(), background_identical=True
        ),
        lag_reported=perception.reports_lag(perception_rng),
        attack_result=result,
    )


def run_password_trial(
    participant: Participant,
    password: str,
    seed: int,
    victim_spec: Optional[VictimAppSpec] = None,
    attack_config: Optional[PasswordStealingConfig] = None,
    type_username_first: bool = True,
    username: str = "victimuser",
) -> PasswordTrialResult:
    """Full attack run: login, trigger, fake keyboard, theft, perception."""
    return run_trial(TrialSpec(
        scenario="password",
        seed=seed,
        profile=participant.device,
        alert_mode=AlertMode.ANALYTIC,
        trace_enabled=False,
        params={"participant": participant,
                "password": password,
                "seed": seed,
                "victim_spec": victim_spec,
                "attack_config": attack_config,
                "type_username_first": type_username_first,
                "username": username},
    ))
