"""The paper's contribution: animation-exploiting UI attacks.

* :class:`~.overlay_attack.DrawAndDestroyOverlayAttack` — suppresses the overlay-presence
  alert by exploiting the slow-in notification animation (Section III);
* :class:`~.toast_attack.DrawAndDestroyToastAttack` — keeps a customized toast on screen
  indefinitely by exploiting the fade-out animation (Section IV);
* :class:`~.password_stealing.PasswordStealingAttack` — composes both into a fake-keyboard
  password theft (Section V);
* :class:`NotificationFloodingAttack` — saturates the notification
  channel instead of racing its animation (Knock-Knock style);
* the analytical timing model (Eqs. 1–3) and the empirical Λ1-boundary
  finder behind Table II.

The attack classes live in their concrete modules
(``repro.attacks.overlay_attack`` etc.); the actor registry
(``repro.actors.get_attacker("draw-and-destroy")``) builds them with
permissioning and lifecycle handled.
"""

from .clickjacking import ClickjackRecord
from .device_probe import DeviceProber, MIN_USEFUL_WINDOW_MS, ProbeResult
from .fake_keyboard import FakeKeyboard, FakeKeyboardFrame
from .flooding import (
    FLOOD_PACKAGE,
    FloodingConfig,
    FloodingStats,
    NotificationFloodingAttack,
)
from .key_inference import InferredKey, KeyInference, infer_offline, reconstruct_text
from .overlay_attack import (
    CapturedTouch,
    MALWARE_PACKAGE,
    OverlayAttackConfig,
    OverlayAttackStats,
)
from .password_stealing import (
    PASSWORD_MALWARE_PACKAGE,
    PasswordAttackResult,
    PasswordErrorType,
    PasswordStealingConfig,
    classify_password_attempt,
)
from .timing_channels import SideChannelConfig, UiStateSideChannel
from .timing import (
    BoundarySearchResult,
    MistouchEstimate,
    UpperBoundFinder,
    estimate_attack_duration,
    expected_mistouch_for_profile,
    expected_mistouch_time,
    upper_bound_d,
    upper_bound_d_for_profile,
)
from .toast_attack import (
    TOAST_MALWARE_PACKAGE,
    ToastAttackConfig,
)

__all__ = [
    "BoundarySearchResult",
    "CapturedTouch",
    "ClickjackRecord",
    "DeviceProber",
    "MIN_USEFUL_WINDOW_MS",
    "ProbeResult",
    "FLOOD_PACKAGE",
    "FakeKeyboard",
    "FakeKeyboardFrame",
    "FloodingConfig",
    "FloodingStats",
    "InferredKey",
    "KeyInference",
    "MALWARE_PACKAGE",
    "MistouchEstimate",
    "NotificationFloodingAttack",
    "OverlayAttackConfig",
    "OverlayAttackStats",
    "PASSWORD_MALWARE_PACKAGE",
    "PasswordAttackResult",
    "PasswordErrorType",
    "PasswordStealingConfig",
    "SideChannelConfig",
    "TOAST_MALWARE_PACKAGE",
    "UiStateSideChannel",
    "ToastAttackConfig",
    "UpperBoundFinder",
    "classify_password_attempt",
    "estimate_attack_duration",
    "expected_mistouch_for_profile",
    "expected_mistouch_time",
    "infer_offline",
    "reconstruct_text",
    "upper_bound_d",
    "upper_bound_d_for_profile",
]
