"""repro — reproduction of "Implication of Animation on Android Security"
(ICDCS 2022).

The package simulates the Android UI stack (Binder IPC, Window Manager,
System UI notification pipeline, toast scheduling, animations) as a
deterministic discrete-event system, implements the paper's
draw-and-destroy overlay attack, draw-and-destroy toast attack and
password-stealing attack on top of it, reproduces every table and figure
of the evaluation, and implements the proposed defenses.

Quickstart::

    from repro import build_stack, DrawAndDestroyOverlayAttack, \
        OverlayAttackConfig, Permission

    stack = build_stack(seed=1)
    attack = DrawAndDestroyOverlayAttack(
        stack, OverlayAttackConfig(attacking_window_ms=150))
    stack.permissions.grant(attack.package, Permission.SYSTEM_ALERT_WINDOW)
    attack.start()
    stack.run_for(5_000)
    print(stack.system_ui.worst_outcome())   # Λ1: alert fully suppressed

Experiments go through the :mod:`repro.api` facade::

    from repro import run_experiment
    fig7 = run_experiment("fig7")            # capture rate vs D

See docs/API.md for the full public surface, DESIGN.md for the
architecture and EXPERIMENTS.md for the paper-vs-measured comparison.
"""

from .api import (
    FULL,
    QUICK,
    SMOKE,
    ExperimentRequest,
    ExperimentScale,
    FeasibilityQuery,
    FeasibilityReport,
    RunPolicy,
    ScenarioMatrix,
    format_report,
    query_feasibility,
    run_all,
    run_experiment,
    run_matrix,
)
from .attacks.overlay_attack import (
    DrawAndDestroyOverlayAttack,
    OverlayAttackConfig,
)
from .attacks.password_stealing import (
    PasswordStealingAttack,
    PasswordStealingConfig,
)
from .attacks.toast_attack import DrawAndDestroyToastAttack, ToastAttackConfig
from .defenses import (
    EnhancedNotificationDefense,
    IpcDetector,
    ToastSpacingDefense,
)
from .devices import DEVICES, DeviceProfile, device, reference_device
from .sim import Simulation
from .stack import AndroidStack, build_stack
from .systemui import AlertMode, NotificationOutcome
from .windows import Permission

__version__ = "1.0.0"

# The pinned public surface. tests/test_api_surface.py snapshots this
# list — additions are deliberate API growth, removals are breaking.
__all__ = [
    "AlertMode",
    "AndroidStack",
    "DEVICES",
    "DeviceProfile",
    "DrawAndDestroyOverlayAttack",
    "DrawAndDestroyToastAttack",
    "EnhancedNotificationDefense",
    "ExperimentRequest",
    "ExperimentScale",
    "FULL",
    "FeasibilityQuery",
    "FeasibilityReport",
    "IpcDetector",
    "NotificationOutcome",
    "OverlayAttackConfig",
    "PasswordStealingAttack",
    "PasswordStealingConfig",
    "Permission",
    "QUICK",
    "RunPolicy",
    "SMOKE",
    "ScenarioMatrix",
    "Simulation",
    "ToastAttackConfig",
    "ToastSpacingDefense",
    "build_stack",
    "device",
    "format_report",
    "query_feasibility",
    "reference_device",
    "run_all",
    "run_experiment",
    "run_matrix",
    "__version__",
]
