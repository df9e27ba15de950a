"""Snapshot of the public API surface.

``repro.__all__`` and ``repro.api.__all__`` are the contract users code
against. These lists are pinned verbatim: a diff here is either
deliberate API growth (update the snapshot in the same commit) or an
accidental breaking change (fix the package).
"""

import repro
import repro.api
import repro.experiments

REPRO_ALL = [
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

API_ALL = [
    "AllResults",
    "AndroidStack",
    "CampaignManifest",
    "CampaignResult",
    "ExperimentFailure",
    "ExperimentRequest",
    "ExperimentScale",
    "FULL",
    "FeasibilityQuery",
    "FeasibilityReport",
    "QUICK",
    "QueryResponse",
    "RunPolicy",
    "SMOKE",
    "ScenarioMatrix",
    "TrialExecutor",
    "TrialOutcome",
    "build_stack",
    "experiment_names",
    "format_report",
    "matrix_from_spec",
    "query_feasibility",
    "run_all",
    "run_campaign",
    "run_experiment",
    "run_matrix",
]

#: The ``run_*`` callables ``repro.experiments`` exports. No suite
#: experiment has an entry point of its own (no ``run_fig7``): they all
#: run through ``repro.api.run_experiment``.
EXPERIMENTS_RUNNERS = [
    "run_all",
    "run_ana_removal_whatif",
    "run_campaign",
    "run_capture_trial",
    "run_experiments",
    "run_families",
    "run_family",
    "run_flooding_trial",
    "run_gui_agent_trial",
    "run_notification_trial",
    "run_password_trial",
    "run_supervised",
    "run_trial",
]


def test_repro_all_is_pinned():
    assert repro.__all__ == REPRO_ALL


def test_api_all_is_pinned():
    assert repro.api.__all__ == API_ALL


def test_experiments_runners_are_pinned():
    runners = sorted(name for name in repro.experiments.__all__
                     if name.startswith("run_"))
    assert runners == EXPERIMENTS_RUNNERS


def test_every_exported_name_resolves():
    for name in REPRO_ALL:
        assert getattr(repro, name, None) is not None, name
    for name in API_ALL:
        assert getattr(repro.api, name, None) is not None, name


def test_facade_names_are_the_same_objects():
    """``repro.X`` and ``repro.api.X`` must not drift apart."""
    for name in set(REPRO_ALL) & set(API_ALL):
        assert getattr(repro, name) is getattr(repro.api, name), name
