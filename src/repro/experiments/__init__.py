"""Reproduction harness: one module per paper table/figure plus shared
scenario runners and scaling presets. See DESIGN.md for the experiment
index and EXPERIMENTS.md for paper-vs-measured results."""

from .animation_curves import Fig2Result, Fig4Result
from .capture_rate import (
    CaptureBoxStats,
    Fig7Result,
    Fig8Result,
)
from .config import (
    FIG7_DURATIONS,
    FIG7_PAPER_MEANS,
    FULL,
    QUICK,
    SMOKE,
    TABLE_III_PAPER,
    ExperimentScale,
    resolve_jobs,
)
from .engine import (
    ExecutorStats,
    ScenarioMatrix,
    TrialExecutor,
    TrialOutcome,
    TrialSpec,
    current_executor,
    drive_until,
    get_scenario,
    run_trial,
    scenario,
    scenario_names,
    scoped_executor,
    use_executor,
)
from .aggregate import (
    CampaignAggregate,
    MetricAggregate,
    MetricDigest,
    ShardOutcome,
    default_trial_metrics,
)
from .campaign import (
    CampaignManifest,
    CampaignResult,
    ShardSpec,
    format_campaign,
    matrix_from_spec,
    run_campaign,
    shard_matrix,
)
from .parallel import (
    EXPERIMENTS,
    ExperimentRequest,
    ExperimentSpec,
    ExperimentTiming,
    ResultCache,
    RunOutcome,
    default_cache_dir,
    experiment_names,
    experiment_spec,
    reset_id_allocators,
    run_experiments,
)
from ..storage.envelope import CacheIntegrityError
from ..storage.journal import JournalError
from .resilience import (
    ChaosCrash,
    DEFAULT_POLICY,
    ExperimentFailure,
    RunJournal,
    RunPolicy,
    SupervisedTask,
    Supervisor,
    chaos,
    run_supervised,
)
from .corpus_study import CorpusStudyResult
from .equation_validation import (
    EquationValidationResult,
    EquationValidationRow,
)
from .defense_tuning import (
    DefenseTuningResult,
    RuleOperatingPoint,
)
from .defense_eval import (
    IpcDefenseResult,
    NotificationDefenseResult,
    ToastDefenseResult,
)
from .noise_sensitivity import (
    NoisePoint,
    NoiseSensitivityResult,
)
from .outcomes_vs_d import Fig6Result
from .password_study import (
    StealthinessResult,
    Table3Result,
    Table3Row,
)
from .real_world_apps import Table4Result, Table4Row
from .runner import AllResults, format_report, run_all
from .supplementary import (
    Fig7WithCisResult,
    Table3ByVersionResult,
)
from .scenarios import (
    CaptureTrialResult,
    PasswordTrialResult,
    run_capture_trial,
    run_notification_trial,
    run_password_trial,
)
from .actor_scenarios import (
    AgentTrialResult,
    FloodingTrialResult,
    run_flooding_trial,
    run_gui_agent_trial,
)
from .families import (
    FamilyResult,
    ScenarioFamily,
    family,
    family_names,
    format_families_report,
    get_family,
    run_families,
    run_family,
)
from .trigger_comparison import (
    TriggerComparisonResult,
    TriggerTrialResult,
)
from .toast_continuity import (
    ToastContinuityResult,
    compare_toast_durations,
)
from .whatif import (
    AnaRemovalResult,
    AnaRemovalRow,
    MinimalDelayResult,
    find_minimal_hide_delay,
    run_ana_removal_whatif,
)
from .upper_bound import (
    LoadImpactResult,
    Table2Result,
)

__all__ = [
    "AllResults",
    "ExecutorStats",
    "ScenarioMatrix",
    "TrialExecutor",
    "TrialOutcome",
    "TrialSpec",
    "current_executor",
    "drive_until",
    "get_scenario",
    "run_trial",
    "scenario",
    "scenario_names",
    "scoped_executor",
    "use_executor",
    "AnaRemovalResult",
    "AnaRemovalRow",
    "CacheIntegrityError",
    "CampaignAggregate",
    "CampaignManifest",
    "CampaignResult",
    "CaptureBoxStats",
    "ChaosCrash",
    "DEFAULT_POLICY",
    "EXPERIMENTS",
    "ExperimentFailure",
    "ExperimentRequest",
    "ExperimentSpec",
    "ExperimentTiming",
    "JournalError",
    "MetricAggregate",
    "MetricDigest",
    "ResultCache",
    "RunJournal",
    "RunOutcome",
    "RunPolicy",
    "ShardOutcome",
    "ShardSpec",
    "SupervisedTask",
    "Supervisor",
    "chaos",
    "default_cache_dir",
    "default_trial_metrics",
    "experiment_names",
    "experiment_spec",
    "format_campaign",
    "matrix_from_spec",
    "reset_id_allocators",
    "resolve_jobs",
    "run_campaign",
    "run_experiments",
    "run_supervised",
    "shard_matrix",
    "CaptureTrialResult",
    "CorpusStudyResult",
    "DefenseTuningResult",
    "EquationValidationResult",
    "EquationValidationRow",
    "ExperimentScale",
    "RuleOperatingPoint",
    "FIG7_DURATIONS",
    "FIG7_PAPER_MEANS",
    "FULL",
    "Fig2Result",
    "Fig4Result",
    "Fig6Result",
    "Fig7Result",
    "Fig7WithCisResult",
    "Fig8Result",
    "Table3ByVersionResult",
    "IpcDefenseResult",
    "LoadImpactResult",
    "MinimalDelayResult",
    "NoisePoint",
    "NoiseSensitivityResult",
    "NotificationDefenseResult",
    "PasswordTrialResult",
    "QUICK",
    "SMOKE",
    "StealthinessResult",
    "TABLE_III_PAPER",
    "Table2Result",
    "Table3Result",
    "Table3Row",
    "Table4Result",
    "Table4Row",
    "ToastContinuityResult",
    "ToastDefenseResult",
    "TriggerComparisonResult",
    "TriggerTrialResult",
    "compare_toast_durations",
    "find_minimal_hide_delay",
    "format_report",
    "run_all",
    "run_ana_removal_whatif",
    "run_capture_trial",
    "run_notification_trial",
    "run_password_trial",
    "AgentTrialResult",
    "FamilyResult",
    "FloodingTrialResult",
    "ScenarioFamily",
    "family",
    "family_names",
    "format_families_report",
    "get_family",
    "run_families",
    "run_family",
    "run_flooding_trial",
    "run_gui_agent_trial",
]
