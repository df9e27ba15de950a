"""The experiment registry, its worker entry point and its result cache.

The reproduction suite is 21 independent experiments. This module holds
the single source of truth for that set (:data:`EXPERIMENTS`): each row
names the experiment, its runner, and its report section's heading and
renderer. :func:`~repro.experiments.runner.run_all` runs the set either
in-process (``jobs=1``, the serial reference implementation) or fanned
out over worker processes.

Three properties make ``jobs=N`` bit-identical to ``jobs=1``:

* **Seed partitioning** — every experiment runs at
  ``scale.for_experiment(name)``, whose seed is a hash of the stable
  ``(scale.name, scale.seed, experiment_name)`` tuple. No experiment
  shares RNG state with another, so execution order and process placement
  cannot matter.
* **Pure workers** — experiment functions only read their scale argument;
  results are plain dataclasses that pickle losslessly (asserted by
  ``tests/experiments/test_parallel_determinism.py``).
* **Stable assembly** — :func:`~repro.experiments.runner.run_all` keys
  each result by experiment name in :attr:`AllResults.results
  <repro.experiments.runner.AllResults.results>` and orders that mapping
  by this registry, never by completion order.

The same ``(name, scale)`` key also addresses an optional on-disk result
cache, so a repeated ``run_all`` invocation only re-runs experiments whose
scale (or the cache version) changed. The cache is a key derivation over
:class:`~repro.storage.envelope.EnvelopeCache`, so corrupt or stale bytes
degrade to a miss instead of a poisoned report.

Every unit of work — an experiment here, a campaign shard, a direct
``run_experiment`` call — runs inside :func:`unit_scope`, the one worker
preamble (id reset, ambient fault regime, fresh stack-reuse executor,
optional metrics registry).

Execution is *supervised* (:class:`~repro.experiments.resilience.RunPolicy`):
worker exceptions, deadline overruns and even a broken process pool are
converted into per-experiment :class:`ExperimentFailure` records — the
surviving experiments complete and the run degrades gracefully instead of
discarding finished work. Because a retry re-runs a pure function of
``(name, scale)``, a crash-then-success retry is bit-identical to a run
that never crashed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, Optional, Tuple, Union, get_type_hints,
)

from ..obs.context import use_metrics
from ..obs.metrics import MetricsRegistry
from ..serialization import SerializableMixin
from ..sim.faults import use_default_profile
from ..storage.envelope import EnvelopeCache
from .animation_curves import _render_fig2, _render_fig4, _run_fig2, _run_fig4
from .capture_rate import _render_fig7, _render_fig8, _run_fig7, _run_fig8
from .config import QUICK, ExperimentScale
from .corpus_study import _render_corpus_study, _run_corpus_study
from .defense_eval import (
    _render_ipc_defense,
    _render_notification_defense,
    _render_toast_defense,
    _run_ipc_defense,
    _run_notification_defense,
    _run_toast_defense,
)
from .defense_tuning import _render_defense_tuning, _run_defense_tuning
from .engine import TrialExecutor, use_executor
from .equation_validation import (
    _render_equation_validation,
    _run_equation_validation,
)
from .noise_sensitivity import _render_noise_sensitivity, _run_noise_sensitivity
from .outcomes_vs_d import _fig6_heading, _render_fig6, _run_fig6
from .password_study import (
    _render_stealthiness,
    _render_table3,
    _run_stealthiness,
    _run_table3,
)
from .real_world_apps import _render_table4, _run_table4
from .resilience import CACHE_REJECTS_METRIC
from .supplementary import (
    _render_fig7_with_cis,
    _render_table3_by_version,
    _run_fig7_with_cis,
    _run_table3_by_version,
)
from .toast_continuity import _render_toast_continuity, _run_toast_continuity
from .trigger_comparison import (
    _render_trigger_comparison,
    _run_trigger_comparison,
)
from .upper_bound import (
    _render_load_impact,
    _render_table2,
    _run_load_impact,
    _run_table2,
)

#: Bump when a change to experiment code invalidates previously cached
#: results (the cache key has no way to see code changes). Version 4:
#: entries are wrapped in the checksummed integrity envelope.
CACHE_VERSION = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """One independently runnable experiment of the reproduction suite."""

    #: ``AllResults.results`` key; also the seed-derivation / cache key.
    name: str
    #: Human-readable progress label (matches the serial runner's log).
    title: str
    #: Module-level experiment function (must pickle by qualified name).
    #: Its return annotation is the experiment's result type.
    runner: Callable
    #: Report section heading, or a function of the result (``None`` when
    #: the experiment failed) returning it. Consecutive rows with the same
    #: heading share one section.
    heading: Union[str, Callable[[Any], str]]
    #: Renders a result as its report section's markdown body.
    render: Callable[[Any], str]
    #: Whether ``runner`` accepts an :class:`ExperimentScale`.
    takes_scale: bool = True

    def run(self, scale: ExperimentScale, **params: Any):
        """Run at ``scale``'s derived per-experiment seed."""
        if not self.takes_scale:
            return self.runner(**params)
        return self.runner(scale.for_experiment(self.name), **params)

    @property
    def result_type(self) -> type:
        """The result dataclass, read off ``runner``'s return annotation."""
        return get_type_hints(self.runner)["return"]

    def section_heading(self, result: Any) -> str:
        if callable(self.heading):
            return self.heading(result)
        return self.heading


#: The three §VII defenses report under one section.
_DEFENSES = "Defenses (Section VII)"


#: Every experiment of the suite, in the serial runner's historical order
#: (also the report's section order).
EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec("fig2", "Fig 2: notification slide-in curve", _run_fig2,
                   "Fig. 2 — notification slide-in curve", _render_fig2,
                   takes_scale=False),
    ExperimentSpec("fig4", "Fig 4: toast fade curves", _run_fig4,
                   "Fig. 4 — toast fade curves", _render_fig4,
                   takes_scale=False),
    ExperimentSpec("fig6", "Fig 6: notification outcomes vs D", _run_fig6,
                   _fig6_heading, _render_fig6, takes_scale=False),
    ExperimentSpec("table2", "Table II: per-device upper bound of D",
                   _run_table2, "Table II — upper boundary of D",
                   _render_table2),
    ExperimentSpec("load_impact", "Load impact", _run_load_impact,
                   "Load impact (Section VI-B)", _render_load_impact),
    ExperimentSpec("fig7", "Fig 7: capture rate vs D", _run_fig7,
                   "Fig. 7 — capture rate vs D", _render_fig7),
    ExperimentSpec("fig8", "Fig 8: capture rate by Android version",
                   _run_fig8, "Fig. 8 — capture rate by Android version",
                   _render_fig8),
    ExperimentSpec("table3", "Table III: password stealing", _run_table3,
                   "Table III — password stealing", _render_table3),
    ExperimentSpec("table4", "Table IV: real-world apps", _run_table4,
                   "Table IV — real-world apps", _render_table4),
    ExperimentSpec("stealthiness", "Stealthiness study", _run_stealthiness,
                   "Stealthiness (Section VI-C3)", _render_stealthiness),
    ExperimentSpec("toast_continuity", "Toast continuity",
                   _run_toast_continuity, "Toast continuity (Section IV)",
                   _render_toast_continuity),
    ExperimentSpec("corpus", "Corpus prevalence study", _run_corpus_study,
                   "Corpus prevalence (Section VI-C2, scaled to 890,855 "
                   "apps)", _render_corpus_study),
    ExperimentSpec("defense_ipc", "Defense: IPC detector", _run_ipc_defense,
                   _DEFENSES, _render_ipc_defense),
    ExperimentSpec("defense_notification", "Defense: enhanced notification",
                   _run_notification_defense, _DEFENSES,
                   _render_notification_defense),
    ExperimentSpec("defense_toast", "Defense: toast spacing",
                   _run_toast_defense, _DEFENSES, _render_toast_defense),
    ExperimentSpec("equation_validation", "Eq. (2) validation",
                   _run_equation_validation,
                   "Eq. (2) validation (Section III-D)",
                   _render_equation_validation),
    ExperimentSpec("defense_tuning", "Defense: decision-rule tuning",
                   _run_defense_tuning,
                   "IPC decision-rule tuning (Section VII-A, technical "
                   "report)", _render_defense_tuning),
    ExperimentSpec("trigger_comparison", "Trigger-channel comparison",
                   _run_trigger_comparison,
                   "Trigger channels (Section VI-C2 note)",
                   _render_trigger_comparison),
    ExperimentSpec("table3_by_version",
                   "Supplementary: Table III by version",
                   _run_table3_by_version,
                   "Supplementary: password stealing by Android version",
                   _render_table3_by_version),
    ExperimentSpec("fig7_cis", "Supplementary: Fig 7 confidence intervals",
                   _run_fig7_with_cis,
                   "Supplementary: Fig. 7 with 95% bootstrap CIs",
                   _render_fig7_with_cis),
    ExperimentSpec("noise_sensitivity",
                   "Noise sensitivity: faults vs capture rate / Tmis",
                   _run_noise_sensitivity,
                   "Noise sensitivity (fault injection)",
                   _render_noise_sensitivity),
)

_SPECS: Dict[str, ExperimentSpec] = {s.name: s for s in EXPERIMENTS}


def experiment_spec(name: str) -> ExperimentSpec:
    """Look up one registered experiment; unknown names raise a KeyError
    that lists every valid name."""
    spec = _SPECS.get(name)
    if spec is None:
        known = ", ".join(experiment_names())
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    return spec


@dataclass(frozen=True)
class ExperimentTiming(SerializableMixin):
    """Wall-clock accounting for one experiment of a ``run_all`` pass."""

    name: str
    seconds: float
    cached: bool = False
    #: Attempts consumed (1 for a clean first run or a cache/journal hit).
    attempts: int = 1
    #: True when the experiment ended as an ``ExperimentFailure``.
    failed: bool = False


def experiment_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in EXPERIMENTS)


@dataclass(frozen=True, kw_only=True)
class ExperimentRequest(SerializableMixin):
    """A fully-typed ``run_experiment`` invocation, validated eagerly.

    Unknown experiment names and unknown fault profiles are rejected at
    construction, before any work is scheduled. The request always runs
    in-process: one experiment is one unit of work.
    """

    #: Entry of :func:`experiment_names` (``"fig7"``, ``"table3"``, ...).
    name: str
    scale: ExperimentScale = QUICK
    #: Overrides the scale's ambient fault regime when set.
    faults: Optional[str] = None
    #: ``True`` reproduces the experiment's ``run_all`` slot exactly;
    #: ``False`` calls the implementation directly with ``scale`` as given.
    derive_seed: bool = True
    #: Extra keyword params for the experiment function.
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        experiment_spec(self.name)  # KeyError listing known names
        if self.faults is not None:
            from ..sim.faults import PROFILES

            if self.faults not in PROFILES:
                known = ", ".join(sorted(PROFILES))
                raise ValueError(
                    f"unknown fault profile {self.faults!r}; known: {known}")
        object.__setattr__(self, "params", dict(self.params))

    def effective_scale(self) -> ExperimentScale:
        """The scale after applying the ``faults`` override."""
        if self.faults is not None:
            return self.scale.with_faults(self.faults)
        return self.scale


def reset_id_allocators() -> None:
    """Restart the process-wide debug id counters.

    Window/toast/token ids are allocated by module-global counters; some
    leak into results (``ToastSwitch`` records toast ids). Resetting them
    at each experiment's start makes every result a pure function of
    ``(experiment name, scale)`` — the property the determinism tests
    assert — no matter which process ran what beforehand.
    """
    from ..toast.toast import reset_toast_ids
    from ..toast.token_queue import reset_token_ids
    from ..windows.window import reset_window_ids

    reset_toast_ids()
    reset_token_ids()
    reset_window_ids()


@dataclass(frozen=True)
class UnitScope:
    """What :func:`unit_scope` installs for one unit of work."""

    #: The unit's own stack-reuse executor, installed ambiently.
    executor: TrialExecutor
    #: The unit's own metrics registry (``None`` without metrics).
    registry: Optional[MetricsRegistry]

    def samples(self):
        """The unit's metric snapshot, or ``None`` without metrics."""
        return self.registry.samples() if self.registry is not None else None


@contextlib.contextmanager
def unit_scope(faults: str,
               collect_metrics: bool = False) -> Iterator[UnitScope]:
    """The one worker preamble for a unit of supervised work.

    Resets the id allocators, installs the ``faults`` regime as the
    ambient default, a fresh :class:`TrialExecutor` and — with
    ``collect_metrics`` — a fresh :class:`MetricsRegistry`, so every
    stack the unit builds, however deep in the call tree, sees the same
    regime whether it runs serially or in a pool process. Executors and
    registries never cross the process boundary; only the pickled
    snapshot from :meth:`UnitScope.samples` does. Without metrics the
    ambient registry, if any, stays visible.
    """
    reset_id_allocators()
    scope = UnitScope(
        executor=TrialExecutor(),
        registry=MetricsRegistry() if collect_metrics else None)
    metrics = (use_metrics(scope.registry) if collect_metrics
               else contextlib.nullcontext())
    with use_default_profile(faults), use_executor(scope.executor), metrics:
        yield scope


def _execute_one(
    name: str,
    scale: ExperimentScale,
    collect_metrics: bool = False,
    profile_dir: Optional[Path] = None,
):
    """Worker entry point: run one named experiment at its derived scale.

    Module-level so it pickles for :class:`ProcessPoolExecutor`; returns
    ``(name, result, seconds, samples, pid)`` where ``samples`` is the
    experiment's metric snapshot (``None`` unless ``collect_metrics``) and
    ``pid`` identifies the worker process for utilization accounting.
    The experiment runs inside :func:`unit_scope`. With ``profile_dir``
    the experiment body runs under :mod:`cProfile` and its stats dump to
    ``profile_dir/<name>.prof``.
    """
    spec = _SPECS[name]
    start = time.perf_counter()
    with unit_scope(scale.faults, collect_metrics) as scope:
        if profile_dir is not None:
            import cProfile

            profiler = cProfile.Profile()
            result = profiler.runcall(spec.run, scale)
            profile_dir.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(profile_dir / f"{name}.prof")
        else:
            result = spec.run(scale)
    seconds = time.perf_counter() - start
    return name, result, seconds, scope.samples(), os.getpid()


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/experiments``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "experiments"


class ResultCache(EnvelopeCache):
    """Envelope-per-key store of experiment results.

    Keys are ``(experiment_name, every ExperimentScale field,
    CACHE_VERSION)`` — exactly the inputs the result is a pure function
    of. Corrupt, truncated or stale-version bytes degrade to a miss,
    counted on :attr:`integrity_rejects` and the ambient ``repro.obs``
    registry as ``cache_integrity_rejects_total``. No memory front: one
    ``run_all`` pass reads each entry once, and a failed write must read
    back as a miss.
    """

    def __init__(self, directory: Path) -> None:
        super().__init__(directory, surface="cache", version=CACHE_VERSION,
                         reject_metrics=(CACHE_REJECTS_METRIC,),
                         memory=False)

    @staticmethod
    def key(name: str, scale: ExperimentScale) -> str:
        fields = dataclasses.asdict(scale)
        material = ":".join(
            [f"v{CACHE_VERSION}", name]
            + [f"{key}={fields[key]!r}" for key in sorted(fields)]
        )
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
        return f"{name}-{scale.name}-{digest}"

    def path_for(self, name: str, scale: ExperimentScale) -> Path:
        return super().path_for(self.key(name, scale))

    def load(self, name: str, scale: ExperimentScale):
        return super().load(self.key(name, scale))

    def store(self, name: str, scale: ExperimentScale, result) -> bool:
        """Persist one result; ``False`` means the write degraded to a
        miss (the run carries on, the entry recomputes next time)."""
        return super().store(self.key(name, scale), result)
