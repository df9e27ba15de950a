"""Parallel experiment execution with deterministic seed partitioning.

The reproduction suite is ~20 independent experiments. This module holds
the single source of truth for that set (:data:`EXPERIMENTS`), and runs it
either in-process (``jobs=1``, the serial reference implementation) or
fanned out over a :class:`concurrent.futures.ProcessPoolExecutor`.

Three properties make ``jobs=N`` bit-identical to ``jobs=1``:

* **Seed partitioning** — every experiment runs at
  ``scale.for_experiment(name)``, whose seed is a hash of the stable
  ``(scale.name, scale.seed, experiment_name)`` tuple. No experiment
  shares RNG state with another, so execution order and process placement
  cannot matter.
* **Pure workers** — experiment functions only read their scale argument;
  results are plain dataclasses that pickle losslessly (asserted by
  ``tests/experiments/test_parallel_determinism.py``).
* **Stable assembly** — results are keyed by experiment name and written
  into :class:`~repro.experiments.runner.AllResults` fields by name, never
  by completion order.

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
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..obs.context import use_metrics
from ..obs.metrics import MetricsRegistry
from ..serialization import SerializableMixin
from ..sim.faults import use_default_profile
from ..storage.envelope import EnvelopeCache
from .animation_curves import _run_fig2, _run_fig4
from .capture_rate import _run_fig7, _run_fig8
from .config import QUICK, ExperimentScale, resolve_jobs
from .corpus_study import _run_corpus_study
from .defense_eval import (
    _run_ipc_defense,
    _run_notification_defense,
    _run_toast_defense,
)
from .defense_tuning import _run_defense_tuning
from .engine import TrialExecutor, use_executor
from .equation_validation import _run_equation_validation
from .noise_sensitivity import _run_noise_sensitivity
from .outcomes_vs_d import _run_fig6
from .password_study import _run_stealthiness, _run_table3
from .real_world_apps import _run_table4
from .resilience import (
    CACHE_REJECTS_METRIC,
    DEADLINE_METRIC,
    DEFAULT_POLICY,
    FAILURES_METRIC,
    RETRIES_METRIC,
    ExperimentFailure,
    RunJournal,
    RunPolicy,
    SupervisedTask,
    Supervisor,
    run_supervised,
)
from .supplementary import _run_fig7_with_cis, _run_table3_by_version
from .toast_continuity import _run_toast_continuity
from .trigger_comparison import _run_trigger_comparison
from .upper_bound import _run_load_impact, _run_table2

#: Bump when a change to experiment code invalidates previously cached
#: results (the cache key has no way to see code changes). Version 4:
#: entries are wrapped in the checksummed integrity envelope.
CACHE_VERSION = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """One independently runnable experiment of the reproduction suite."""

    #: ``AllResults`` field name; also the seed-derivation / cache key.
    name: str
    #: Human-readable progress label (matches the serial runner's log).
    title: str
    #: Module-level experiment function (must pickle by qualified name).
    runner: Callable
    #: Whether ``runner`` accepts an :class:`ExperimentScale`.
    takes_scale: bool = True

    def run(self, scale: ExperimentScale, **params: Any):
        """Run at ``scale``'s derived per-experiment seed."""
        if not self.takes_scale:
            return self.runner(**params)
        return self.runner(scale.for_experiment(self.name), **params)


#: Every experiment of the suite, in the serial runner's historical order.
EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec("fig2", "Fig 2: notification slide-in curve",
                   _run_fig2, takes_scale=False),
    ExperimentSpec("fig4", "Fig 4: toast fade curves",
                   _run_fig4, takes_scale=False),
    ExperimentSpec("fig6", "Fig 6: notification outcomes vs D",
                   _run_fig6, takes_scale=False),
    ExperimentSpec("table2", "Table II: per-device upper bound of D",
                   _run_table2),
    ExperimentSpec("load_impact", "Load impact", _run_load_impact),
    ExperimentSpec("fig7", "Fig 7: capture rate vs D", _run_fig7),
    ExperimentSpec("fig8", "Fig 8: capture rate by Android version",
                   _run_fig8),
    ExperimentSpec("table3", "Table III: password stealing", _run_table3),
    ExperimentSpec("table4", "Table IV: real-world apps", _run_table4),
    ExperimentSpec("stealthiness", "Stealthiness study", _run_stealthiness),
    ExperimentSpec("toast_continuity", "Toast continuity",
                   _run_toast_continuity),
    ExperimentSpec("corpus", "Corpus prevalence study", _run_corpus_study),
    ExperimentSpec("defense_ipc", "Defense: IPC detector", _run_ipc_defense),
    ExperimentSpec("defense_notification", "Defense: enhanced notification",
                   _run_notification_defense),
    ExperimentSpec("defense_toast", "Defense: toast spacing",
                   _run_toast_defense),
    ExperimentSpec("equation_validation", "Eq. (2) validation",
                   _run_equation_validation),
    ExperimentSpec("defense_tuning", "Defense: decision-rule tuning",
                   _run_defense_tuning),
    ExperimentSpec("trigger_comparison", "Trigger-channel comparison",
                   _run_trigger_comparison),
    ExperimentSpec("table3_by_version",
                   "Supplementary: Table III by version",
                   _run_table3_by_version),
    ExperimentSpec("fig7_cis", "Supplementary: Fig 7 confidence intervals",
                   _run_fig7_with_cis),
    ExperimentSpec("noise_sensitivity",
                   "Noise sensitivity: faults vs capture rate / Tmis",
                   _run_noise_sensitivity),
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


# ---------------------------------------------------------------------------
# Supervised execution
# ---------------------------------------------------------------------------

ProgressCallback = Callable[[int, int, ExperimentTiming], None]


@dataclass(frozen=True)
class RunOutcome:
    """Everything one supervised ``run_experiments`` pass produced."""

    #: Successful results keyed by experiment name (failed ones absent).
    results: Dict[str, object]
    #: Per-experiment accounting in registry order (failures included).
    timings: Tuple[ExperimentTiming, ...]
    #: ``ExperimentMetrics`` tuple when metrics were collected, else None.
    metrics: Optional[Tuple]
    #: Permanent failures in registry order (empty on a clean run).
    failures: Tuple[ExperimentFailure, ...] = ()


def run_experiments(
    scale: ExperimentScale = QUICK,
    *,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    verbose: bool = False,
    progress: Optional[ProgressCallback] = None,
    collect_metrics: bool = False,
    profile_dir: Optional[Path] = None,
    policy: Optional[RunPolicy] = None,
    journal: Optional[RunJournal] = None,
) -> RunOutcome:
    """Run every experiment under supervision; return a :class:`RunOutcome`.

    ``jobs=1`` runs in-process and is the reference implementation;
    ``jobs=N`` fans out over N worker processes; ``jobs=0`` means one per
    core. Timings come back in registry order regardless of completion
    order.

    ``policy`` governs retries, deadlines and failure semantics (the
    default is inert: one attempt, record failures, keep going). A worker
    exception — or the whole process pool breaking — costs only that
    experiment's attempts: the pool is rebuilt, surviving work is
    re-submitted, and the failure is recorded as an
    :class:`ExperimentFailure` on the outcome. ``journal`` checkpoints
    every completion into a run directory so an interrupted run can be
    resumed, skipping finished experiments.

    With ``collect_metrics`` each experiment runs under its own
    :class:`~repro.obs.metrics.MetricsRegistry` and ``outcome.metrics`` is
    a tuple of :class:`~repro.obs.metrics.ExperimentMetrics`: one snapshot
    per freshly-run experiment (cache hits carry no metrics) plus a
    synthetic ``runner`` entry with per-experiment wall gauges, per-worker
    busy/utilization gauges and the supervision counters
    (``runner_retries_total``, ``runner_failures_total``,
    ``runner_deadline_exceeded_total``, ``cache_integrity_rejects_total``).
    Metrics never feed back into experiment code, so results are
    bit-identical either way. ``profile_dir`` additionally runs each
    experiment under :mod:`cProfile`, dumping ``<name>.prof`` files.
    """
    jobs = resolve_jobs(jobs)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    supervisor = Supervisor(policy or DEFAULT_POLICY, scale.seed)

    results: Dict[str, object] = {}
    timings: Dict[str, ExperimentTiming] = {}
    sample_sets: Dict[str, tuple] = {}
    busy_by_pid: Dict[int, float] = {}
    done = 0
    total = len(EXPERIMENTS)
    wall_start = time.perf_counter()

    def record(name: str, result, seconds: float, cached: bool,
               attempts: int = 1) -> None:
        nonlocal done
        results[name] = result
        timing = ExperimentTiming(name=name, seconds=seconds, cached=cached,
                                  attempts=attempts)
        timings[name] = timing
        done += 1
        if verbose:
            spec = _SPECS[name]
            suffix = "cache hit" if cached else f"{seconds:.2f}s"
            print(f"[{scale.name}] [{done:2d}/{total}] {spec.title} "
                  f"({suffix})", flush=True)
        if progress is not None:
            progress(done, total, timing)

    def record_run(name: str, result, seconds: float, samples, pid: int,
                   attempts: int = 1) -> None:
        if cache is not None:
            cache.store(name, scale, result)
        if journal is not None:
            journal.store(name, result)
        if samples is not None:
            sample_sets[name] = samples
        busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + seconds
        record(name, result, seconds, cached=False, attempts=attempts)

    def record_failure(failure: ExperimentFailure) -> None:
        nonlocal done
        if journal is not None:
            journal.store_failure(failure)
        timing = ExperimentTiming(
            name=failure.name, seconds=failure.elapsed_seconds, cached=False,
            attempts=failure.attempts, failed=True)
        timings[failure.name] = timing
        done += 1
        if verbose:
            spec = _SPECS[failure.name]
            print(f"[{scale.name}] [{done:2d}/{total}] {spec.title} "
                  f"(FAILED: {failure.error})", flush=True)
        if progress is not None:
            progress(done, total, timing)

    pending: List[ExperimentSpec] = []
    for spec in EXPERIMENTS:
        hit = journal.load(spec.name) if journal is not None else None
        if hit is not None:
            # Journaled completions also warm the cache so a later
            # cache-only run sees them.
            if cache is not None:
                cache.store(spec.name, scale, hit)
            record(spec.name, hit, 0.0, cached=True)
            continue
        hit = cache.load(spec.name, scale) if cache is not None else None
        if hit is not None:
            if journal is not None:
                journal.store(spec.name, hit)
            record(spec.name, hit, 0.0, cached=True)
        else:
            pending.append(spec)

    run_supervised(
        [SupervisedTask(name=spec.name, fn=_execute_one,
                        args=(spec.name, scale, collect_metrics, profile_dir))
         for spec in pending],
        supervisor,
        jobs=jobs,
        on_success=lambda task, payload, attempt, seconds:
            record_run(*payload, attempts=attempt),
        on_failure=record_failure,
    )

    failures = tuple(supervisor.failures[spec.name] for spec in EXPERIMENTS
                     if spec.name in supervisor.failures)
    ordered = tuple(timings[spec.name] for spec in EXPERIMENTS)
    if not collect_metrics:
        return RunOutcome(results=results, timings=ordered, metrics=None,
                          failures=failures)

    metrics = _assemble_metrics(
        sample_sets, ordered, busy_by_pid,
        wall_seconds=time.perf_counter() - wall_start,
        supervisor=supervisor,
        cache_rejects=cache.integrity_rejects if cache is not None else 0,
    )
    return RunOutcome(results=results, timings=ordered, metrics=metrics,
                      failures=failures)


def _assemble_metrics(
    sample_sets: Dict[str, tuple],
    timings: Tuple[ExperimentTiming, ...],
    busy_by_pid: Dict[int, float],
    wall_seconds: float,
    supervisor: Supervisor,
    cache_rejects: int,
) -> Tuple:
    """Label per-experiment snapshots and add the runner's own series.

    Workers are numbered by sorted pid so the labels are stable for one
    run but carry no machine-specific meaning across runs. Supervision
    counters are always registered (at zero on a clean run) so exports
    and CI assertions can rely on their presence.
    """
    from ..obs.metrics import ExperimentMetrics, MetricsRegistry

    per_experiment = tuple(
        ExperimentMetrics(name=spec.name, samples=sample_sets[spec.name])
        for spec in EXPERIMENTS if spec.name in sample_sets
    )
    runner = MetricsRegistry()
    for timing in timings:
        if not timing.cached and not timing.failed:
            runner.gauge("runner_experiment_wall_seconds",
                         {"experiment": timing.name}).set(timing.seconds)
    for worker, pid in enumerate(sorted(busy_by_pid)):
        busy = busy_by_pid[pid]
        runner.gauge("runner_worker_busy_seconds",
                     {"worker": str(worker)}).set(busy)
        runner.gauge("runner_worker_utilization",
                     {"worker": str(worker)}).set(
            busy / wall_seconds if wall_seconds > 0 else 0.0)
    runner.gauge("runner_wall_seconds").set(wall_seconds)
    runner.counter(RETRIES_METRIC).inc(supervisor.retries)
    runner.counter(FAILURES_METRIC).inc(len(supervisor.failures))
    runner.counter(DEADLINE_METRIC).inc(supervisor.deadline_exceeded)
    runner.counter(CACHE_REJECTS_METRIC).inc(cache_rejects)
    return per_experiment + (
        ExperimentMetrics(name="runner", samples=runner.samples()),
    )
