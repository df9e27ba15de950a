"""One-shot experiment runner producing a paper-vs-measured report.

``run_all`` executes every experiment of
:data:`~repro.experiments.parallel.EXPERIMENTS` at the requested scale and
returns an :class:`AllResults` bundle; ``format_report`` renders it as the
markdown used to update EXPERIMENTS.md. Neither lists the experiments: the
registry rows carry each one's name, runner, result type (the runner's
return annotation), report heading and renderer.

``jobs=1`` (the default) is the in-process serial reference path,
``jobs=N`` fans out over worker processes, and both derive each
experiment's seed from the same stable ``(scale, experiment name)`` key —
which is what makes the two paths produce equal :class:`AllResults`
(asserted by ``tests/experiments/test_parallel_determinism.py``).

Runs are *supervised*: an experiment that fails permanently is recorded on
:attr:`AllResults.failures` instead of aborting the suite, it has no entry
in :attr:`AllResults.results`, and ``format_report`` renders its section
as explicitly FAILED — a 20/21 run still produces a usable report.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import ExperimentMetrics
from ..serialization import SerializableMixin, from_dict
from .config import ExperimentScale, QUICK, resolve_jobs
from .parallel import (
    CACHE_VERSION,
    EXPERIMENTS,
    ExperimentSpec,
    ExperimentTiming,
    ResultCache,
    _SPECS,
    _execute_one,
    experiment_spec,
)
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


@dataclass(frozen=True)
class AllResults(SerializableMixin):
    """Every reproduced table and figure from one run.

    ``results`` maps experiment name to result, in registry order; an
    experiment that failed permanently has no entry, and its failure
    record lives on :attr:`failures`. Registered names also read as
    attributes (``results.<name>``), ``None`` for a failed experiment.
    """

    scale_name: str
    #: Result per completed experiment, keyed by name, registry order.
    results: Dict[str, Any] = field(default_factory=dict)
    #: Per-experiment wall-clock accounting (``ExperimentTiming`` tuples).
    #: Excluded from equality: a parallel run and a serial run of the same
    #: scale compare equal even though their wall times differ.
    timings: Optional[Tuple[ExperimentTiming, ...]] = field(
        default=None, compare=False, repr=False)
    #: Per-experiment metric snapshots (``ExperimentMetrics`` tuples) when
    #: the run collected metrics, else ``None``. Excluded from equality
    #: for the same reason as ``timings``: metrics observe wall clocks and
    #: worker placement, results do not.
    metrics: Optional[Tuple[ExperimentMetrics, ...]] = field(
        default=None, compare=False, repr=False)
    #: Permanent :class:`ExperimentFailure` records, registry order.
    #: Excluded from equality (tracebacks and elapsed times vary); the
    #: failed experiments' missing ``results`` entries already make two
    #: runs with different failures compare unequal.
    failures: Tuple[ExperimentFailure, ...] = field(
        default=(), compare=False, repr=False)

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails. Resolving registered names
        # alone keeps pickle/copy probes (``__setstate__``, or ``results``
        # itself before it is set) raising AttributeError, not recursing.
        if name in _SPECS:
            return self.results.get(name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def ok(self) -> bool:
        """True when every experiment produced a result."""
        return not self.failures

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AllResults":
        """Rebuild from :meth:`to_dict` output, decoding each result as
        its experiment's result type."""
        results = {
            name: from_dict(experiment_spec(name).result_type, payload)
            for name, payload in data.get("results", {}).items()
        }
        return replace(from_dict(cls, data), results=results)


def run_all(
    scale: ExperimentScale = QUICK,
    verbose: bool = False,
    *,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    collect_metrics: bool = False,
    profile_dir: Optional[Path] = None,
    policy: Optional[RunPolicy] = None,
    run_dir: Optional[Path] = None,
    resume: bool = False,
) -> AllResults:
    """Run the complete reproduction suite at one scale, supervised.

    Args:
        scale: experiment sizing preset (SMOKE/QUICK/FULL or custom).
        verbose: print per-experiment progress and wall times.
        jobs: worker processes; ``1`` is the serial reference path,
            ``0`` means one per core. Any value yields identical results,
            and timings come back in registry order regardless of
            completion order.
        cache_dir: enable the on-disk result cache rooted here; ``None``
            disables caching.
        collect_metrics: run every experiment under its own
            :class:`~repro.obs.metrics.MetricsRegistry` and attach the
            snapshots as ``AllResults.metrics``: one per freshly-run
            experiment (cache hits carry none) plus a synthetic
            ``runner`` entry with per-experiment wall gauges, per-worker
            busy/utilization gauges and the supervision counters
            (``runner_retries_total``, ``runner_failures_total``,
            ``runner_deadline_exceeded_total``,
            ``cache_integrity_rejects_total``). Metrics only observe, so
            all results (and the formatted report) are byte-identical
            with or without this flag.
        profile_dir: dump a cProfile ``<experiment>.prof`` per experiment
            into this directory.
        policy: supervision knobs (retries, deadlines, fail-fast). The
            default records failures and keeps going; it changes nothing
            about a fault-free run. A worker exception — or the whole
            process pool breaking — costs only that experiment's
            attempts: the pool is rebuilt, surviving work is
            re-submitted, and the failure is recorded as an
            :class:`ExperimentFailure` on the result.
        run_dir: journal every completion into this directory (``run.json``
            plus atomic per-experiment markers) so a crashed or killed run
            can be resumed.
        resume: reuse an existing ``run_dir`` journal, skipping the
            experiments it already holds; requires ``run_dir``.
    """
    if resume and run_dir is None:
        raise ValueError("resume=True requires run_dir")
    journal = None
    if run_dir is not None:
        opener = RunJournal.resume if resume else RunJournal.create
        journal = opener(run_dir, scale, CACHE_VERSION)
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

    def log(name: str, note: str) -> None:
        nonlocal done
        done += 1
        if verbose:
            print(f"[{scale.name}] [{done:2d}/{total}] {_SPECS[name].title} "
                  f"({note})", flush=True)

    def record(name: str, result, seconds: float, cached: bool,
               attempts: int = 1) -> None:
        results[name] = result
        timings[name] = ExperimentTiming(name=name, seconds=seconds,
                                         cached=cached, attempts=attempts)
        log(name, "cache hit" if cached else f"{seconds:.2f}s")

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
        if journal is not None:
            journal.store_failure(failure)
        timings[failure.name] = ExperimentTiming(
            name=failure.name, seconds=failure.elapsed_seconds, cached=False,
            attempts=failure.attempts, failed=True)
        log(failure.name, f"FAILED: {failure.error}")

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

    ordered = tuple(timings[spec.name] for spec in EXPERIMENTS)
    metrics = None
    if collect_metrics:
        metrics = _assemble_metrics(
            sample_sets, ordered, busy_by_pid,
            wall_seconds=time.perf_counter() - wall_start,
            supervisor=supervisor,
            cache_rejects=cache.integrity_rejects if cache is not None else 0,
        )
    return AllResults(
        scale_name=scale.name,
        results={spec.name: results[spec.name] for spec in EXPERIMENTS
                 if spec.name in results},
        timings=ordered,
        metrics=metrics,
        failures=tuple(supervisor.failures[spec.name] for spec in EXPERIMENTS
                       if spec.name in supervisor.failures),
    )


def _assemble_metrics(
    sample_sets: Dict[str, tuple],
    timings: Tuple[ExperimentTiming, ...],
    busy_by_pid: Dict[int, float],
    wall_seconds: float,
    supervisor: Supervisor,
    cache_rejects: int,
) -> Tuple[ExperimentMetrics, ...]:
    """Label per-experiment snapshots and add the runner's own series.

    Workers are numbered by sorted pid so the labels are stable for one
    run but carry no machine-specific meaning across runs. Supervision
    counters are always registered (at zero on a clean run) so exports
    and CI assertions can rely on their presence.
    """
    from ..obs.metrics import MetricsRegistry

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


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def format_report(results: AllResults, include_timings: bool = False) -> str:
    """Render a markdown paper-vs-measured report.

    One section per registry row, headed and rendered by that row; rows
    sharing a heading share a section. A failed experiment renders an
    explicit FAILED block in its place (graceful degradation).
    """
    failures = {f.name: f for f in results.failures}
    out = io.StringIO()
    w = out.write
    w(f"# Reproduction report (scale: {results.scale_name})\n\n")

    if failures:
        names = ", ".join(f"`{name}`" for name in failures)
        w(f"> **Degraded run:** {len(failures)} of {len(EXPERIMENTS)} "
          f"experiments FAILED ({names}); their sections below carry the "
          "failure detail.\n\n")

    previous = None
    for spec in EXPERIMENTS:
        result = results.results.get(spec.name)
        heading = spec.section_heading(result)
        if heading != previous:
            w(f"## {heading}\n\n")
            previous = heading
        if result is not None:
            w(spec.render(result))
            continue
        failure = failures.get(spec.name)
        detail = (f" after {failure.attempts} attempt(s): {failure.error}"
                  if failure is not None else "")
        if not out.getvalue().endswith("\n\n"):
            w("\n")  # after a shared section's list item: own paragraph
        w(f"**FAILED** — experiment `{spec.name}` produced no "
          f"result{detail}.\n\n")

    # Wall times vary run to run, so the appendix is opt-in: the golden
    # report test needs the default rendering to be byte-stable.
    if include_timings and results.timings:
        w("\n## Runner timings\n\n")
        w("| experiment | wall (s) | source |\n|---|---|---|\n")
        for t in results.timings:
            if t.failed:
                source = "FAILED"
            elif t.cached:
                source = "cache"
            else:
                source = "run"
            if t.attempts > 1:
                source += f" ({t.attempts} attempts)"
            w(f"| {t.name} | {t.seconds:.2f} | {source} |\n")
        total = sum(t.seconds for t in results.timings)
        hits = sum(1 for t in results.timings if t.cached)
        w(f"\ntotal experiment wall time: {total:.2f} s "
          f"({hits}/{len(results.timings)} cache hits)\n")
    return out.getvalue()
