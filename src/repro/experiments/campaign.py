"""Fleet-scale campaigns: sharded, resumable ScenarioMatrix sweeps.

The experiment suite sweeps a handful of device × version cells; the
north-star is *fleets* — a 10k–100k cell :class:`ScenarioMatrix` run as
one resumable campaign. This module is that layer:

* :func:`shard_matrix` splits a matrix into deterministic, contiguous
  chunks of its cell sequence. Shard boundaries are pure arithmetic and
  each shard's seed derives through the same
  :meth:`~repro.experiments.config.ExperimentScale.for_experiment`
  hashing the per-cell seeds already use — nothing about sharding
  touches any trial's RNG universe, so the shard count can never change
  a result.
* :func:`_run_shard` is the worker: it runs its cell range with stack
  reuse and folds every trial into a
  :class:`~repro.experiments.aggregate.CampaignAggregate`, returning
  only that digest (plus, when the driver collects metrics, the shard's
  metric snapshot). Per-trial outcomes never cross the process boundary
  or accumulate anywhere — campaign memory is O(shards), not O(trials).
* shards fan out through the generic supervised runner
  (:func:`~repro.experiments.resilience.run_supervised`): per-shard
  retries, deadlines, broken-pool recovery and the chaos harness all
  apply, with the shard name (``shard-0042``) as the fault-point key.
* :class:`CampaignManifest` is the
  :class:`~repro.experiments.resilience.RunJournal` of a campaign: the
  same ``run.json`` manifest (kind ``campaign``, identity = matrix
  fingerprint + shard count, plan = shard names) and one atomic
  envelope per completed shard, so ``repro campaign --resume DIR``
  re-runs only unfinished shards.
  Because digests merge *exactly* (see :mod:`.aggregate`), a killed and
  resumed campaign's aggregates are bit-identical to an uninterrupted
  run's — as is any re-sharding of the same matrix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..serialization import SerializableMixin
from .aggregate import (
    DEFAULT_GROUP,
    CampaignAggregate,
    MetricAggregate,
    ShardOutcome,
    default_trial_metrics,
)
from .config import FULL, QUICK, SMOKE, ExperimentScale, resolve_jobs
from .engine import ScenarioMatrix, TrialSpec
from .parallel import unit_scope
from .resilience import (
    DEFAULT_POLICY,
    ExperimentFailure,
    RunJournal,
    RunPolicy,
    SupervisedTask,
    Supervisor,
    run_supervised,
)

#: Bump when shard payloads or the manifest layout change incompatibly;
#: versions a campaign directory the same way ``CACHE_VERSION`` versions
#: the result cache.
CAMPAIGN_VERSION = 1

#: Campaign metrics registered on the ambient ``repro.obs`` registry.
SHARDS_TOTAL_METRIC = "campaign_shards_total"
SHARDS_COMPLETED_METRIC = "campaign_shards_completed"
SHARDS_RETRIED_METRIC = "campaign_shards_retried"


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------

def shard_name(index: int) -> str:
    """Stable shard identity: journal marker, chaos key, failure record."""
    return f"shard-{index:04d}"


@dataclass(frozen=True)
class ShardSpec(SerializableMixin):
    """One contiguous chunk of a matrix's cell sequence.

    ``seed`` is informational supervision state (it anchors nothing but
    the shard's backoff jitter and the manifest record): the trials
    inside the range keep their matrix-derived per-cell seeds, which is
    exactly why re-sharding cannot move a single result bit.
    """

    index: int
    shards: int
    start: int
    stop: int
    seed: int

    @property
    def name(self) -> str:
        return shard_name(self.index)

    @property
    def cells(self) -> int:
        return self.stop - self.start


def shard_seed(matrix: ScenarioMatrix, index: int, shards: int) -> int:
    """Pure-hash shard seed via the experiment-registry derivation."""
    return matrix.scale.for_experiment(
        f"{matrix.name}/{shard_name(index)}/{shards}").seed


def shard_matrix(matrix: ScenarioMatrix, shards: int) -> Tuple[ShardSpec, ...]:
    """Split ``matrix`` into at most ``shards`` balanced contiguous chunks.

    Chunks are contiguous in cell order (device-major), so one shard
    mostly stays on few devices and the executor's stack reuse keeps
    paying off inside workers. Sizes differ by at most one cell; a
    matrix smaller than ``shards`` gets one single-cell shard per cell.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    total = len(matrix)
    shards = min(shards, total) or 1
    base, extra = divmod(total, shards)
    specs = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        specs.append(ShardSpec(
            index=index,
            shards=shards,
            start=start,
            stop=start + size,
            seed=shard_seed(matrix, index, shards),
        ))
        start += size
    return tuple(specs)


# ---------------------------------------------------------------------------
# Shard worker
# ---------------------------------------------------------------------------

#: ``extractor(spec, value) -> {metric: float}`` and
#: ``group_by(spec, value) -> str`` must be module-level functions (they
#: pickle into pool workers by qualified name).
MetricExtractor = Callable[[TrialSpec, Any], Mapping[str, float]]
GroupBy = Callable[[TrialSpec, Any], str]


def group_by_device(spec: TrialSpec, value: Any) -> str:
    """Group trials by full device key (``"Xiaomi mi8 (Android 10)"``)."""
    return spec.profile.key if spec.profile is not None else "reference"


def group_by_version(spec: TrialSpec, value: Any) -> str:
    """Group trials by major Android version (the Fig. 8 axis)."""
    if spec.profile is None:
        return "reference"
    return str(spec.profile.android_version.major)


def group_by_faults(spec: TrialSpec, value: Any) -> str:
    """Group trials by ambient fault regime (the noise-sensitivity axis)."""
    return str(spec.faults)


#: CLI names for the built-in groupers (``None`` = single ``all`` group).
GROUPERS: Dict[str, Optional[GroupBy]] = {
    "none": None,
    "device": group_by_device,
    "version": group_by_version,
    "faults": group_by_faults,
}


def _run_shard(
    matrix: ScenarioMatrix,
    shard: ShardSpec,
    extractor: Optional[MetricExtractor],
    group_by: Optional[GroupBy],
    collect_metrics: bool = False,
):
    """Worker entry point: run one shard's cell range, return its digest.

    Module-level so it pickles for the pool path; runs inside the same
    :func:`~repro.experiments.parallel.unit_scope` as an experiment.
    With ``collect_metrics`` the shard records into a fresh
    :class:`~repro.obs.metrics.MetricsRegistry` and returns its samples,
    so serial and pool runs report the same series to the driver. Trial
    seeds come from the matrix cells, so a crash-then-retry shard is
    bit-identical to one that never crashed.
    """
    extract = extractor if extractor is not None else default_trial_metrics
    aggregate = CampaignAggregate()
    trials = 0
    start = time.perf_counter()
    with unit_scope(matrix.scale.faults, collect_metrics) as scope:
        for spec in islice(matrix.cells(), shard.start, shard.stop):
            value = scope.executor.run(spec)
            group = group_by(spec, value) if group_by is not None \
                else DEFAULT_GROUP
            aggregate.observe(group, extract(spec, value))
            trials += 1
    return ShardOutcome(
        index=shard.index,
        trials=trials,
        aggregate_state=aggregate.to_dict(),
        seconds=time.perf_counter() - start,
        pid=os.getpid(),
        samples=scope.samples(),
    )


# ---------------------------------------------------------------------------
# Campaign manifest (checkpoint / resume)
# ---------------------------------------------------------------------------

def matrix_fingerprint(matrix: ScenarioMatrix) -> str:
    """sha256 hex over everything that determines the matrix's cells.

    Two matrices with the same fingerprint generate identical cell
    sequences (devices, configs, fault regimes, trials *and* per-cell
    seeds), which is the invariant resume safety rests on.
    """
    material = json.dumps({
        "name": matrix.name,
        "scenario": matrix.scenario,
        "scale": dataclasses.asdict(matrix.scale),
        "devices": [d.key for d in matrix.resolved_devices()],
        "configs": [ScenarioMatrix._config_key(c) for c in matrix.configs],
        "faults": list(matrix.resolved_faults()),
        "trials": matrix.trials,
        "alert_mode": matrix.alert_mode.name,
        "trace_enabled": matrix.trace_enabled,
        "base_params": ScenarioMatrix._config_key(matrix.base_params),
        # Behavior-model axes: part of the cell sequence, so part of the
        # fingerprint — an attacker/user sweep must not resume into the
        # unlabeled matrix it extends.
        "attackers": list(matrix.attackers),
        "users": list(matrix.users),
    }, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class CampaignManifest(RunJournal):
    """The :class:`RunJournal` of one campaign: units are shards.

    Its identity pins the matrix *fingerprint* and the shard count, so
    :meth:`resume` refuses a directory journaling a different campaign
    — or the same matrix re-sharded differently, since shard markers
    from one plan mean nothing under another.
    """

    KIND = "campaign"

    #: Campaign writes are their own fault-injection target
    #: (``fs:campaign:...``), distinct from experiment-run journals.
    SURFACE = "campaign"

    def __init__(self, root: Path, matrix: ScenarioMatrix,
                 shards: int) -> None:
        super().__init__(root, matrix.scale, CAMPAIGN_VERSION)
        self.matrix = matrix
        self.shards = int(shards)

    def identity(self) -> dict:
        return {"matrix_fingerprint": matrix_fingerprint(self.matrix),
                "shards": self.shards}

    def plan(self) -> Tuple[str, ...]:
        return tuple(shard_name(index) for index in range(self.shards))


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignResult(SerializableMixin):
    """Everything one campaign produced, digest-sized.

    ``rows`` are the merged per-``(group, metric)`` statistics in sorted
    order — the only per-data payload, independent of how the campaign
    was sharded, parallelized, interrupted or resumed. Scheduling
    accounting (``retries``, ``seconds``) is excluded from equality for
    the same reason wall clock is everywhere else in the suite.
    """

    name: str
    cells: int
    shards: int
    #: Trials actually folded into ``rows`` (< ``cells`` iff shards failed).
    trials: int
    rows: Tuple[MetricAggregate, ...]
    failures: Tuple[ExperimentFailure, ...] = ()
    retries: int = field(default=0, compare=False)
    seconds: float = field(default=0.0, compare=False)

    def aggregates_json(self) -> str:
        """Canonical JSON of the statistical payload (no scheduling state).

        Byte-identical across shard counts, job counts and kill/resume —
        the string the determinism tests and the CI sweep ``cmp``.
        """
        return json.dumps({
            "name": self.name,
            "cells": self.cells,
            "trials": self.trials,
            "rows": [row.to_dict() for row in self.rows],
        }, sort_keys=True, indent=2) + "\n"


ProgressCallback = Callable[[int, int, "ShardOutcome"], None]


def run_campaign(
    matrix: ScenarioMatrix,
    *,
    shards: int = 8,
    jobs: int = 1,
    policy: Optional[RunPolicy] = None,
    run_dir: Optional[Path] = None,
    resume: bool = False,
    extractor: Optional[MetricExtractor] = None,
    group_by: Optional[GroupBy] = None,
    verbose: bool = False,
) -> CampaignResult:
    """Run ``matrix`` as a sharded, supervised, resumable campaign.

    ``shards`` fixes the checkpoint granularity (and the unit of retry);
    ``jobs`` fixes parallelism — the two are independent, and neither
    affects a single result bit. ``policy`` supervises *shards* the way
    ``run_all``'s policy supervises experiments: retries, deadlines,
    broken-pool recovery. With ``run_dir`` every completed shard is
    journaled; ``resume=True`` re-runs only unfinished shards and the
    merged aggregates are bit-identical to an uninterrupted run.

    ``extractor`` maps one trial to named float series (default:
    :func:`~repro.experiments.aggregate.default_trial_metrics`);
    ``group_by`` partitions trials into named groups aggregated
    separately (default: one ``all`` group). Both must be module-level
    functions so they pickle into pool workers.
    """
    from ..obs.context import current_metrics

    jobs = resolve_jobs(jobs)
    shard_specs = shard_matrix(matrix, shards)
    manifest: Optional[CampaignManifest] = None
    if run_dir is not None:
        opener = CampaignManifest.resume if resume else CampaignManifest.create
        manifest = opener(Path(run_dir), matrix, len(shard_specs))

    registry = current_metrics()

    def count(metric: str, amount: int) -> None:
        if registry is not None and amount:
            registry.counter(metric).inc(amount)

    count(SHARDS_TOTAL_METRIC, len(shard_specs))

    wall_start = time.perf_counter()
    outcomes: Dict[int, ShardOutcome] = {}
    done = 0

    def note(outcome: ShardOutcome, cached: bool) -> None:
        nonlocal done
        done += 1
        if verbose:
            suffix = "journaled" if cached else f"{outcome.seconds:.2f}s"
            print(f"[{matrix.name}] [{done:3d}/{len(shard_specs)}] "
                  f"{shard_name(outcome.index)}: {outcome.trials} trials "
                  f"({suffix})", flush=True)

    pending = []
    for shard in shard_specs:
        hit = manifest.load(shard.name) if manifest is not None else None
        if isinstance(hit, ShardOutcome):
            outcomes[shard.index] = hit
            note(hit, cached=True)
        else:
            pending.append(shard)

    supervisor = Supervisor(policy or DEFAULT_POLICY, matrix.scale.seed)

    def on_success(task: SupervisedTask, outcome: ShardOutcome,
                   attempt: int, seconds: float) -> None:
        if manifest is not None:
            manifest.store(task.name, outcome)
        outcomes[outcome.index] = outcome
        if registry is not None:
            registry.ingest(outcome.samples)
        count(SHARDS_COMPLETED_METRIC, 1)
        note(outcome, cached=False)

    def on_failure(failure: ExperimentFailure) -> None:
        if manifest is not None:
            manifest.store_failure(failure)
        if verbose:
            print(f"[{matrix.name}] {failure.name} FAILED: {failure.error}",
                  flush=True)

    run_supervised(
        [SupervisedTask(name=shard.name, fn=_run_shard,
                        args=(matrix, shard, extractor, group_by,
                              registry is not None))
         for shard in pending],
        supervisor,
        jobs=jobs,
        on_success=on_success,
        on_failure=on_failure,
    )
    count(SHARDS_RETRIED_METRIC, supervisor.retries)

    # Merge in shard order. The exact-sum digests make the merge order
    # mathematically irrelevant; fixing it anyway means even a future
    # non-exact statistic would fail deterministically, not flakily.
    merged = CampaignAggregate()
    for index in sorted(outcomes):
        merged.merge(outcomes[index].aggregate())

    failures = tuple(supervisor.failures[name]
                     for name in sorted(supervisor.failures))
    return CampaignResult(
        name=matrix.name,
        cells=len(matrix),
        shards=len(shard_specs),
        trials=sum(outcome.trials for outcome in outcomes.values()),
        rows=merged.rows(),
        failures=failures,
        retries=supervisor.retries,
        seconds=time.perf_counter() - wall_start,
    )


# ---------------------------------------------------------------------------
# Matrix specs (the CLI's JSON input)
# ---------------------------------------------------------------------------

_SCALES = {"full": FULL, "quick": QUICK, "smoke": SMOKE}


def matrix_from_spec(spec: Mapping[str, Any]) -> ScenarioMatrix:
    """Build a :class:`ScenarioMatrix` from a JSON-shaped mapping.

    Shape (only ``name`` and ``scenario`` are required)::

        {"name": "fleet", "scenario": "notification",
         "scale": "quick", "seed": 7, "faults": "mild",
         "devices": ["pixel 2", ["mi8", "10"]],
         "versions": ["9", "10"],
         "configs": [{"attacking_window_ms": 100.0}],
         "fault_profiles": ["none", "mild"],
         "trials": 50,
         "attackers": ["draw-and-destroy", "notification-flooding"],
         "users": ["stochastic-human", "gui-agent"],
         "base_params": {"duration_ms": 400.0}}

    ``devices`` entries are model names (or ``[model, version]`` pairs
    for ambiguous models); ``versions`` expands to every evaluation
    device on those Android versions. ``seed``/``faults`` override the
    named scale's defaults.
    """
    from ..devices.registry import device

    unknown = set(spec) - {
        "name", "scenario", "scale", "seed", "faults", "devices", "versions",
        "configs", "fault_profiles", "trials", "base_params",
        "attackers", "users",
    }
    if unknown:
        raise ValueError(
            f"unknown matrix spec keys: {', '.join(sorted(unknown))}")
    for key in ("name", "scenario"):
        if key not in spec:
            raise ValueError(f"matrix spec is missing required key {key!r}")

    scale_name = str(spec.get("scale", "quick")).lower()
    try:
        scale = _SCALES[scale_name]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale_name!r}; valid: "
            f"{', '.join(sorted(_SCALES))}") from None
    if "seed" in spec:
        scale = scale.with_seed(int(spec["seed"]))
    if "faults" in spec:
        scale = scale.with_faults(str(spec["faults"]))

    devices = []
    for entry in spec.get("devices", ()):
        if isinstance(entry, str):
            devices.append(device(entry))
        else:
            model, version = entry
            devices.append(device(model, version))

    configs = tuple(dict(c) for c in spec.get("configs", ())) or ({},)
    return ScenarioMatrix(
        name=str(spec["name"]),
        scenario=str(spec["scenario"]),
        scale=scale,
        devices=tuple(devices),
        versions=tuple(str(v) for v in spec.get("versions", ())),
        configs=configs,
        fault_profiles=tuple(str(f) for f in spec.get("fault_profiles", ())),
        trials=int(spec.get("trials", 1)),
        base_params=dict(spec.get("base_params", {})),
        attackers=tuple(str(a) for a in spec.get("attackers", ())),
        users=tuple(str(u) for u in spec.get("users", ())),
    )


def format_campaign(result: CampaignResult) -> str:
    """Human-readable campaign summary (the CLI's default output)."""
    lines = [
        f"campaign {result.name}: {result.trials}/{result.cells} trials "
        f"over {result.shards} shards in {result.seconds:.1f}s "
        f"({result.retries} shard retries, {len(result.failures)} failed)",
        "",
        f"{'group':<24} {'metric':<28} {'count':>7} {'mean':>10} "
        f"{'stddev':>10} {'p50':>10} {'p95':>10} {'p99':>10}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.group:<24} {row.name:<28} {row.count:>7d} "
            f"{row.mean:>10.4f} {row.stddev:>10.4f} {row.p50:>10.4f} "
            f"{row.p95:>10.4f} {row.p99:>10.4f}")
    for failure in result.failures:
        lines.append(f"FAILED {failure.name}: {failure.kind} "
                     f"after {failure.attempts} attempts — {failure.error}")
    return "\n".join(lines) + "\n"
