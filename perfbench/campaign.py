"""Workload ``campaign-fleet``: a notification-attack fleet campaign.

All 30 evaluation devices (Android 8-11) x 36 attacking windows from 50
to 400 ms (so every device has windows on both sides of its Eq. 3 bound,
59-391 ms) x fault profiles ``none`` and ``pixel-loaded`` x 2 trials of
600 ms = 4,320 cells, run by ``run_campaign`` with 32 shards on ``nproc``
jobs, journaled to a fresh run directory per pass. Trials are grouped
per (device, faults, D) cell so the outcome rule can be checked on the
campaign's own aggregates.

Metrics are off: at ``jobs > 1`` trial-level series never reach the
caller's registry (see README.md).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from statistics import median

from . import oracle
from .common import Outcome, nproc
from .layers import Trace, require_work
from .oracle import require

D_VALUES_MS = tuple(float(d) for d in range(50, 401, 10))
FAULTS = ("none", "pixel-loaded")
TRIALS = 2
TRIAL_MS = 600.0
SHARDS = 32
NOMINAL_PASS_S = 2.5
MIN_PASSES = 7


def group_by_cell(spec, value) -> str:
    """One aggregate group per (device, faults, D) cell."""
    return (f"{spec.profile.key}|{spec.faults}"
            f"|{spec.params['attacking_window_ms']:g}")


def setup(seed: int):
    from repro.devices.registry import DEVICES
    from repro.experiments.config import QUICK
    from repro.experiments.engine import ScenarioMatrix

    return ScenarioMatrix(
        name="perfbench-fleet",
        scenario="notification",
        scale=QUICK.with_seed(seed),
        devices=tuple(DEVICES),
        configs=tuple({"attacking_window_ms": d} for d in D_VALUES_MS),
        fault_profiles=FAULTS,
        trials=TRIALS,
        base_params={"duration_ms": TRIAL_MS},
    )


def probe(seed: int, seconds: float, work: Path, ready) -> None:
    from repro.experiments.campaign import run_campaign  # noqa: F401

    setup(seed)
    ready()


def _one_pass(matrix, run_dir: Path, jobs: int):
    from repro.experiments.campaign import run_campaign

    start = time.perf_counter()
    result = run_campaign(matrix, shards=SHARDS, jobs=jobs, run_dir=run_dir,
                          group_by=group_by_cell)
    return result, time.perf_counter() - start


def _shard_ms(matrix, run_dir: Path):
    """Each shard's worker wall time, read back from the journal."""
    from repro.experiments.campaign import CampaignManifest, shard_name

    manifest = CampaignManifest.resume(run_dir, matrix, SHARDS)
    walls = []
    for index in range(SHARDS):
        outcome = manifest.load(shard_name(index))
        require(outcome is not None, f"shard {index} missing from journal")
        walls.append(outcome.seconds * 1000.0)
    return walls


def check(result, matrix) -> None:
    """Fault-free cells away from their bound obey Eq. 3 in every trial."""
    from repro.devices.registry import DEVICES

    profiles = {profile.key: profile for profile in DEVICES}
    decided = 0
    for row in result.rows:
        if row.name != "suppressed":
            continue
        key, faults, d = row.group.rsplit("|", 2)
        if faults != "none":
            continue
        if oracle.check_outcome_rule(profiles[key], float(d),
                                     suppressed_all=row.min == 1.0,
                                     suppressed_none=row.max == 0.0):
            decided += row.count
    require(decided >= len(matrix) // 4,
            f"only {decided} fault-free trials were decidable")


def measure(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    matrix = setup(seed)
    out = Outcome()
    jobs = nproc()
    if trace:
        return _traced(matrix, work, jobs, out)

    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))
    walls, shard_ms, trials, reference = [], [], 0, None
    for index in range(passes):
        run_dir = work / f"campaign-{index}"
        result, wall = _one_pass(matrix, run_dir, jobs)
        walls.append(wall)
        trials += result.trials
        out.attempted += result.cells
        out.failed += result.cells - result.trials
        shard_ms.extend(_shard_ms(matrix, run_dir))
        shutil.rmtree(run_dir)
        if reference is None:
            check(result, matrix)
            reference = result.aggregates_json()
        else:
            require(result.aggregates_json() == reference,
                    "a later pass aggregated differently")
    out.metrics = {
        "pass_s": median(walls),
        "trials_per_s": trials / sum(walls),
        "p50_ms": median(shard_ms),
    }
    out.notes.append(
        f"campaign-fleet: {passes} passes of {len(matrix)} cells on {jobs} "
        "jobs, walls " + ", ".join(f"{w:.3f}" for w in walls) + " s; "
        f"shard p95 {oracle.p95(shard_ms):.1f} ms")
    return out


def _traced(matrix, work: Path, jobs: int, out: Outcome) -> Outcome:
    """A timed pass on ``jobs`` workers, then an untraced and a traced
    in-process replay (``jobs=1``), whose aggregates the program
    guarantees identical."""
    timed, _ = _one_pass(matrix, work / "campaign-timed", jobs)
    check(timed, matrix)
    replay, wall = _one_pass(matrix, work / "campaign-replay", 1)
    tracer = Trace()
    with tracer.active():
        traced, traced_wall = _one_pass(matrix, work / "campaign-traced", 1)
    reference = timed.aggregates_json()
    require(replay.aggregates_json() == reference
            and traced.aggregates_json() == reference,
            f"aggregates differ between jobs={jobs} and jobs=1")
    for result in (timed, replay, traced):
        out.attempted += result.cells
        out.failed += result.cells - result.trials
    layers = tracer.metrics()
    layers["supervision.tasks"] = float(traced.shards)
    layers["supervision.attempts"] = float(traced.shards + traced.retries)
    layers["trace.overhead_s"] = traced_wall - wall
    require_work(layers, (
        "faults.self_s", "faults.perturbations", "aggregate.self_s",
        "aggregate.observes", "supervision.self_s", "storage.writes",
        "storage.bytes_written", "storage.write_s"))
    out.layers = layers
    out.notes.append(f"campaign-fleet traced: jobs=1 untraced {wall:.3f} s, "
                     f"traced {traced_wall:.3f} s")
    return out
