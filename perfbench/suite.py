"""Workload ``suite-quick``: the QUICK suite, in-process, metrics on.

One pass is ``run_all(scale, jobs=1, collect_metrics=True)`` -- the
path ``repro metrics --scale quick`` takes. A run keeps ``nproc`` worker
processes busy, each running its own passes one after another, like
``nproc`` users running the suite at once: one process per core
averages the cores' speeds, which on the reference host drift
independently of each other. Pass ``i`` of a run replaces the QUICK
base seed with ``1000 * seed + i``, so every experiment draws fresh
streams and a run pools its trial latencies over several inputs: which
trial kinds a pass runs depends on its seed (boundary searches stop
early, for one), and a single seed's mix moves the median.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from pathlib import Path
from statistics import median
from typing import Iterator, List

from . import oracle
from .common import Outcome, nproc
from .layers import Trace, require_work
from .oracle import CheckFailed, require
from .spec import EXPERIMENT_NAMES

#: Nominal seconds of one pass while every core runs one; fixes the
#: passes per worker so every run repeats the same whole passes.
NOMINAL_PASS_S = 6.0
MIN_PASSES = 2
WORKER_TIMEOUT_S = 150.0


def setup(seed: int, workers: int, per_worker: int):
    """Each worker's scales: pass ``i`` is seeded ``1000 * seed + i``."""
    from repro.experiments.config import QUICK

    return [[QUICK.with_seed(1000 * seed + worker + workers * k)
             for k in range(per_worker)] for worker in range(workers)]


def _per_worker(seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))


def _worker(conn, scales) -> None:
    """Import, report ready, then on "go" run every pass and report."""
    from repro.experiments.runner import run_all  # noqa: F401 (set-up)

    conn.send("ready")
    if conn.recv() != "go":
        return
    report = {"walls": [], "trial_ms": [], "attempted": 0, "failed": 0,
              "error": None}
    try:
        for scale in scales:
            with timed_trials(report["trial_ms"]):
                results, wall = _one_pass(scale)
            report["walls"].append(wall)
            report["attempted"] += len(results.timings)
            report["failed"] += len(results.failures)
            check(results, scale)
    except CheckFailed as exc:
        report["error"] = str(exc)
    conn.send(report)


@contextlib.contextmanager
def _started(scales) -> Iterator[list]:
    """Set-up: spawn one worker per scale list and wait until each has
    imported the program; yield their connections; join them on exit."""
    context = multiprocessing.get_context("spawn")
    conns, procs = [], []
    try:
        for worker_scales in scales:
            parent, child = context.Pipe()
            proc = context.Process(target=_worker, args=(child, worker_scales))
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)
        for conn in conns:
            require(conn.poll(WORKER_TIMEOUT_S) and conn.recv() == "ready",
                    "a suite worker did not start")
        yield conns
    finally:
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.send("stop")
        for proc in procs:
            proc.join(WORKER_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()


def probe(seed: int, seconds: float, work: Path, ready) -> None:
    workers = nproc()
    with _started(setup(seed, workers, _per_worker(seconds))):
        ready()


def _one_pass(scale):
    from repro.experiments.runner import run_all

    start = time.perf_counter()
    results = run_all(scale, jobs=1, collect_metrics=True)
    return results, time.perf_counter() - start


@contextlib.contextmanager
def timed_trials(samples: List[float]) -> Iterator[List[float]]:
    """Append the wall time (ms) of every ``TrialExecutor.run`` call."""
    from repro.experiments.engine import TrialExecutor

    original = TrialExecutor.run

    def run(executor, spec):
        start = time.perf_counter()
        try:
            return original(executor, spec)
        finally:
            samples.append((time.perf_counter() - start) * 1000.0)

    TrialExecutor.run = run
    try:
        yield samples
    finally:
        TrialExecutor.run = original


def check(results, scale) -> None:
    """The suite's outputs against closed forms and method properties.

    Experiments that failed are counted as failed operations and not
    checked here."""
    from repro.devices.registry import DEVICES
    from repro.systemui.outcomes import NotificationOutcome

    failed = {failure.name for failure in results.failures}

    # Table II: each measured bound sits within one bisection step plus
    # one refresh interval of the Eq. 3 bound.
    if "table2" not in failed:
        rows = results.table2.rows
        require(len(rows) == len(DEVICES) == 30,
                f"Table II has {len(rows)} rows for {len(DEVICES)} devices")
        for row, profile in zip(rows, DEVICES):
            require(row.profile_key == profile.key,
                    f"Table II row {row.profile_key!r} != {profile.key!r}")
            bound = oracle.eq3_bound_ms(profile)
            slack = oracle.BISECTION_STEP_MS + profile.refresh_interval_ms
            require(abs(row.measured_upper_bound_d - bound) <= slack,
                    f"Table II {profile.key}: measured "
                    f"{row.measured_upper_bound_d:.2f} ms, Eq. 3 "
                    f"{bound:.2f} ms")

    # Fig 2 is B itself; Fig 4 is the accelerate/decelerate parabolas.
    if "fig2" not in failed:
        curve = results.fig2.curve
        require(curve.duration_ms == oracle.SLIDE_IN_MS,
                f"Fig 2 duration {curve.duration_ms}")
        oracle.check_curve(curve.points, curve.duration_ms, oracle.bezier_b,
                           "Fig 2")
    if "fig4" not in failed:
        fig4 = results.fig4
        oracle.check_curve(fig4.accelerate.points,
                           fig4.accelerate.duration_ms,
                           lambda u: u * u, "Fig 4 accelerate")
        oracle.check_curve(fig4.decelerate.points,
                           fig4.decelerate.duration_ms,
                           lambda u: 1.0 - (1.0 - u) * (1.0 - u),
                           "Fig 4 decelerate")

    # §VII-B: whatever the attack suppresses without the 690 ms hide
    # delay is visible with it.
    if "defense_notification" not in failed:
        defense = results.defense_notification
        require(defense.hide_delay_ms == 690.0,
                f"hide delay {defense.hide_delay_ms}")
        suppressed = [
            t for t in defense.trials
            if t.outcome_without_defense is NotificationOutcome.LAMBDA1]
        require(suppressed,
                "§VII-B: no trial was suppressed without the defense")
        for trial in suppressed:
            require(trial.outcome_with_defense > NotificationOutcome.LAMBDA1,
                    f"§VII-B: D={trial.attacking_window_ms} stays hidden "
                    "with the hide delay")

    # Corpus: exactly the QUICK corpus, no category larger than it.
    if "corpus" not in failed:
        measured = results.corpus.measured
        require(measured.total == scale.corpus_size,
                f"corpus analysed {measured.total} apps, scale has "
                f"{scale.corpus_size}")
        for name in ("saw_and_accessibility", "addremove_and_saw",
                     "custom_toast", "full_capability"):
            count = getattr(measured, name)
            require(0 <= count <= measured.total,
                    f"corpus {name} = {count} of {measured.total}")


def measure(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    workers = nproc()
    scales = setup(seed, workers, _per_worker(seconds))
    out = Outcome()
    if trace:
        return _traced(scales[0][0], out)

    with _started(scales) as conns:
        start = time.perf_counter()
        for conn in conns:
            conn.send("go")
        reports = []
        for conn in conns:
            require(conn.poll(WORKER_TIMEOUT_S), "a suite worker timed out")
            reports.append(conn.recv())
        wall = time.perf_counter() - start
    walls, trial_ms = [], []
    for report in reports:
        if report["error"] is not None:
            raise CheckFailed(report["error"])
        walls += report["walls"]
        trial_ms += report["trial_ms"]
        out.attempted += report["attempted"]
        out.failed += report["failed"]
    out.metrics = {
        "pass_s": median(walls),
        "trials_per_s": len(trial_ms) / wall,
        "p50_ms": median(trial_ms),
    }
    out.notes.append(
        f"suite-quick: {len(walls)} passes on {workers} workers in "
        f"{wall:.3f} s, pass walls "
        + ", ".join(f"{w:.3f}" for w in walls) + f" s; {len(trial_ms)} "
        f"trials, p95 {oracle.p95(trial_ms):.2f} ms")
    return out


def _traced(scale, out: Outcome) -> Outcome:
    results, wall = _one_pass(scale)
    check(results, scale)
    tracer = Trace()
    with tracer.active():
        traced, traced_wall = _one_pass(scale)
    require(traced == results, "the traced pass differs from the untraced")
    out.attempted = 2 * len(results.timings)
    out.failed = len(results.failures) + len(traced.failures)
    layers = tracer.metrics()
    for timing in results.timings:
        layers[f"experiments.{timing.name}_s"] = timing.seconds
    layers["supervision.tasks"] = float(len(results.timings))
    layers["supervision.attempts"] = float(
        sum(t.attempts for t in results.timings))
    layers["trace.overhead_s"] = traced_wall - wall
    for name in EXPERIMENT_NAMES:
        require(f"experiments.{name}_s" in layers,
                f"experiment {name} missing from the run's timings")
    require_work(layers, (
        "faults.self_s", "faults.perturbations", "animation.self_s",
        "toast.self_s", "toast.alpha_samples", "staticanalysis.self_s",
        "staticanalysis.apps", "users.self_s", "attacks.self_s",
        "supervision.self_s", "obs.self_s"))
    out.layers = layers
    out.notes.append(f"suite-quick traced: untraced {wall:.3f} s, "
                     f"traced {traced_wall:.3f} s")
    return out
