"""The one true execution path for feasibility queries.

:func:`execute_query` is shared verbatim by the in-process API
(:func:`repro.api.query_feasibility`) and the service's worker pool
(:func:`execute_query_job`), which is what makes a service answer
byte-identical to a direct call: same scenarios, same seed derivation,
same aggregation — only the transport differs.

Determinism contract: every trial's seed is
``sha256("serve:<base seed>:<cell>")`` over a cell string naming the
device, fault regime, behavior labels, grid value and trial index — the
same partitioning idiom as :meth:`ExperimentScale.for_experiment` — so
no trial shares RNG state with another and neither worker placement nor
execution order can change a byte of the report.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from ..actors import get_attacker, get_user
from ..apps.keyboard import KeyboardSpec, default_keyboard_rect
from ..devices import DeviceProfile
from ..experiments.engine import (
    TrialExecutor,
    TrialSpec,
    drive_until,
    scenario,
    scoped_executor,
)
from ..experiments.parallel import reset_id_allocators
from ..sim.rng import SeededRng
from ..stack import AndroidStack
from ..systemui.outcomes import NotificationOutcome
from ..users.passwords import PasswordGenerator
from .schema import (
    CaptureProbeStats,
    DWindowPoint,
    FeasibilityProbeTrial,
    FeasibilityQuery,
    FeasibilityReport,
)

__all__ = ["execute_query", "execute_query_job"]

#: Settling time appended after the attack withdraws (ms) — matches the
#: scenario library so outcomes classify identically.
_SETTLE_MS = 400.0

#: Supervised-task name of every query job, hence its chaos fault point
#: (``REPRO_CHAOS`` ``"serve-query:<attempt>:<mode>"`` targets every
#: query).
CHAOS_POINT = "serve-query"


@scenario("feasibility")
def feasibility_scenario(
    stack: AndroidStack,
    attacking_window_ms: float,
    duration_ms: float = 2000.0,
    attacker=None,
    user=None,
) -> NotificationOutcome:
    """One D-sweep trial: run the attacker model, classify the alert.

    ``attacker``/``user`` arrive as resolved behavior models when the
    :class:`TrialSpec` carries labels; the default attacker is the
    paper's draw-and-destroy overlay. The user model is unused here —
    the sweep measures the alert, not input capture — but accepted so
    labeled specs route through unchanged.
    """
    model = attacker if attacker is not None else get_attacker(
        "draw-and-destroy")
    handle = model.launch(stack, attacking_window_ms=attacking_window_ms)
    stack.run_for(duration_ms)
    worst_during = stack.system_ui.worst_outcome()
    model.withdraw(handle)
    stack.run_for(_SETTLE_MS)
    worst_after = stack.system_ui.worst_outcome()
    return max(worst_during, worst_after)


@scenario("feasibility-capture")
def feasibility_capture_scenario(
    stack: AndroidStack,
    attacking_window_ms: float,
    seed: int,
    probe_chars: int = 8,
    attacker=None,
    user=None,
) -> FeasibilityProbeTrial:
    """One capture-probe trial: the user model types under the attack.

    ``seed`` is passed explicitly (besides seeding the stack) because
    the probe text draws from its own ``SeededRng(seed,
    "feasibility-text")`` stream, mirroring the capture scenario.
    """
    attacker_model = attacker if attacker is not None else get_attacker(
        "draw-and-destroy")
    user_model = user if user is not None else get_user("stochastic-human")
    spec = KeyboardSpec(default_keyboard_rect(
        stack.profile.screen_width_px, stack.profile.screen_height_px))
    generator = PasswordGenerator(SeededRng(seed, "feasibility-text"), spec)
    text = generator.generate_letters(probe_chars)

    handle = attacker_model.launch(
        stack, attacking_window_ms=attacking_window_ms)
    stack.run_for(50.0)  # let the first overlay come up
    session = user_model.type_text(stack, spec, text)
    drive_until(stack, lambda: session.complete)
    attacker_model.withdraw(handle)
    stack.run_for(_SETTLE_MS)

    return FeasibilityProbeTrial(
        total_taps=len(session.taps),
        captured_taps=session.captured_by(getattr(handle, "package", "")),
        stale_taps=session.stale_count,
        mean_percept_age_ms=session.mean_percept_age_ms,
    )


def _trial_seed(query: FeasibilityQuery, cell: str) -> int:
    material = f"serve:{query.seed}:{cell}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _cell(query: FeasibilityQuery, profile: DeviceProfile, kind: str,
          d: float, trial: int) -> str:
    return (f"feasibility/{profile.key}/{query.faults}/{query.attacker}"
            f"/{query.user}/{kind}/d={d:g}/{trial}")


def execute_query(
    query: FeasibilityQuery,
    executor: Optional[TrialExecutor] = None,
) -> FeasibilityReport:
    """Answer ``query`` deterministically; pure function of the query.

    With an ``executor`` the trials lease stacks from its reuse pool (the
    service passes each worker's warm pool); without one a fresh pool is
    scoped to this call. Either way the report is bit-identical.
    """
    if executor is not None:
        return _execute(query, executor)
    with scoped_executor() as scoped:
        return _execute(query, scoped)


def _execute(query: FeasibilityQuery,
             executor: TrialExecutor) -> FeasibilityReport:
    profile = query.resolve_device()
    reset_id_allocators()

    points: List[DWindowPoint] = []
    max_feasible: Optional[float] = None
    prefix_suppressed = True
    for d in query.d_values():
        outcomes = [
            executor.run(TrialSpec(
                scenario="feasibility",
                seed=_trial_seed(query, _cell(query, profile, "sweep", d, t)),
                profile=profile,
                faults=query.faults,
                params={"attacking_window_ms": d,
                        "duration_ms": query.trial_duration_ms},
                attacker=query.attacker,
                user=query.user,
            ))
            for t in range(query.trials_per_d)
        ]
        suppressed = sum(1 for o in outcomes if o.suppressed)
        points.append(DWindowPoint(
            attacking_window_ms=d,
            trials=len(outcomes),
            suppressed_trials=suppressed,
            suppression_rate=suppressed / len(outcomes),
            worst_outcome=max(outcomes).label,
        ))
        if prefix_suppressed and suppressed == len(outcomes):
            max_feasible = d
        else:
            prefix_suppressed = False

    probe: Optional[CaptureProbeStats] = None
    if (max_feasible is not None and query.probe_chars > 0
            and query.probe_trials > 0):
        trials = [
            executor.run(TrialSpec(
                scenario="feasibility-capture",
                seed=(s := _trial_seed(
                    query, _cell(query, profile, "probe", max_feasible, t))),
                profile=profile,
                faults=query.faults,
                params={"attacking_window_ms": max_feasible,
                        "seed": s,
                        "probe_chars": query.probe_chars},
                attacker=query.attacker,
                user=query.user,
            ))
            for t in range(query.probe_trials)
        ]
        total = sum(t.total_taps for t in trials)
        captured = sum(t.captured_taps for t in trials)
        probe = CaptureProbeStats(
            attacking_window_ms=max_feasible,
            trials=len(trials),
            total_taps=total,
            captured_taps=captured,
            capture_rate=captured / total if total else 0.0,
            stale_taps=sum(t.stale_taps for t in trials),
            mean_percept_age_ms=(
                sum(t.mean_percept_age_ms * t.total_taps for t in trials)
                / total if total else 0.0),
        )

    return FeasibilityReport(
        query_hash=query.content_hash(),
        device_key=profile.key,
        android_version=profile.android_version.label,
        faults=query.faults,
        attacker=query.attacker,
        user=query.user,
        points=tuple(points),
        max_feasible_d_ms=max_feasible,
        published_upper_bound_d_ms=profile.published_upper_bound_d,
        mean_tmis_ms=profile.mean_tmis_ms,
        probe=probe,
    )


#: Per-worker warm executor: stacks stay pooled between jobs, which is
#: the whole point of routing queries at a long-lived worker process.
_WORKER_EXECUTOR: Optional[TrialExecutor] = None


def execute_query_job(query: FeasibilityQuery) -> FeasibilityReport:
    """Process-pool entry point: execution on the worker's warm executor.

    The service calls it as the :data:`CHAOS_POINT` task through
    :func:`~repro.experiments.resilience.run_task`, which owns the chaos
    gate and the poison check; the retry number never reaches it, so a
    crash-then-retry answer is bit-identical to a clean one.
    """
    global _WORKER_EXECUTOR
    if _WORKER_EXECUTOR is None:
        _WORKER_EXECUTOR = TrialExecutor()
    return execute_query(query, executor=_WORKER_EXECUTOR)
