"""The stable public API of the reproduction suite.

Everything an external caller needs lives behind six entry points:

* :func:`build_stack` — boot one simulated Android device;
* :func:`run_experiment` — run one named experiment of the suite, from a
  typed :class:`ExperimentRequest` or its name;
* :func:`run_matrix` — run a declarative :class:`ScenarioMatrix` sweep
  with stack reuse;
* :func:`run_campaign` — run a fleet-scale matrix as a sharded,
  supervised, resumable campaign with streaming aggregates;
* :func:`query_feasibility` — answer one typed
  :class:`FeasibilityQuery` (*which D suppresses the alert on this
  device, and what capture exposure follows?*) through the exact
  execution path the ``repro serve`` service uses;
* :func:`run_all` / :func:`format_report` — the whole suite and its
  paper-vs-measured report.

Metrics compose ambiently: wrap any of these calls in
``with repro.obs.use_metrics(registry):`` and the simulation's
instruments feed ``registry`` without changing a single result byte.
"""

from __future__ import annotations

from typing import Any, List, Optional, Union

from .experiments.campaign import (
    CampaignManifest,
    CampaignResult,
    matrix_from_spec,
    run_campaign,
)
from .experiments.config import FULL, QUICK, SMOKE, ExperimentScale
from .experiments.engine import (
    ScenarioMatrix,
    TrialExecutor,
    TrialOutcome,
    scoped_executor,
)
from .experiments.parallel import (
    ExperimentRequest,
    experiment_names,
    experiment_spec,
    unit_scope,
)
from .experiments.resilience import (
    ExperimentFailure,
    RunPolicy,
    SupervisedTask,
    run_task,
)
from .experiments.runner import AllResults, format_report, run_all
from .serve import (
    FeasibilityQuery,
    FeasibilityReport,
    QueryResponse,
    execute_query,
)
from .stack import AndroidStack, build_stack

__all__ = [
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


def _execute_request(request: ExperimentRequest) -> Any:
    """The one implementation both call forms route through."""
    spec = experiment_spec(request.name)
    scale = request.effective_scale()
    if not request.derive_seed:
        if spec.takes_scale:
            return spec.runner(scale, **request.params)
        return spec.runner(**request.params)
    # One attempt through the same trampoline and unit scope as a
    # ``run_all`` worker, chaos fault points included.
    return run_task(SupervisedTask(name=request.name, fn=_run_in_unit_scope,
                                   args=(request,)), attempt=1)


def _run_in_unit_scope(request: ExperimentRequest) -> Any:
    scale = request.effective_scale()
    with unit_scope(scale.faults):
        return experiment_spec(request.name).run(scale, **request.params)


def run_experiment(
    request: Union[ExperimentRequest, str],
    *,
    scale: ExperimentScale = QUICK,
    faults: Optional[str] = None,
    derive_seed: bool = True,
) -> Any:
    """Run one named experiment and return its result dataclass.

    The typed form — ``run_experiment(ExperimentRequest(name="fig7",
    params={"durations": (50.0, 200.0)}))`` — validates everything
    eagerly (unknown experiment names, unknown fault profiles). Passing an
    :class:`ExperimentRequest` together with any other argument is a
    :class:`TypeError`: the request already carries them all.

    The short form takes the experiment name as a string with the same
    keyword options spread alongside; experiment ``params`` travel only
    on an :class:`ExperimentRequest`.

    ``derive_seed=True`` (the default) reproduces exactly what
    ``run_all`` does for this experiment: the seed is derived from
    ``(scale.name, scale.seed, name)`` and the experiment runs inside the
    same :func:`~repro.experiments.parallel.unit_scope` as a ``run_all``
    worker — so the result is bit-identical to the same experiment's
    slot in the full suite. ``derive_seed=False`` instead calls the
    implementation directly with ``scale`` as given, for callers that
    pin their own seeds. Either way the experiment runs in-process.
    """
    if isinstance(request, ExperimentRequest):
        if (scale is not QUICK or faults is not None
                or derive_seed is not True):
            raise TypeError(
                "pass scale/faults/derive_seed on the "
                "ExperimentRequest itself, not alongside it")
        return _execute_request(request)
    return _execute_request(ExperimentRequest(
        name=request, scale=scale, faults=faults, derive_seed=derive_seed))


def query_feasibility(
    query: Optional[FeasibilityQuery] = None, **fields: Any
) -> FeasibilityReport:
    """Answer one attack-feasibility query in-process.

    Either pass a built :class:`FeasibilityQuery`, or its fields directly
    (``query_feasibility(device="pixel 2", d_max_ms=300.0)``). This is
    the *same* execution path the ``repro serve`` service schedules on
    its worker pool — same scenarios, same seed derivation — so the
    report is byte-identical to a served answer; only caching, queueing
    and supervision differ.
    """
    if query is None:
        query = FeasibilityQuery(**fields)
    elif fields:
        raise TypeError(
            "pass query fields on the FeasibilityQuery itself, not "
            "alongside it")
    return execute_query(query)


def run_matrix(
    matrix: ScenarioMatrix,
    *,
    executor: Optional[TrialExecutor] = None,
) -> List[TrialOutcome]:
    """Run every cell of ``matrix``, pairing each spec with its result.

    Without an explicit ``executor`` the ambient one is used when an
    enclosing experiment installed it, otherwise a fresh stack-reuse
    executor scoped to this call. Under an ambient metrics registry each
    outcome carries its per-trial metric delta.
    """
    if executor is not None:
        return executor.run_matrix(matrix)
    with scoped_executor() as scoped:
        return scoped.run_matrix(matrix)
