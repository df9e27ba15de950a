"""Top-level simulation container.

A :class:`Simulation` owns the clock, scheduler, trace log and root random
stream, and keeps a registry of the processes participating in a run. All
higher layers (Binder, window manager, attacks, ...) are built against this
object, never against module-level globals, so multiple independent
simulations can coexist in one Python process — a property both the tests
and the parameter-sweep benchmarks rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .clock import Clock
from .errors import ProcessError, SimulationError
from .event import Callback, Event
from .faults import FaultPlan
from .rng import SeededRng
from .scheduler import EventScheduler
from .tracing import TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry


class Simulation:
    """A single deterministic simulation run."""

    def __init__(
        self,
        seed: int = 0,
        trace_enabled: bool = True,
        faults: Optional[FaultPlan] = None,
        metrics: "Optional[MetricsRegistry]" = None,
    ) -> None:
        if metrics is None:
            from ..obs.context import current_metrics

            metrics = current_metrics()
        self._metrics = metrics
        self._clock = Clock()
        self._scheduler = EventScheduler(self._clock, metrics=metrics)
        self._rng = SeededRng(seed)
        self._trace = TraceLog(enabled=trace_enabled)
        self._processes: Dict[str, "object"] = {}
        self._faults: Optional[FaultPlan] = None
        if faults is not None:
            self.install_faults(faults)

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._clock.now

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def scheduler(self) -> EventScheduler:
        return self._scheduler

    @property
    def rng(self) -> SeededRng:
        return self._rng

    @property
    def trace(self) -> TraceLog:
        return self._trace

    @property
    def metrics(self) -> "Optional[MetricsRegistry]":
        """The metrics registry observing this run, or ``None`` (disabled).

        Resolved once at construction — explicitly passed, else the
        ambient :func:`repro.obs.use_metrics` registry. Components resolve
        their instruments from it at construction time and guard hot paths
        with a single ``is not None`` check, so a disabled registry costs
        nothing measurable (gated <5% by
        ``benchmarks/bench_metrics_overhead.py``).
        """
        return self._metrics

    @property
    def faults(self) -> Optional[FaultPlan]:
        """The installed fault plan, or ``None`` for a fault-free run.

        Consumers (the animator, the Binder router, the compositor hooks)
        treat ``None`` as "inject nothing" and skip every fault code path,
        so the unperturbed simulation behaves exactly as it did before the
        fault layer existed — same events, same random draws.
        """
        return self._faults

    def install_faults(self, plan: FaultPlan) -> None:
        """Attach a fault plan; at most one per simulation.

        Installing mid-run would shift random streams relative to a run
        that was born with the plan, so installation is only allowed while
        the simulation is pristine (no events dispatched yet).
        """
        if self._faults is not None:
            raise SimulationError("a fault plan is already installed")
        if self._scheduler.dispatched_count:
            raise SimulationError(
                "cannot install faults after events have dispatched"
            )
        self._faults = plan
        if plan.perturbs_dispatch:
            self._scheduler.install_perturbation(plan.perturb_event_time)

    def reset(self, seed: int, trace_enabled: Optional[bool] = None) -> None:
        """Re-arm this simulation for a new run under ``seed``.

        After ``reset`` the container is indistinguishable from a freshly
        constructed ``Simulation(seed, trace_enabled)``: the clock is back
        at zero, the scheduler is empty with zeroed counters and no fault
        perturbation, the trace has no records and no subscribers, the
        root random stream is re-derived from ``(seed, "root")``, the
        process registry is empty and no fault plan is installed. The
        metrics registry (if any) survives — it aggregates across every
        trial run on this container.

        Every ``SeededRng`` sub-stream is a pure function of
        ``(seed, path)`` — children derive from the parent's *seed*, never
        from its stream state — which is what makes in-place reset
        bit-identical to rebuilding. Long-lived processes must re-register
        and re-derive their streams afterwards (see
        :meth:`~repro.sim.process.SimProcess.rearm`); a new fault plan, if
        any, is installed separately via :meth:`install_faults`.
        """
        self._scheduler.reset()
        self._clock.reset()
        self._rng.reseed(seed)
        self._trace.reset(enabled=trace_enabled)
        self._processes.clear()
        self._faults = None

    # ------------------------------------------------------------------
    # Process registry
    # ------------------------------------------------------------------
    def register_process(self, process) -> None:
        name = getattr(process, "name", None)
        if not name:
            raise ProcessError(f"process {process!r} has no name")
        if name in self._processes:
            raise ProcessError(f"duplicate process name {name!r}")
        self._processes[name] = process

    def process(self, name: str) -> Optional[object]:
        return self._processes.get(name)

    @property
    def process_names(self):
        return list(self._processes)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def schedule_at(self, time_ms: float, callback: Callback, name: str = "") -> Event:
        return self._scheduler.schedule_at(time_ms, callback, name)

    def schedule_after(self, delay_ms: float, callback: Callback, name: str = "") -> Event:
        return self._scheduler.schedule_after(delay_ms, callback, name)

    def run_until(self, time_ms: float) -> int:
        """Run the simulation up to (and including) ``time_ms``."""
        return self._scheduler.run_until(time_ms)

    def run_for(self, duration_ms: float) -> int:
        """Run the simulation for a further ``duration_ms``."""
        return self._scheduler.run_until(self._clock.now + duration_ms)

    def run_to_completion(self, max_events: int = 10_000_000) -> int:
        return self._scheduler.run_to_completion(max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulation(now={self.now:.3f}ms, "
            f"processes={len(self._processes)}, "
            f"pending={self._scheduler.pending_count})"
        )
