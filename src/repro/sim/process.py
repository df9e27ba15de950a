"""Base class for simulated OS processes and services."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import SchedulingError
from .event import Callback, Event
from .rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulation import Simulation


class SimProcess:
    """A named participant in the simulation.

    Each Android entity in the reproduction — System Server, System UI, the
    malicious app's main and worker threads, the simulated user — is a
    ``SimProcess``. The base class provides clock access, scheduling and a
    private random stream, mirroring how each real process has its own
    execution context.
    """

    def __init__(self, simulation: "Simulation", name: str) -> None:
        self._simulation = simulation
        # The simulation keeps one clock, scheduler and trace log for
        # life (reset rewinds each in place), so the hot paths below can
        # skip the simulation hop.
        self._clock = simulation.clock
        self._scheduler = simulation.scheduler
        self._trace_log = simulation.trace
        self._name = name
        self._rng = simulation.rng.child(name)
        simulation.register_process(self)

    def rearm(self) -> None:
        """Re-attach this process after :meth:`Simulation.reset`.

        Re-derives the private random stream from the simulation's (new)
        root seed and re-enters the process registry — exactly what
        ``__init__`` did, so a re-armed process draws the same values a
        newly constructed one would. The existing stream object is reseeded
        in place (its path already is ``root/<name>``), which
        :meth:`SeededRng.reseed` guarantees is bit-identical to deriving a
        fresh child — and keeps the reset path allocation-free. Subclasses
        extend this to clear their own per-run state.
        """
        self._rng.reseed(self._simulation.rng.seed)
        self._simulation.register_process(self)

    @property
    def simulation(self) -> "Simulation":
        return self._simulation

    @property
    def name(self) -> str:
        return self._name

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def rng(self) -> SeededRng:
        return self._rng

    def schedule(self, delay_ms: float, callback: Callback, name: str = "") -> Event:
        """Schedule a callback relative to now, tagged with this process.

        Equivalent to ``scheduler.schedule_after`` with the tagged name,
        minus one call: this is the path most events take.
        """
        label = f"{self._name}:{name or callback.__name__}"
        if delay_ms < 0:
            raise SchedulingError(f"negative delay {delay_ms} for {label!r}")
        now = self._clock.now
        return self._scheduler._push(now + delay_ms, now, callback, label)

    @property
    def tracing(self) -> bool:
        """Whether :meth:`trace` records anything.

        Hot paths test it before computing a record's detail, which
        :meth:`trace` would otherwise build only to drop.
        """
        log = self._trace_log
        return log._enabled or bool(log._subscribers)

    def trace(self, kind: str, **detail) -> None:
        """Record a trace event attributed to this process."""
        log = self._trace_log
        if not log._enabled and not log._subscribers:
            # Early out before even reading the clock: disabled-trace
            # sweeps pay one attribute test per happening instead of a
            # record construction. `TraceLog.record` repeats this check,
            # so behaviour is identical either way.
            return
        log.record(self._clock.now, self._name, kind, **detail)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self._name!r})"
