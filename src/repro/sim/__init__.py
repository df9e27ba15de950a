"""Deterministic discrete-event simulation kernel.

The kernel is intentionally small: a millisecond-resolution clock, a heap
scheduler with O(1) cancellation, seeded random sub-streams, a structured
trace log, a process base class, and the :class:`Simulation` container that
ties them together.
"""

from .clock import Clock
from .errors import (
    ClockError,
    EventCancelledError,
    ProcessError,
    SchedulingError,
    SimulationError,
)
from .event import Event
from .faults import (
    ADVERSARIAL,
    MILD,
    NONE,
    PIXEL_LOADED,
    PROFILES,
    FaultPlan,
    FaultProfile,
    default_profile_name,
    plan_for,
    profile,
    set_default_profile,
    use_default_profile,
)
from .process import SimProcess
from .rng import SeededRng
from .scheduler import EventScheduler
from .simulation import Simulation
from .tracing import TraceLog, TraceRecord

__all__ = [
    "ADVERSARIAL",
    "Clock",
    "ClockError",
    "Event",
    "EventCancelledError",
    "EventScheduler",
    "FaultPlan",
    "FaultProfile",
    "MILD",
    "NONE",
    "PIXEL_LOADED",
    "PROFILES",
    "ProcessError",
    "SchedulingError",
    "SeededRng",
    "SimProcess",
    "Simulation",
    "SimulationError",
    "TraceLog",
    "TraceRecord",
    "default_profile_name",
    "plan_for",
    "profile",
    "set_default_profile",
    "use_default_profile",
]
