"""Deterministic event scheduler built on a binary heap."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from .clock import Clock
from .errors import SchedulingError
from .event import Callback, Event, EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry

#: Fault hook signature: ``(requested_time, now, name) -> effective_time``.
#: The effective time must be >= the requested time (faults only delay).
TimePerturbation = Callable[[float, float, str], float]

#: Heap entries are ``(time, seq, event)`` tuples: the C tuple comparison
#: replaces a Python-level ``Event.__lt__`` call per sift step, and orders
#: identically — ``seq`` is unique, so the event itself is never compared.
HeapEntry = Tuple[float, int, Event]


class EventScheduler:
    """Priority-queue scheduler driving a :class:`~repro.sim.clock.Clock`.

    The scheduler pops events in ``(time, insertion order)`` order, advances
    the clock to each event's timestamp and invokes its callback. Cancelled
    events are skipped lazily, which makes cancellation O(1).

    An optional :data:`TimePerturbation` hook (installed by the fault
    layer, :mod:`repro.sim.faults`) may delay each event at schedule time —
    modelling dispatch latency and GC pauses. Because the hook can only
    move events *later* and the heap still pops by ``(time, seq)``, every
    kernel invariant survives: the clock is monotone, no event is lost,
    and dispatch order is non-decreasing in time.
    """

    def __init__(self, clock: Clock,
                 metrics: "Optional[MetricsRegistry]" = None) -> None:
        self._clock = clock
        self._heap: List[HeapEntry] = []
        self._seq = 0
        self._dispatched = 0
        self._pending = 0
        self._cancelled = 0
        self._perturb: Optional[TimePerturbation] = None
        # Instruments are resolved once here; every hot-path guard below is
        # a single `is not None`. Metrics only *observe* (no clock, RNG or
        # heap interaction), so enabling them cannot perturb a run.
        if metrics is not None:
            self._m_scheduled = metrics.counter(
                "sim_scheduler_events_scheduled_total")
            self._m_dispatched = metrics.counter(
                "sim_scheduler_events_dispatched_total")
            self._m_cancelled = metrics.counter(
                "sim_scheduler_events_cancelled_total")
            self._m_delay = metrics.histogram("sim_scheduler_event_delay_ms")
            self._m_depth = metrics.histogram("sim_scheduler_queue_depth")
        else:
            self._m_scheduled = None
            self._m_dispatched = None
            self._m_cancelled = None
            self._m_delay = None
            self._m_depth = None

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        O(1): the counter is maintained on schedule/dispatch, and each
        event's ``on_cancel`` hook decrements it the moment a handle
        cancels the event — no heap scan.
        """
        return self._pending

    @property
    def dispatched_count(self) -> int:
        """Total number of callbacks executed so far."""
        return self._dispatched

    @property
    def cancelled_count(self) -> int:
        """Total events cancelled while still queued.

        Together with :attr:`dispatched_count` and :attr:`pending_count`
        this accounts for every event ever scheduled
        (``scheduled == dispatched + cancelled + pending``) — the
        no-event-is-ever-lost invariant the chaos tests assert under every
        fault profile.
        """
        return self._cancelled

    @property
    def scheduled_count(self) -> int:
        """Total events ever scheduled."""
        return self._seq

    def install_perturbation(self, perturb: Optional[TimePerturbation]) -> None:
        """Install (or clear) the fault layer's schedule-time hook."""
        self._perturb = perturb

    def reset(self) -> None:
        """Return the scheduler to its just-constructed state.

        Pending events are discarded (their handles become inert: the
        ``on_cancel`` hook is detached first so a late ``cancel()`` cannot
        corrupt the counters of the next run), all counters rewind to zero
        and any fault perturbation is cleared so the next run starts from
        the same state a fresh ``EventScheduler(clock)`` would.

        Metric instruments deliberately survive: a registry aggregates over
        every trial of an experiment, across stack resets.
        """
        for _, _, event in self._heap:
            event.on_cancel = None
        self._heap.clear()
        self._seq = 0
        self._dispatched = 0
        self._pending = 0
        self._cancelled = 0
        self._perturb = None

    def schedule_at(self, time_ms: float, callback: Callback, name: str = "") -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time_ms < self._clock.now:
            raise SchedulingError(
                f"cannot schedule {name!r} at {time_ms} (now={self._clock.now})"
            )
        if self._perturb is not None:
            # Faults may only delay: clamp so a buggy hook can never
            # schedule into the past or reorder an event before its
            # requested time.
            time_ms = max(time_ms, self._perturb(float(time_ms), self._clock.now, name))
        event = Event(float(time_ms), self._seq, callback, name)
        event.on_cancel = self._note_cancelled
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._pending += 1
        if self._m_delay is not None:
            self._m_scheduled.inc()
            # Dispatch latency in *simulated* time: how far ahead of "now"
            # the event lands after fault perturbation. Deterministic, so
            # the metric itself is reproducible run to run.
            self._m_delay.observe(event.time - self._clock.now)
        return EventHandle(event)

    def schedule_after(self, delay_ms: float, callback: Callback, name: str = "") -> EventHandle:
        """Schedule ``callback`` after a relative delay from now."""
        if delay_ms < 0:
            raise SchedulingError(f"negative delay {delay_ms} for {name!r}")
        return self.schedule_at(self._clock.now + delay_ms, callback, name)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or ``None`` if drained."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Dispatch the next pending event.

        Returns:
            ``True`` if an event was dispatched, ``False`` if the queue was
            empty.
        """
        self._drop_cancelled_head()
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)[2]
        # The event has left the queue: detach the cancel hook so a late
        # handle.cancel() cannot drive the pending counter negative.
        event.on_cancel = None
        if self._m_depth is not None:
            self._m_dispatched.inc()
            self._m_depth.observe(self._pending)
        self._pending -= 1
        self._clock.advance_to(event.time)
        self._dispatched += 1
        event.callback()
        return True

    def run_until(self, time_ms: float) -> int:
        """Dispatch every event with timestamp ``<= time_ms``.

        The clock finishes exactly at ``time_ms`` even when the queue drains
        earlier, so post-run measurements line up with the requested horizon.

        Returns:
            Number of events dispatched.
        """
        dispatched = 0
        heap = self._heap
        while True:
            # Inline head inspection: peek_time() + step() would scan the
            # cancelled head twice per event on this hottest of loops.
            self._drop_cancelled_head()
            if not heap or heap[0][0] > time_ms:
                break
            self.step()
            dispatched += 1
        if time_ms > self._clock.now:
            self._clock.advance_to(time_ms)
        return dispatched

    def run_to_completion(self, max_events: int = 10_000_000) -> int:
        """Dispatch until no events remain.

        Args:
            max_events: safety bound against runaway self-rescheduling loops.
        """
        dispatched = 0
        while self.step():
            dispatched += 1
            if dispatched >= max_events:
                raise SchedulingError(
                    f"run_to_completion exceeded {max_events} events; "
                    "likely an unbounded rescheduling loop"
                )
        return dispatched

    def _note_cancelled(self) -> None:
        self._pending -= 1
        self._cancelled += 1
        if self._m_cancelled is not None:
            self._m_cancelled.inc()

    def _drop_cancelled_head(self) -> None:
        # Cancelled events already left the pending count via the hook;
        # this only reclaims their heap slots.
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
