"""Deterministic event scheduler built on a binary heap."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..obs.metrics import FOLD_CAP, DerivedCounters
from .clock import Clock
from .errors import SchedulingError
from .event import Callback, Event

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
        # Bound once: every queued event carries this as its cancel hook.
        self._on_cancel = self._note_cancelled
        # Metrics only *observe* (no clock, RNG or heap interaction), so
        # enabling them cannot perturb a run. The hot paths append to two
        # registry buffers behind one `is not None` guard; the three
        # counters are read from the counts above when the registry folds.
        self._counted: Optional[DerivedCounters] = None
        if metrics is not None:
            self._counted = DerivedCounters(metrics, (
                "sim_scheduler_events_scheduled_total",
                "sim_scheduler_events_dispatched_total",
                "sim_scheduler_events_cancelled_total",
            ), self._counts)
            self._m_delay = metrics.buffer("sim_scheduler_event_delay_ms")
            self._m_depth = metrics.buffer("sim_scheduler_queue_depth")
            self._delays: Optional[List[float]] = self._m_delay.pending
            self._depths: Optional[List[float]] = self._m_depth.pending
        else:
            self._delays = None
            self._depths = None

    @property
    def now(self) -> float:
        return self._clock.now

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still in the queue.

        O(1): the counter is maintained on schedule/dispatch, and each
        event's ``on_cancel`` hook decrements it the moment the event
        is cancelled — no heap scan.
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

        Pending events are discarded (they become inert: the
        ``on_cancel`` hook is detached first so a late ``cancel()`` cannot
        corrupt the counters of the next run), all counters rewind to zero
        and any fault perturbation is cleared so the next run starts from
        the same state a fresh ``EventScheduler(clock)`` would.

        Metric instruments deliberately survive: a registry aggregates over
        every trial of an experiment, across stack resets. The counts are
        folded into them before they rewind.
        """
        if self._counted is not None:
            self._counted.rewind()
        for _, _, event in self._heap:
            event.on_cancel = None
        self._heap.clear()
        self._seq = 0
        self._dispatched = 0
        self._pending = 0
        self._cancelled = 0
        self._perturb = None

    def schedule_at(self, time_ms: float, callback: Callback, name: str = "") -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        now = self._clock.now
        if time_ms < now:
            raise SchedulingError(
                f"cannot schedule {name!r} at {time_ms} (now={now})"
            )
        return self._push(time_ms, now, callback, name)

    def schedule_after(self, delay_ms: float, callback: Callback, name: str = "") -> Event:
        """Schedule ``callback`` after a relative delay from now."""
        if delay_ms < 0:
            raise SchedulingError(f"negative delay {delay_ms} for {name!r}")
        now = self._clock.now
        return self._push(now + delay_ms, now, callback, name)

    def _push(self, time_ms: float, now: float, callback: Callback,
              name: str) -> Event:
        """Queue an event at ``time_ms`` (>= ``now``, the current time)."""
        time_ms = float(time_ms)
        if self._perturb is not None:
            # Faults may only delay: clamp so a buggy hook can never
            # schedule into the past or reorder an event before its
            # requested time.
            time_ms = float(max(time_ms, self._perturb(time_ms, now, name)))
        seq = self._seq
        event = Event(time_ms, seq, callback, name, self._on_cancel)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time_ms, seq, event))
        self._pending += 1
        delays = self._delays
        if delays is not None:
            counted = self._counted
            if not counted.tracked:
                counted.track()
            # Dispatch latency in *simulated* time: how far ahead of "now"
            # the event lands after fault perturbation. Deterministic, so
            # the metric itself is reproducible run to run.
            delays.append(time_ms - now)
            if not seq % FOLD_CAP:
                # Every FOLD_CAP events: bounds both buffers, as no more
                # events dispatch than were scheduled.
                self._m_delay.fold()
                self._m_depth.fold()
        return event

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
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:  # skip heap slots of cancelled events
                break
        else:
            return False
        # The event has left the queue: detach the cancel hook so a late
        # cancel() cannot drive the pending counter negative.
        event.on_cancel = None
        depths = self._depths
        if depths is not None:
            counted = self._counted
            if not counted.tracked:
                counted.track()
            depths.append(self._pending)
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
        heappop = heapq.heappop
        step = self.step
        while heap:
            head = heap[0]
            if head[2].cancelled:
                # Reclaim the slot here, so step() pops a live head on its
                # first try.
                heappop(heap)
                continue
            if head[0] > time_ms:
                break
            step()
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
        counted = self._counted
        if counted is not None and not counted.tracked:
            counted.track()

    def _counts(self) -> Tuple[int, int, int]:
        return (self._seq, self._dispatched, self._cancelled)

    def _drop_cancelled_head(self) -> None:
        # Cancelled events already left the pending count via the hook;
        # this only reclaims their heap slots.
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
