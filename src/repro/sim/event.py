"""Scheduled events and their cancellation handles."""

from __future__ import annotations

from typing import Callable, Optional

from .errors import EventCancelledError

Callback = Callable[[], None]


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, seq)``: ties on time are broken by the
    order in which the events were scheduled, which keeps the kernel fully
    deterministic. (The scheduler's heap stores ``(time, seq, event)``
    tuples, so ordering never actually reaches ``__lt__`` — it is kept for
    direct comparisons in tests and debugging.)
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "on_cancel")

    def __init__(self, time: float, seq: int, callback: Callback, name: str) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        #: Invoked exactly once when the event is cancelled while still
        #: queued; the scheduler uses it to keep its pending-event counter
        #: exact without scanning the heap.
        self.on_cancel: Optional[Callback] = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name!r} @ {self.time:.3f}ms, {state})"


class EventHandle:
    """A caller-facing handle to a scheduled event.

    Handles support cancellation (used pervasively: the attacks cancel
    pending animation frames, defenses cancel delayed notifications) and
    expose scheduling metadata for tests and trace analysis.
    """

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._event.time

    @property
    def name(self) -> str:
        return self._event.name

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; cancelling twice is an error."""
        if self._event.cancelled:
            raise EventCancelledError(f"event {self._event.name!r} already cancelled")
        self._mark_cancelled()

    def cancel_if_pending(self) -> bool:
        """Cancel the event if it has not been cancelled yet.

        Returns:
            ``True`` if this call performed the cancellation.
        """
        if self._event.cancelled:
            return False
        self._mark_cancelled()
        return True

    def _mark_cancelled(self) -> None:
        self._event.cancelled = True
        notify = self._event.on_cancel
        if notify is not None:
            self._event.on_cancel = None
            notify()


def noop() -> None:
    """A callback that does nothing (useful as a timer sentinel)."""


OptionalHandle = Optional[EventHandle]
