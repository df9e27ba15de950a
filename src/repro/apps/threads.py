"""Handler threads: the Android main/worker thread messaging model.

The attacks depend on thread mechanics the paper calls out explicitly
(Section III-C): the worker thread is a timer that notifies the main thread
through the asynchronous handler mechanism; the main thread executes posted
tasks *serially*; and a blocking call (like ``addView``) occupies the main
thread, delaying everything posted behind it — which is why the attack must
call ``removeView`` before ``addView``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.event import Event
from ..sim.process import SimProcess
from ..sim.simulation import Simulation

#: Cost of dispatching one handler message (worker -> main), ms.
HANDLER_DISPATCH_MS = 0.2
#: Bookkeeping cost charged per executed task, ms.
TASK_OVERHEAD_MS = 0.05


class HandlerThread(SimProcess):
    """A serial task executor with handler-message semantics.

    Tasks run strictly one after another. A task that calls :meth:`block`
    (modelling a synchronous Binder call such as ``addView``) pushes every
    queued task behind it — the mechanism that makes the add-first variant
    of the overlay attack fail (paper Section III-C Step 2).
    """

    def __init__(self, simulation: Simulation, name: str) -> None:
        super().__init__(simulation, name)
        self._busy_until = 0.0
        self._tasks_run = 0
        self._queue: list = []  # (ready_time, task)
        self._pump_scheduled = False
        self._pump_name = f"{name}:pump"

    @property
    def tasks_run(self) -> int:
        return self._tasks_run

    @property
    def busy_until(self) -> float:
        return self._busy_until

    @property
    def queued(self) -> int:
        return len(self._queue)

    def post(
        self,
        task: Callable[[], None],
        delay_ms: float = HANDLER_DISPATCH_MS,
        name: str = "task",
    ) -> None:
        """Post a task; it runs serially after all queued work."""
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        self._queue.append((self.now + delay_ms, task))
        self._schedule_pump()

    def block(self, duration_ms: float) -> None:
        """Mark the thread busy for ``duration_ms`` from now."""
        if duration_ms < 0:
            raise ValueError(f"duration_ms must be >= 0, got {duration_ms}")
        self._busy_until = max(self._busy_until, self.now + duration_ms)

    # ------------------------------------------------------------------
    def _schedule_pump(self) -> None:
        if self._pump_scheduled or not self._queue:
            return
        ready_time, _ = self._queue[0]
        start = max(ready_time, self._busy_until, self.now)
        self._pump_scheduled = True
        self._scheduler.schedule_at(start, self._pump, name=self._pump_name)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if not self._queue:
            return
        ready_time, task = self._queue[0]
        start = max(ready_time, self._busy_until)
        if start > self.now:
            # A block landed (or the head is not ready): try again later.
            self._schedule_pump()
            return
        self._queue.pop(0)
        self._tasks_run += 1
        task()
        self._busy_until = max(self._busy_until, self.now) + TASK_OVERHEAD_MS
        self._schedule_pump()


class WorkerTimer(SimProcess):
    """The attack's worker thread: a periodic timer notifying a handler.

    "The worker thread acts as a timer notifying the main thread through the
    Android asynchronous handler mechanism" (paper Section III-C Step 1).
    """

    def __init__(
        self,
        simulation: Simulation,
        name: str,
        period_ms: float,
        on_tick: Callable[[int], None],
    ) -> None:
        super().__init__(simulation, name)
        if period_ms <= 0:
            raise ValueError(f"period must be positive, got {period_ms}")
        self._period = float(period_ms)
        self._on_tick = on_tick
        self._tick = 0
        self._running = False
        self._handle: Optional[Event] = None

    @property
    def period_ms(self) -> float:
        return self._period

    def set_period(self, period_ms: float) -> None:
        """Change the tick period; takes effect from the next tick.

        The adaptive overlay attack uses this to widen its attacking
        window after a suppression failure without restarting the timer.
        """
        if period_ms <= 0:
            raise ValueError(f"period must be positive, got {period_ms}")
        self._period = float(period_ms)

    @property
    def ticks(self) -> int:
        return self._tick

    @property
    def running(self) -> bool:
        return self._running

    def start(self, initial_delay_ms: float = 0.0) -> None:
        if self._running:
            return
        self._running = True
        self._handle = self.schedule(initial_delay_ms, self._fire, name="tick")

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel_if_pending()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._tick += 1
        self._on_tick(self._tick)
        if self._running:
            self._handle = self.schedule(self._period, self._fire, name="tick")
