"""Seeded property-style tests for the event scheduler.

Each test generates a random event set from an explicit seed (so failures
reproduce exactly) and asserts the scheduler's structural invariants:

* dispatch order is exactly ``(time, insertion order)``;
* a cancelled event is never dispatched, an uncancelled one always is;
* ``pending_count`` (now an O(1) maintained counter) always equals the
  brute-force count of live events in the heap, across arbitrary
  interleavings of schedule / cancel / step;
* every event ever scheduled is accounted for
  (``scheduled == dispatched + cancelled + pending``) through a seeded
  cancel/reschedule storm, and handles of events that already left the
  queue — dispatched, or discarded by ``reset()`` — are inert.
"""

import random

import pytest

from repro.sim.clock import Clock
from repro.sim.errors import EventCancelledError
from repro.sim.scheduler import EventScheduler

SEEDS = [7, 1918, 20220701]


def brute_force_pending(scheduler: EventScheduler) -> int:
    """The O(n) definition pending_count must stay equivalent to."""
    return sum(1 for _, _, event in scheduler._heap if not event.cancelled)


@pytest.mark.parametrize("seed", SEEDS)
class TestDispatchOrder:
    def test_pop_order_is_time_then_insertion(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())
        expected = []
        fired = []
        for index in range(200):
            # Coarse times force plenty of ties to exercise the seq
            # tie-break.
            time_ms = float(rng.randint(0, 20))
            scheduler.schedule_at(
                time_ms, lambda i=index: fired.append(i), name=f"e{index}"
            )
            expected.append((time_ms, index))
        scheduler.run_to_completion()
        expected.sort()
        assert fired == [index for _, index in expected]

    def test_clock_never_runs_backwards(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())
        times = []
        for index in range(100):
            scheduler.schedule_at(
                float(rng.randint(0, 50)),
                lambda: times.append(scheduler.now),
            )
        scheduler.run_to_completion()
        assert times == sorted(times)


@pytest.mark.parametrize("seed", SEEDS)
class TestCancellation:
    def test_cancelled_never_dispatches_others_always_do(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())
        fired = set()
        handles = {}
        for index in range(150):
            handles[index] = scheduler.schedule_at(
                float(rng.randint(0, 30)), lambda i=index: fired.add(i)
            )
        cancelled = set(rng.sample(sorted(handles), 60))
        for index in cancelled:
            handles[index].cancel()
        scheduler.run_to_completion()
        assert fired == set(handles) - cancelled

    def test_dispatched_count_matches_survivors(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())
        handles = [
            scheduler.schedule_at(float(rng.randint(0, 10)), lambda: None)
            for _ in range(80)
        ]
        survivors = 0
        for handle in handles:
            if rng.random() < 0.5:
                handle.cancel()
            else:
                survivors += 1
        scheduler.run_to_completion()
        assert scheduler.dispatched_count == survivors
        assert scheduler.pending_count == 0


@pytest.mark.parametrize("seed", SEEDS)
class TestPendingCountInvariant:
    def test_counter_tracks_brute_force_under_random_ops(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())
        live_handles = []
        for _ in range(500):
            op = rng.random()
            if op < 0.5:
                delay = float(rng.randint(0, 25))
                live_handles.append(
                    scheduler.schedule_after(delay, lambda: None)
                )
            elif op < 0.75 and live_handles:
                handle = live_handles.pop(rng.randrange(len(live_handles)))
                handle.cancel_if_pending()
            else:
                scheduler.step()
            assert scheduler.pending_count == brute_force_pending(scheduler)
            assert scheduler.pending_count >= 0
        scheduler.run_to_completion()
        assert scheduler.pending_count == 0
        assert brute_force_pending(scheduler) == 0

    def test_cancel_after_dispatch_does_not_corrupt_counter(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())
        handles = [
            scheduler.schedule_after(float(i), lambda: None)
            for i in range(10)
        ]
        scheduler.run_to_completion()
        assert scheduler.pending_count == 0
        # Cancelling handles whose events already fired must be a no-op
        # for the counter (the scheduler detaches the hook on dispatch).
        for handle in rng.sample(handles, 5):
            handle.cancel_if_pending()
        assert scheduler.pending_count == 0
        scheduler.schedule_after(1.0, lambda: None)
        assert scheduler.pending_count == 1

    def test_callbacks_scheduling_more_work_keep_invariant(self, seed):
        rng = random.Random(seed)
        scheduler = EventScheduler(Clock())

        def spawn(depth: int) -> None:
            assert scheduler.pending_count == brute_force_pending(scheduler)
            if depth > 0:
                for _ in range(rng.randint(0, 2)):
                    scheduler.schedule_after(
                        float(rng.randint(1, 5)), lambda d=depth - 1: spawn(d)
                    )

        for _ in range(10):
            scheduler.schedule_after(float(rng.randint(0, 3)), lambda: spawn(4))
        scheduler.run_to_completion()
        assert scheduler.pending_count == 0


def _storm(scheduler: EventScheduler, seed: int):
    """A seeded cancel/reschedule storm; returns the four counters.

    Each dispatched callback may reschedule itself; between steps, random
    handles (pending or already dispatched) are cancelled — twice, so a
    repeat cancel is exercised too.
    """
    rng = random.Random(seed)
    handles = []

    def make_callback(label: str, depth: int):
        def fire():
            if depth > 0 and rng.random() < 0.4:
                handles.append(scheduler.schedule_after(
                    float(rng.randint(0, 12)),
                    make_callback(f"{label}.r", depth - 1),
                    name=f"{label}.r",
                ))
        return fire

    for index in range(120):
        handles.append(scheduler.schedule_after(
            float(rng.randint(0, 60)),
            make_callback(f"e{index}", depth=2),
            name=f"e{index}",
        ))
        if rng.random() < 0.35:
            victim = handles[rng.randrange(len(handles))]
            victim.cancel_if_pending()
            # A second cancel must always report "already cancelled".
            assert victim.cancel_if_pending() is False
        if rng.random() < 0.30:
            scheduler.step()
    scheduler.run_to_completion()
    return (scheduler.scheduled_count, scheduler.dispatched_count,
            scheduler.cancelled_count, scheduler.pending_count)


@pytest.mark.parametrize("seed", [11, 4242, 20260808])
def test_accounting_invariant_holds_under_storm(seed):
    scheduled, dispatched, cancelled, pending = _storm(
        EventScheduler(Clock()), seed)
    assert scheduled == dispatched + cancelled + pending
    assert pending == 0  # run_to_completion drained the queue


def test_cancelling_a_dispatched_handle_leaves_the_counters_alone():
    scheduler = EventScheduler(Clock())
    first = scheduler.schedule_at(1.0, lambda: None, name="first")
    scheduler.run_to_completion()
    second = scheduler.schedule_at(2.0, lambda: None, name="second")
    # Cancelling an event that already fired is a silent no-op for the
    # scheduler: the handle flips, nothing else moves.
    assert first.cancel_if_pending() is True
    assert first.time == 1.0 and first.name == "first"
    assert not second.cancelled
    assert scheduler.pending_count == 1
    assert scheduler.cancelled_count == 0
    with pytest.raises(EventCancelledError):
        first.cancel()
    scheduler.run_to_completion()
    assert scheduler.dispatched_count == 2


def test_reset_inerts_pending_handles():
    scheduler = EventScheduler(Clock())
    pending = scheduler.schedule_at(5.0, lambda: None, name="doomed")
    scheduler.reset()
    assert scheduler.pending_count == 0
    # A late cancel on a pre-reset handle must not corrupt the new run.
    assert pending.cancel_if_pending() is True
    assert scheduler.pending_count == 0
    assert scheduler.cancelled_count == 0
    scheduler.schedule_at(1.0, lambda: None)
    assert scheduler.pending_count == 1
