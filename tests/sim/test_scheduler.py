"""Tests for the event scheduler: ordering, cancellation, horizons."""

import pytest

from repro.sim.clock import Clock
from repro.sim.errors import SchedulingError
from repro.sim.scheduler import EventScheduler
from repro.sim.simulation import Simulation


@pytest.fixture
def scheduler():
    return EventScheduler(Clock())


class TestScheduling:
    def test_schedule_after_fires_at_right_time(self, scheduler):
        fired = []
        scheduler.schedule_after(5.0, lambda: fired.append(scheduler.now))
        scheduler.run_until(10.0)
        assert fired == [5.0]

    def test_schedule_at_absolute_time(self, scheduler):
        fired = []
        scheduler.schedule_at(7.5, lambda: fired.append(scheduler.now))
        scheduler.run_until(7.5)
        assert fired == [7.5]

    def test_schedule_in_past_raises(self, scheduler):
        scheduler.schedule_after(5.0, lambda: None)
        scheduler.run_until(5.0)
        with pytest.raises(SchedulingError):
            scheduler.schedule_at(4.0, lambda: None)

    def test_negative_delay_raises(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.schedule_after(-1.0, lambda: None)

    def test_events_fire_in_time_order(self, scheduler):
        order = []
        scheduler.schedule_after(30.0, lambda: order.append("c"))
        scheduler.schedule_after(10.0, lambda: order.append("a"))
        scheduler.schedule_after(20.0, lambda: order.append("b"))
        scheduler.run_until(100.0)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, scheduler):
        order = []
        for name in "abcde":
            scheduler.schedule_after(5.0, lambda n=name: order.append(n))
        scheduler.run_until(5.0)
        assert order == list("abcde")

    def test_callback_can_schedule_more_events(self, scheduler):
        fired = []

        def first():
            fired.append("first")
            scheduler.schedule_after(1.0, lambda: fired.append("second"))

        scheduler.schedule_after(1.0, first)
        scheduler.run_until(10.0)
        assert fired == ["first", "second"]

    def test_long_self_rescheduling_chain_dispatches_every_event(self):
        sim = Simulation(seed=1, trace_enabled=False)
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 50_000:
                sim.schedule_after(1.0, tick)

        sim.schedule_after(1.0, tick)
        sim.run_to_completion()
        assert count == sim.scheduler.dispatched_count == 50_000


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, scheduler):
        fired = []
        handle = scheduler.schedule_after(5.0, lambda: fired.append(1))
        handle.cancel()
        scheduler.run_until(10.0)
        assert fired == []

    def test_cancel_twice_raises(self, scheduler):
        handle = scheduler.schedule_after(5.0, lambda: None)
        handle.cancel()
        with pytest.raises(Exception):
            handle.cancel()

    def test_cancel_if_pending_is_idempotent(self, scheduler):
        handle = scheduler.schedule_after(5.0, lambda: None)
        assert handle.cancel_if_pending() is True
        assert handle.cancel_if_pending() is False

    def test_pending_count_excludes_cancelled(self, scheduler):
        handles = [scheduler.schedule_after(5.0, lambda: None) for _ in range(4)]
        handles[0].cancel()
        handles[2].cancel()
        assert scheduler.pending_count == 2


class TestRunSemantics:
    def test_run_until_advances_clock_even_without_events(self, scheduler):
        scheduler.run_until(50.0)
        assert scheduler.now == 50.0

    def test_run_until_does_not_fire_later_events(self, scheduler):
        fired = []
        scheduler.schedule_after(100.0, lambda: fired.append(1))
        scheduler.run_until(99.0)
        assert fired == []
        scheduler.run_until(100.0)
        assert fired == [1]

    def test_run_until_returns_dispatch_count(self, scheduler):
        for i in range(5):
            scheduler.schedule_after(float(i + 1), lambda: None)
        assert scheduler.run_until(3.0) == 3

    def test_run_to_completion_drains_queue(self, scheduler):
        fired = []
        for i in range(10):
            scheduler.schedule_after(float(i), lambda i=i: fired.append(i))
        scheduler.run_to_completion()
        assert fired == list(range(10))

    def test_run_to_completion_guards_against_infinite_loops(self, scheduler):
        def reschedule():
            scheduler.schedule_after(1.0, reschedule)

        scheduler.schedule_after(1.0, reschedule)
        with pytest.raises(SchedulingError):
            scheduler.run_to_completion(max_events=100)

    def test_step_returns_false_when_empty(self, scheduler):
        assert scheduler.step() is False

    def test_peek_time_skips_cancelled(self, scheduler):
        handle = scheduler.schedule_after(1.0, lambda: None)
        scheduler.schedule_after(2.0, lambda: None)
        handle.cancel()
        assert scheduler.peek_time() == 2.0

    def test_dispatched_count_accumulates(self, scheduler):
        for i in range(3):
            scheduler.schedule_after(float(i + 1), lambda: None)
        scheduler.run_until(10.0)
        assert scheduler.dispatched_count == 3
