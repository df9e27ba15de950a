"""Unit tests for the metrics instruments, registry and sample algebra."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_metrics,
    diff_samples,
    merge_samples,
    use_metrics,
)
from repro.obs.metrics import FOLD_CAP, DerivedCounters
from repro.sim import Simulation


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("hits_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_sample_shape(self):
        c = Counter("hits_total", (("kind", "tap"),))
        c.inc(4)
        s = c.sample()
        assert (s.name, s.kind, s.value) == ("hits_total", "counter", 4.0)
        assert s.label_dict() == {"kind": "tap"}
        assert s.buckets is None


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5
        assert g.sample().kind == "gauge"


class TestHistogram:
    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(5.0, 1.0))

    def test_summary_statistics(self):
        h = Histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 20.0, 200.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(222.5)
        assert h.mean == pytest.approx(55.625)
        s = h.sample()
        assert s.min == 0.5 and s.max == 200.0
        # One observation per bucket, including the +inf overflow bucket.
        assert [c for _, c in s.buckets] == [1, 1, 1, 1]
        assert s.buckets[-1][0] == float("inf")

    def test_empty_histogram_sample(self):
        s = Histogram("lat_ms", buckets=(1.0,)).sample()
        assert s.count == 0 and s.min is None and s.max is None
        assert s.p50 is None

    def test_quantiles_bounded_by_observed_range(self):
        h = Histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
        for v in (2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        for q in (0.0, 0.5, 0.95, 1.0):
            estimate = h.quantile(q)
            assert 2.0 <= estimate <= 5.0

    def test_quantile_validates_range(self):
        h = Histogram("lat_ms", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_exact_median_single_bucket(self):
        h = Histogram("lat_ms", buckets=(100.0,))
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        assert 10.0 <= h.quantile(0.5) <= 30.0


def _state(hist):
    s = hist.sample()
    return (s.count, s.sum.hex() if s.count else None, s.min, s.max,
            type(s.min), type(s.max), s.buckets)


class TestObserveMany:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(prior=st.lists(st.floats(-1e6, 1e6), max_size=5),
           values=st.lists(st.one_of(st.floats(-1e6, 1e6),
                                     st.integers(-1000, 1000)),
                           max_size=60))
    def test_equals_sequential_observe(self, prior, values):
        one, many = Histogram("h"), Histogram("h")
        for value in prior:
            one.observe(value)
            many.observe(value)
        for value in values:
            one.observe(value)
        many.observe_many(values)
        # Count, bitwise sum, min and max (with their types: queue depths
        # are ints) and every bucket.
        assert _state(many) == _state(one)

    def test_min_and_max_are_the_first_of_equal_values(self):
        hist = Histogram("h")
        hist.observe_many([1, 1.0, 3.0, 3, 2])
        sample = hist.sample()
        assert type(sample.min) is int and type(sample.max) is float

    def test_fold_observes_pending_in_order_and_empties_it(self):
        one, buffered = Histogram("h"), Histogram("h")
        values = [0.1, 1e16, -1e16, 3.0, 7]
        for value in values:
            one.observe(value)
        pending = buffered.pending
        pending.extend(values)
        buffered.fold()
        assert buffered.pending is pending and pending == []
        assert _state(buffered) == _state(one)


class Tally:
    """A component keeping its own counts, as the kernel does."""

    def __init__(self, registry):
        self.count = 0
        self.counters = DerivedCounters(registry, ("c",), self.counts)

    def counts(self):
        return (self.count,)


class TestFolding:
    def test_samples_fold_counters_and_buffers(self):
        reg = MetricsRegistry()
        tally = Tally(reg)
        tally.count = 3
        tally.counters.track()
        reg.buffer("h").pending.extend([1.0, 2.0])
        by_key = {s.key: s for s in reg.samples()}
        assert by_key[("c", ())].value == 3.0
        assert by_key[("h", ())].count == 2
        assert reg.buffer("h").pending == []
        assert not tally.counters.tracked

    def test_counters_add_increases_and_survive_a_rewind(self):
        reg = MetricsRegistry()
        tally = Tally(reg)
        tally.count = 2
        tally.counters.track()
        reg.fold()
        tally.count = 5
        tally.counters.rewind()
        tally.count = 1
        tally.counters.track()
        assert reg.counter("c").value == 5.0
        reg.fold()
        assert reg.counter("c").value == 6.0

    def test_fold_drops_what_it_folded(self):
        reg = MetricsRegistry()
        tally = Tally(reg)
        ref = weakref.ref(tally)
        tally.counters.track()
        reg.fold()
        del tally
        gc.collect()
        assert ref() is None

    def test_ingest_folds_pending_first(self):
        # Folding before merging keeps the sum in arrival order.
        reg, one = MetricsRegistry(), MetricsRegistry()
        foreign = MetricsRegistry()
        foreign.histogram("h").observe(1e16)
        reg.buffer("h").pending.append(1.0)
        one.histogram("h").observe(1.0)
        reg.ingest(foreign.samples())
        one.ingest(foreign.samples())
        assert reg.samples() == one.samples()

    def test_kernel_counts_fold_once_each(self):
        reg = MetricsRegistry()
        sim = Simulation(seed=1, metrics=reg)
        for delay in (1.0, 2.0, 3.0):
            sim.schedule_after(delay, lambda: None)
        sim.schedule_after(4.0, lambda: None).cancel()
        sim.run_until(2.0)
        first = {s.name: s for s in reg.samples()}
        sim.run_until(10.0)
        sim.schedule_after(1.0, lambda: None)
        second = {s.name: s for s in reg.samples()}
        assert first["sim_scheduler_events_dispatched_total"].value == 2
        assert second["sim_scheduler_events_scheduled_total"].value == 5
        assert second["sim_scheduler_events_dispatched_total"].value == 3
        assert second["sim_scheduler_events_cancelled_total"].value == 1
        assert second["sim_scheduler_queue_depth"].count == 3
        # A reset folds the counts before it rewinds them.
        sim.reset(seed=2)
        third = {s.name: s for s in reg.samples()}
        assert third["sim_scheduler_events_scheduled_total"].value == 5

    def test_buffers_fold_at_the_cap(self):
        reg = MetricsRegistry()
        sim = Simulation(seed=1, metrics=reg)
        for _ in range(FOLD_CAP + 5):
            sim.schedule_after(1.0, lambda: None)
        delays = reg.buffer("sim_scheduler_event_delay_ms")
        assert 0 < len(delays.pending) < FOLD_CAP
        assert delays.count + len(delays.pending) == FOLD_CAP + 5


class TestRegistry:
    def test_create_or_return_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", {"k": "v"})
        b = reg.counter("hits", {"k": "v"})
        assert a is b
        assert len(reg) == 1

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", {"a": "1", "b": "2"})
        b = reg.gauge("g", {"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_samples_sorted_by_key(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        reg.gauge("a", {"l": "1"})
        keys = [s.key for s in reg.samples()]
        assert keys == sorted(keys)

    def test_ingest_merges_counters_gauges_histograms(self):
        src = MetricsRegistry()
        src.counter("c").inc(2)
        src.gauge("g").set(7)
        src.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        dst = MetricsRegistry()
        dst.counter("c").inc(1)
        dst.ingest(src.samples())
        dst.ingest(src.samples())
        by_key = {s.key: s for s in dst.samples()}
        assert by_key[("c", ())].value == 5.0   # 1 + 2 + 2
        assert by_key[("g", ())].value == 7.0   # overwrite
        h = by_key[("h", ())]
        assert h.count == 2 and h.sum == 10.0

    def test_ingest_unknown_kind_raises(self):
        reg = MetricsRegistry()
        bad = reg.counter("c").sample()
        forged = type(bad)(name="c", kind="summary")
        with pytest.raises(ValueError):
            reg.ingest([forged])


class TestSampleAlgebra:
    def test_merge_samples_sums_sets(self):
        regs = []
        for _ in range(3):
            reg = MetricsRegistry()
            reg.counter("c").inc(2)
            regs.append(reg)
        merged = merge_samples(reg.samples() for reg in regs)
        assert merged[0].value == 6.0

    def test_diff_counters_subtract(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(3)
        before = reg.samples()
        c.inc(4)
        delta = diff_samples(before, reg.samples())
        assert delta[0].value == 4.0

    def test_diff_gauge_reports_after(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        before = reg.samples()
        g.set(2)
        delta = diff_samples(before, reg.samples())
        assert delta[0].value == 2.0

    def test_diff_histogram_buckets_subtract(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)
        before = reg.samples()
        h.observe(5.0)
        h.observe(5.0)
        (delta,) = diff_samples(before, reg.samples())
        assert delta.count == 2
        assert [c for _, c in delta.buckets] == [0, 2, 0]
        assert delta.sum == pytest.approx(10.0)


class TestAmbientContext:
    def test_default_is_disabled(self):
        assert current_metrics() is None

    def test_use_metrics_scopes_and_restores(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            assert current_metrics() is reg
            with use_metrics(None):
                assert current_metrics() is None
            assert current_metrics() is reg
        assert current_metrics() is None

    def test_restores_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_metrics(reg):
                raise RuntimeError("boom")
        assert current_metrics() is None
