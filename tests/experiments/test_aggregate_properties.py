"""Property tests for the campaign streaming-aggregation layer.

The campaign engine's bit-identity guarantee (same aggregates at any
shard count, job count, or kill/resume point) reduces to three algebraic
properties of :class:`MetricDigest`:

* **merged == batch** — folding trials shard-by-shard then merging gives
  the same statistics as folding everything into one digest: exact for
  count/sum/mean (Shewchuk exact partials), tolerance-pinned for
  variance and the bucket-estimated percentiles;
* **order independence** — any permutation of the shard merges (and any
  regrouping of values into shards) yields a bit-identical snapshot;
* **agreement with batch references** — mean matches ``math.fsum``
  exactly; variance matches ``statistics.pvariance`` to float tolerance;
  bucket-interpolated percentiles stay within the covering bucket of the
  true percentile.

Hypothesis generates the value sets and partitions; every property is
also pinned at a few hand-picked pathological cases (catastrophic
cancellation magnitudes) where naive running-moment merges visibly
drift.
"""

import json
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.aggregate import (
    CampaignAggregate,
    ExactSum,
    MetricDigest,
    default_trial_metrics,
)

# Finite, bounded floats: the campaign layer aggregates simulated
# latencies/rates, not denormals — but the magnitude span is chosen wide
# enough (1e-3 .. 1e9 plus sign) to punish non-exact summation.
finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)

value_lists = st.lists(finite_floats, min_size=1, max_size=200)


def fold(values):
    digest = MetricDigest()
    for value in values:
        digest.add(value)
    return digest


def chunks(values, cuts):
    """Split ``values`` at the (sorted, deduplicated) cut indices."""
    bounds = sorted({min(c, len(values)) for c in cuts}) + [len(values)]
    out, start = [], 0
    for stop in bounds:
        out.append(values[start:stop])
        start = stop
    return [c for c in out if c]


class TestExactSum:
    @given(value_lists)
    def test_matches_fsum_exactly(self, values):
        acc = ExactSum()
        for value in values:
            acc.add(value)
        assert acc.value == math.fsum(values)

    @given(value_lists, st.lists(st.integers(0, 200), max_size=5))
    def test_merge_is_partition_independent(self, values, cuts):
        merged = ExactSum()
        for chunk in chunks(values, cuts):
            part = ExactSum()
            for value in chunk:
                part.add(value)
            merged.merge(part)
        assert merged.value == math.fsum(values)

    def test_catastrophic_cancellation_stays_exact(self):
        # 1e16 + 1 + (-1e16) loses the 1 in naive float order.
        acc = ExactSum()
        for value in (1e16, 1.0, -1e16):
            acc.add(value)
        assert acc.value == 1.0


class TestMergedEqualsBatch:
    @given(value_lists, st.lists(st.integers(0, 200), max_size=7))
    def test_count_sum_mean_exact(self, values, cuts):
        batch = fold(values)
        merged = MetricDigest()
        for chunk in chunks(values, cuts):
            merged.merge(fold(chunk))
        assert merged.count == batch.count == len(values)
        # Bit-exact, not approximately equal: the campaign's shard-count
        # independence depends on it.
        assert merged._sum.value == batch._sum.value
        assert merged.mean == batch.mean
        assert merged._min == batch._min
        assert merged._max == batch._max
        assert merged._bucket_counts == batch._bucket_counts

    @given(value_lists, st.lists(st.integers(0, 200), max_size=7))
    def test_variance_and_percentiles_match_batch(self, values, cuts):
        batch = fold(values)
        merged = MetricDigest()
        for chunk in chunks(values, cuts):
            merged.merge(fold(chunk))
        # sum-of-squares is exact too, so these are bit-equal as well —
        # asserted with a tolerance-free comparison where exactness holds
        # and a pinned tolerance for the derived (rounded) statistics.
        assert merged.variance == batch.variance
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == batch.quantile(q)

    @given(value_lists)
    def test_snapshot_roundtrips_through_state_dict(self, values):
        digest = fold(values)
        clone = MetricDigest.from_dict(
            json.loads(json.dumps(digest.to_dict())))
        assert clone.snapshot("g", "m") == digest.snapshot("g", "m")


class TestBatchReferences:
    @given(value_lists)
    def test_mean_matches_fsum(self, values):
        digest = fold(values)
        assert digest.mean == math.fsum(values) / len(values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=200))
    def test_variance_matches_pvariance(self, values):
        digest = fold(values)
        reference = statistics.pvariance(values)
        scale = max(abs(v) for v in values) ** 2 or 1.0
        # Moment-based variance loses precision relative to the two-pass
        # reference when mean² ≈ mean-of-squares; pin the absolute error
        # against the squared magnitude of the data.
        assert digest.variance == pytest.approx(
            reference, abs=1e-7 * scale, rel=1e-6)

    @given(st.lists(st.floats(min_value=0.0, max_value=10_000.0,
                              allow_nan=False), min_size=1, max_size=200))
    def test_percentiles_within_covering_bucket(self, values):
        digest = fold(values)
        ordered = sorted(values)
        for q in (0.5, 0.95, 0.99):
            estimate = digest.quantile(q)
            true = ordered[min(len(ordered) - 1,
                               max(0, math.ceil(q * len(ordered)) - 1))]
            # The estimate interpolates inside the bucket covering the
            # true percentile, clamped to the observed range.
            bucket = next((b for b in digest._bounds if b >= true),
                          digest._max)
            lower = 0.0
            for b in digest._bounds:
                if b >= true:
                    break
                lower = b
            assert min(lower, digest._min) <= estimate \
                <= min(max(bucket, lower), digest._max)

    def test_empty_digest_snapshot_is_all_zero(self):
        row = MetricDigest().snapshot("g", "m")
        assert row.count == 0
        assert row.mean == row.variance == row.p50 == 0.0


class TestCampaignAggregateMerge:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]),
                      st.floats(min_value=0.0, max_value=1e4,
                                allow_nan=False)),
            min_size=1, max_size=120),
        st.lists(st.integers(0, 120), max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_shard_order_independent_bitwise(self, observations, cuts, rng):
        """Merging shard aggregates in any order gives identical rows."""
        batch = CampaignAggregate()
        for group, value in observations:
            batch.observe(group, {"metric": value})

        shards = []
        for chunk in chunks(observations, cuts):
            shard = CampaignAggregate()
            for group, value in chunk:
                shard.observe(group, {"metric": value})
            shards.append(shard)

        forward = CampaignAggregate()
        for shard in shards:
            forward.merge(shard)
        shuffled_order = list(shards)
        rng.shuffle(shuffled_order)
        shuffled = CampaignAggregate()
        for shard in shuffled_order:
            shuffled.merge(shard)

        # The Shewchuk partials *decomposition* is history-dependent
        # (different groupings may store the same exact sum as different
        # non-overlapping partial lists), so canonicalize each state
        # dict by collapsing partials to their correctly-rounded value;
        # after that, repr captures every bit of every float.
        def canonical(aggregate):
            state = aggregate.to_dict()
            for digests in state["groups"].values():
                for digest in digests.values():
                    for key in ("sum_partials", "sumsq_partials"):
                        digest[key] = math.fsum(digest[key])
            return repr(state)

        assert canonical(forward) == canonical(batch)
        assert canonical(shuffled) == canonical(batch)
        assert forward.rows() == batch.rows() == shuffled.rows()

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=50))
    def test_merge_does_not_alias_source_digests(self, values):
        source = CampaignAggregate()
        for value in values:
            source.observe("g", {"m": value})
        merged = CampaignAggregate()
        merged.merge(source)
        merged.observe("g", {"m": 1.0})
        assert source.rows()[0].count == len(values)
        assert merged.rows()[0].count == len(values) + 1


class TestDefaultTrialMetrics:
    def test_numbers_and_bools(self):
        assert default_trial_metrics(None, 3.5) == {"value": 3.5}
        assert default_trial_metrics(None, True) == {"value": 1.0}

    def test_enum_includes_numeric_properties(self):
        from repro.systemui.outcomes import NotificationOutcome

        metrics = default_trial_metrics(None, NotificationOutcome.LAMBDA1)
        assert metrics["value"] == 1.0
        assert metrics["suppressed"] == 1.0
        assert "label" not in metrics  # str property: not a metric

    def test_notification_outcome_yields_exactly_value_and_suppressed(self):
        from repro.experiments.aggregate import _property_getters
        from repro.systemui.outcomes import NotificationOutcome

        for outcome in NotificationOutcome:
            assert set(default_trial_metrics(None, outcome)) == {
                "value", "suppressed"}
        # The str-typed label getter is never called per trial.
        names = [name for name, _ in _property_getters(NotificationOutcome)]
        assert "label" not in names
        assert "suppressed" in names

    def test_dataclass_includes_fields_and_properties(self):
        from repro.experiments.scenarios import CaptureTrialResult

        result = CaptureTrialResult(
            total_taps=4, committed_to_overlay=2, down_seen_by_overlay=3,
            cancelled=1)
        metrics = default_trial_metrics(None, result)
        assert metrics["capture_rate"] == pytest.approx(0.5)
        assert metrics["down_capture_rate"] == pytest.approx(0.75)
        assert metrics["total_taps"] == 4.0

    def test_mapping_passes_numerics_through(self):
        assert default_trial_metrics(None, {"a": 1, "b": "x", "c": 2.5}) \
            == {"a": 1.0, "c": 2.5}

    @settings(max_examples=25)
    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           finite_floats, max_size=5))
    def test_mapping_roundtrip(self, mapping):
        assert default_trial_metrics(None, mapping) == {
            str(k): float(v) for k, v in mapping.items()}
