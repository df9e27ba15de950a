"""Low-overhead metrics: counters, gauges and streaming histograms.

The observability plane of the simulator. Three design rules keep it safe
to wire into kernel hot paths:

* **Observation only** — instruments never touch the scheduler, the clock
  or any random stream, so enabling metrics cannot perturb a simulation
  (the determinism suite pins the QUICK golden report byte-identical with
  metrics on and off).
* **Disabled means absent** — components hold ``Optional`` instrument
  references resolved once at construction. With no registry installed the
  hot-path cost is a single ``is not None`` check; there is no null-object
  indirection to pay for. Enabled, the event kernel pays no instrument
  call per event either: the scheduler and the Binder router read their
  counters from the counts they already keep (:class:`DerivedCounters`),
  and append histogram values to a :meth:`MetricsRegistry.buffer`. The
  registry folds both in :meth:`MetricsRegistry.fold`, at the end of
  every trial the executor runs and before every snapshot; the two
  components also fold their buffers every :data:`FOLD_CAP` events.
  Buffered values fold in append order, so every series equals what one
  ``observe`` per event would have produced.
* **Fixed memory** — histograms are streaming: fixed bucket counts plus
  running count/sum/min/max. Quantiles (p50/p95/p99) are estimated from
  the buckets at snapshot time, never from retained samples.

Snapshots are :class:`MetricSample` rows — frozen, serializable, and the
unit both export formats (JSONL and Prometheus text,
:mod:`repro.obs.export`) consume.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..serialization import SerializableMixin

Labels = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (ms-flavoured, geometric-ish).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Quantiles reported in every histogram snapshot.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Components that buffer fold their buffers every this many events,
#: which bounds the memory a long trial can pin between folds.
FOLD_CAP = 1024


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricSample(SerializableMixin):
    """One exported metric value: the snapshot unit of the registry.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``. Counters and
    gauges carry ``value``; histograms carry ``count``/``sum``/``min``/
    ``max``, per-bucket (non-cumulative) counts and bucket-estimated
    quantiles. Unused fields stay ``None`` so one row type serves all
    three kinds uniformly.
    """

    name: str
    kind: str
    labels: Labels = ()
    value: Optional[float] = None
    count: Optional[int] = None
    sum: Optional[float] = None
    min: Optional[float] = None
    max: Optional[float] = None
    #: ``((upper_bound, count), ...)``; the last bound is ``inf``.
    buckets: Optional[Tuple[Tuple[float, int], ...]] = None
    p50: Optional[float] = None
    p95: Optional[float] = None
    p99: Optional[float] = None

    @property
    def key(self) -> Tuple[str, Labels]:
        return (self.name, self.labels)

    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> MetricSample:
        return MetricSample(name=self.name, kind="counter",
                            labels=self.labels, value=self._value)


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def sample(self) -> MetricSample:
        return MetricSample(name=self.name, kind="gauge",
                            labels=self.labels, value=self._value)


class Histogram:
    """Streaming histogram: fixed buckets + running summary statistics.

    ``observe`` is the hot-path call: one bisect over the bucket bounds
    plus four scalar updates. Quantiles are derived lazily at snapshot
    time by linear interpolation inside the covering bucket, clamped to
    the observed ``[min, max]`` range.
    """

    __slots__ = ("name", "labels", "_bounds", "_counts",
                 "_count", "_sum", "_min", "_max", "pending")

    def __init__(self, name: str, labels: Labels = (),
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError(f"bucket bounds must be sorted, got {buckets!r}")
        self.name = name
        self.labels = labels
        self._bounds: Tuple[float, ...] = tuple(float(b) for b in buckets)
        # one overflow bucket past the last bound (upper bound +inf)
        self._counts: List[int] = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        #: Values appended through :meth:`MetricsRegistry.buffer`, not yet
        #: observed; :meth:`fold` observes them in append order.
        self.pending: List[float] = []

    def observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._counts[bisect_left(self._bounds, value)] += 1

    def observe_many(self, values: List[float]) -> None:
        """``observe`` each value in order, in one call.

        The sum adds the values one by one in order, so it is bitwise
        equal to the sequential calls (``sum`` would not be: it may
        compensate). The rest reads the values sorted, which needs them
        to be numbers, not NaN. The sort is stable, so min and max are
        the first of equal values, as ``observe`` keeps them, and each
        bucket counts the values up to its bound.
        """
        if not values:
            return
        self._sum = reduce(add, values, self._sum)
        self._count += len(values)
        ordered = sorted(values)
        low = ordered[0]
        if low < self._min:
            self._min = low
        high = ordered[bisect_left(ordered, ordered[-1])]
        if high > self._max:
            self._max = high
        counts = self._counts
        below = 0
        for i, bound in enumerate(self._bounds):
            upto = bisect_right(ordered, bound)
            counts[i] += upto - below
            below = upto
        counts[-1] += len(ordered) - below

    def fold(self) -> None:
        """Observe the pending values and empty the buffer in place."""
        pending = self.pending
        if pending:
            self.observe_many(pending)
            pending.clear()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate, or ``None`` when empty."""
        if self._count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self._bounds[i - 1] if i > 0 else min(self._min, self._bounds[0])
                upper = self._bounds[i] if i < len(self._bounds) else self._max
                lower = max(lower, self._min)
                upper = min(upper, self._max)
                if upper <= lower:
                    return lower
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self._max

    def sample(self) -> MetricSample:
        bounds = self._bounds + (float("inf"),)
        quantiles = [self.quantile(q) for q in SUMMARY_QUANTILES]
        return MetricSample(
            name=self.name,
            kind="histogram",
            labels=self.labels,
            count=self._count,
            sum=self._sum,
            min=self._min if self._count else None,
            max=self._max if self._count else None,
            buckets=tuple(zip(bounds, tuple(self._counts))),
            p50=quantiles[0],
            p95=quantiles[1],
            p99=quantiles[2],
        )


class DerivedCounters:
    """Counters read from counts a component keeps anyway.

    ``counts()`` returns the component's running counts, one per counter
    name. The component calls :meth:`track` when it first counts after a
    fold (its hot path tests :attr:`tracked`), and :meth:`rewind` just
    before its counts rewind to zero. :meth:`MetricsRegistry.fold` adds
    each count's increase since the last fold to its counter; the counts
    are integers, so the totals equal one ``inc()`` per event.
    """

    __slots__ = ("tracked", "_registry", "_counters", "_counts", "_folded")

    def __init__(self, registry: "MetricsRegistry", names: Tuple[str, ...],
                 counts: Callable[[], Tuple[int, ...]]) -> None:
        self.tracked = False
        self._registry = registry
        self._counters = tuple(registry.counter(name) for name in names)
        self._counts = counts
        self._folded = (0,) * len(names)

    def track(self) -> None:
        """Have the registry fold these counters at its next fold."""
        self.tracked = True
        self._registry.track(self)

    def fold(self) -> None:
        """Add each count's increase since the last fold to its counter."""
        counts = self._counts()
        for counter, now, before in zip(self._counters, counts, self._folded):
            counter.inc(now - before)
        self._folded = counts

    def rewind(self) -> None:
        """Fold, then count from zero again."""
        self.fold()
        self._folded = (0,) * len(self._counters)


class MetricsRegistry:
    """Factory and snapshot surface for a family of instruments.

    ``counter``/``gauge``/``histogram`` create-or-return the instrument
    registered under ``(name, labels)`` — components resolve instruments
    once at construction and keep direct references, so the registry's
    dict lookup never sits on a hot path.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], object] = {}
        self._buffered: List[Histogram] = []
        self._tracked: List[DerivedCounters] = []

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]],
             **kwargs):
        key = (name, _freeze_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    def buffer(self, name: str) -> Histogram:
        """The unlabeled histogram ``name``, fed through its ``pending`` list.

        Every feeder of a buffered histogram appends to the same list, so
        :meth:`fold` observes values in the order they arrived, whichever
        component appended them. Do not also ``observe`` it directly.
        """
        hist = self.histogram(name)
        if hist not in self._buffered:
            self._buffered.append(hist)
        return hist

    def track(self, counters: DerivedCounters) -> None:
        """Hold ``counters`` until the next :meth:`fold`.

        The registry drops them at the fold, so it never keeps a finished
        stack alive; they track themselves again when they next count.
        """
        self._tracked.append(counters)

    def fold(self) -> None:
        """Fold every tracked counter set and every buffered value."""
        tracked, self._tracked = self._tracked, []
        for counters in tracked:
            counters.tracked = False
            counters.fold()
        for hist in self._buffered:
            hist.fold()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def samples(self) -> Tuple[MetricSample, ...]:
        """Snapshot every instrument, sorted by ``(name, labels)``."""
        self.fold()
        rows = [instrument.sample()  # type: ignore[attr-defined]
                for instrument in self._instruments.values()]
        return tuple(sorted(rows, key=lambda s: s.key))

    def ingest(self, samples: Iterable[MetricSample]) -> None:
        """Merge foreign samples (e.g. from a worker process) into this
        registry: counters add, gauges overwrite, histograms merge bucket
        counts and summary statistics."""
        self.fold()
        for s in samples:
            labels = s.label_dict()
            if s.kind == "counter":
                self.counter(s.name, labels).inc(s.value or 0.0)
            elif s.kind == "gauge":
                self.gauge(s.name, labels).set(s.value or 0.0)
            elif s.kind == "histogram":
                if not s.buckets:
                    continue
                bounds = tuple(b for b, _ in s.buckets[:-1])
                hist = self.histogram(s.name, labels, buckets=bounds)
                for i, (_, bucket_count) in enumerate(s.buckets):
                    hist._counts[i] += bucket_count
                hist._count += s.count or 0
                hist._sum += s.sum or 0.0
                if s.min is not None and s.min < hist._min:
                    hist._min = s.min
                if s.max is not None and s.max > hist._max:
                    hist._max = s.max
            else:
                raise ValueError(f"unknown metric kind {s.kind!r}")


def merge_samples(
    sample_sets: Iterable[Iterable[MetricSample]],
) -> Tuple[MetricSample, ...]:
    """Aggregate several snapshots into one (summing across sets)."""
    registry = MetricsRegistry()
    for samples in sample_sets:
        registry.ingest(samples)
    return registry.samples()


def diff_samples(
    before: Iterable[MetricSample],
    after: Iterable[MetricSample],
) -> Tuple[MetricSample, ...]:
    """What happened *between* two snapshots of one registry.

    Counters and histogram buckets subtract; gauges report their ``after``
    value (a gauge has no meaningful delta). A diffed histogram's min/max
    are unknown for the window, so its quantiles are re-estimated from the
    diffed buckets alone, bounded by the first/last non-empty bucket.
    This is how per-trial snapshots attach to ``TrialOutcome``: diff the
    experiment registry around each trial.
    """
    by_key = {s.key: s for s in before}
    out = []
    for s in after:
        prev = by_key.get(s.key)
        if s.kind in ("counter", "gauge"):
            value = s.value or 0.0
            if s.kind == "counter" and prev is not None:
                value -= prev.value or 0.0
            out.append(MetricSample(name=s.name, kind=s.kind,
                                    labels=s.labels, value=value))
            continue
        if not s.buckets:
            out.append(s)
            continue
        prev_counts = {b: c for b, c in (prev.buckets or ())} if prev else {}
        counts = [c - prev_counts.get(b, 0) for b, c in s.buckets]
        bounds = tuple(b for b, _ in s.buckets[:-1])
        hist = Histogram(s.name, s.labels, buckets=bounds)
        hist._counts = counts
        hist._count = (s.count or 0) - ((prev.count or 0) if prev else 0)
        hist._sum = (s.sum or 0.0) - ((prev.sum or 0.0) if prev else 0.0)
        nonzero = [i for i, c in enumerate(counts) if c]
        if nonzero:
            hist._min = 0.0 if nonzero[0] == 0 else bounds[nonzero[0] - 1]
            hist._max = bounds[min(nonzero[-1], len(bounds) - 1)]
        out.append(hist.sample())
    return tuple(sorted(out, key=lambda s: s.key))


@dataclass(frozen=True)
class ExperimentMetrics(SerializableMixin):
    """One experiment's metric snapshot, as attached to ``AllResults``."""

    name: str
    samples: Tuple[MetricSample, ...] = field(default_factory=tuple)
