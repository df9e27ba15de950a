"""Streaming, mergeable aggregation for fleet-scale campaigns.

A campaign (:mod:`repro.experiments.campaign`) folds hundreds of
thousands of trial outcomes into summary statistics without ever
retaining per-trial values — memory stays O(shards), not O(trials). Each
shard owns one :class:`CampaignAggregate`; the driver merges the shard
aggregates into the campaign's final statistics. Two properties make
that safe:

* **Streaming** — a :class:`MetricDigest` holds Welford-style running
  moments (count / mean / variance via first and second moments) plus a
  fixed-bucket quantile sketch built on the :mod:`repro.obs` histogram
  machinery. Nothing grows with the trial count.
* **Exact, order-independent merge** — naive running-moment merges
  (Chan et al.) are floating-point order *dependent*: re-sharding the
  same trials regroups the partial sums and shifts the merged bits.
  Digest sums are therefore kept as Shewchuk partials
  (:class:`ExactSum`, the algorithm inside :func:`math.fsum`): every
  ``add``/``merge`` is exact, so the rounded totals — and every derived
  statistic — are bit-identical no matter how the trials were sharded,
  ordered, or checkpointed and resumed. The property suite
  (``tests/experiments/test_aggregate_properties.py``) pins merged ==
  batch and merge-order independence.

Snapshots are frozen :class:`MetricAggregate` rows, the unit the
campaign manifest persists and the CLI renders.
"""

from __future__ import annotations

import enum
import math
import numbers
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..obs.metrics import DEFAULT_BUCKETS, Histogram, MetricSample
from ..serialization import SerializableMixin


class ExactSum:
    """Exactly-represented running sum of floats (Shewchuk partials).

    The partials list holds non-overlapping doubles whose mathematical
    sum equals the true sum of everything added so far; :attr:`value`
    rounds that exact sum once, via :func:`math.fsum`. Because the
    represented sum is exact, ``add`` and ``merge`` are associative and
    commutative *in exact arithmetic* — the rounded value cannot depend
    on insertion order or on how the inputs were partitioned across
    shards. The partials list stays tiny in practice (one entry per
    distinct binade touched), so the digest remains O(1)-ish per metric.

    Non-finite inputs (inf/NaN) poison the sum just as they would a
    plain accumulation; campaign metrics are expected to be finite.
    """

    __slots__ = ("_partials",)

    def __init__(self, partials: Optional[Iterable[float]] = None) -> None:
        self._partials: List[float] = []
        if partials:
            for x in partials:
                self.add(float(x))

    def add(self, x: float) -> None:
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for x in other._partials:
            self.add(x)

    def copy(self) -> "ExactSum":
        clone = ExactSum()
        clone._partials = list(self._partials)
        return clone

    @property
    def value(self) -> float:
        """The correctly-rounded exact sum."""
        return math.fsum(self._partials)

    def to_list(self) -> List[float]:
        return list(self._partials)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactSum({self.value!r})"


@dataclass(frozen=True)
class MetricAggregate(SerializableMixin):
    """One metric's merged campaign statistics: the snapshot row.

    ``variance``/``stddev`` are population moments. ``p50``/``p95``/
    ``p99`` are bucket-interpolated estimates from the quantile sketch,
    clamped to the observed ``[min, max]`` — same estimator, same
    default bounds as the :mod:`repro.obs` histograms.
    """

    group: str
    name: str
    count: int
    sum: float
    mean: float
    variance: float
    stddev: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float


@lru_cache(maxsize=None)
def _float_bounds(buckets: Tuple[float, ...]) -> Tuple[float, ...]:
    """One shared float tuple per distinct bucket layout."""
    return tuple(float(b) for b in buckets)


class MetricDigest:
    """Streaming moments + quantile sketch for one metric series."""

    __slots__ = ("_count", "_sum", "_sumsq", "_min", "_max",
                 "_bounds", "_bucket_counts")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._count = 0
        self._sum = ExactSum()
        self._sumsq = ExactSum()
        self._min = math.inf
        self._max = -math.inf
        self._bounds: Tuple[float, ...] = _float_bounds(tuple(buckets))
        self._bucket_counts: List[int] = [0] * (len(self._bounds) + 1)

    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum.add(value)
        self._sumsq.add(value * value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        # Same bucketing rule as obs.Histogram.observe (bisect over the
        # shared DEFAULT_BUCKETS bounds).
        self._bucket_counts[bisect_left(self._bounds, value)] += 1

    def merge(self, other: "MetricDigest") -> None:
        if other._bounds != self._bounds:
            raise ValueError("cannot merge digests with different buckets")
        self._count += other._count
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for i, c in enumerate(other._bucket_counts):
            self._bucket_counts[i] += c

    def copy(self) -> "MetricDigest":
        clone = MetricDigest(buckets=self._bounds)
        clone._count = self._count
        clone._sum = self._sum.copy()
        clone._sumsq = self._sumsq.copy()
        clone._min = self._min
        clone._max = self._max
        clone._bucket_counts = list(self._bucket_counts)
        return clone

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum.value / self._count if self._count else 0.0

    @property
    def variance(self) -> float:
        """Population variance from the exact first/second moments."""
        if self._count == 0:
            return 0.0
        mean = self.mean
        return max(self._sumsq.value / self._count - mean * mean, 0.0)

    def _sketch(self) -> Histogram:
        """A throwaway obs histogram wired to this digest's state.

        Quantile estimation is delegated to
        :meth:`repro.obs.metrics.Histogram.quantile` so the campaign
        layer and the metrics plane share one estimator.
        """
        hist = Histogram("digest", buckets=self._bounds)
        hist._counts = list(self._bucket_counts)
        hist._count = self._count
        hist._min = self._min
        hist._max = self._max
        return hist

    def quantile(self, q: float) -> Optional[float]:
        return self._sketch().quantile(q)

    def snapshot(self, group: str, name: str) -> MetricAggregate:
        empty = self._count == 0
        sketch = self._sketch()
        quantiles = [sketch.quantile(q) for q in (0.5, 0.95, 0.99)]
        variance = self.variance
        return MetricAggregate(
            group=group,
            name=name,
            count=self._count,
            sum=self._sum.value,
            mean=self.mean,
            variance=variance,
            stddev=math.sqrt(variance),
            min=0.0 if empty else self._min,
            max=0.0 if empty else self._max,
            p50=quantiles[0] if quantiles[0] is not None else 0.0,
            p95=quantiles[1] if quantiles[1] is not None else 0.0,
            p99=quantiles[2] if quantiles[2] is not None else 0.0,
        )

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "sum_partials": self._sum.to_list(),
            "sumsq_partials": self._sumsq.to_list(),
            "min": self._min,
            "max": self._max,
            "bounds": list(self._bounds),
            "bucket_counts": list(self._bucket_counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricDigest":
        digest = cls(buckets=tuple(data["bounds"]))
        digest._count = int(data["count"])
        digest._sum = ExactSum(data["sum_partials"])
        digest._sumsq = ExactSum(data["sumsq_partials"])
        digest._min = float(data["min"])
        digest._max = float(data["max"])
        digest._bucket_counts = [int(c) for c in data["bucket_counts"]]
        return digest


#: The group key used when a campaign has no ``group_by`` function.
DEFAULT_GROUP = "all"


class CampaignAggregate:
    """Every metric digest of one shard (or of the merged campaign).

    Two-level map: ``group -> metric name -> MetricDigest``. Groups
    partition trials (e.g. by fault profile or Android version); metrics
    are the named series the extractor produced for each trial.
    """

    __slots__ = ("_groups", "_buckets")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._groups: Dict[str, Dict[str, MetricDigest]] = {}
        self._buckets = _float_bounds(tuple(buckets))

    def observe(self, group: str, metrics: Mapping[str, float]) -> None:
        digests = self._groups.setdefault(group, {})
        for name, value in metrics.items():
            digest = digests.get(name)
            if digest is None:
                digest = digests[name] = MetricDigest(buckets=self._buckets)
            digest.add(value)

    def merge(self, other: "CampaignAggregate") -> None:
        for group, digests in other._groups.items():
            mine = self._groups.setdefault(group, {})
            for name, digest in digests.items():
                if name in mine:
                    mine[name].merge(digest)
                else:
                    mine[name] = digest.copy()

    @property
    def trials(self) -> int:
        """Maximum per-metric count — the number of observed trials when
        every trial contributed every metric of its group."""
        return max(
            (d.count for digests in self._groups.values()
             for d in digests.values()),
            default=0,
        )

    def rows(self) -> Tuple[MetricAggregate, ...]:
        """Snapshot every digest, sorted by ``(group, name)``."""
        return tuple(
            self._groups[group][name].snapshot(group, name)
            for group in sorted(self._groups)
            for name in sorted(self._groups[group])
        )

    # -- persistence ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self._buckets),
            "groups": {
                group: {name: digest.to_dict()
                        for name, digest in sorted(digests.items())}
                for group, digests in sorted(self._groups.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignAggregate":
        aggregate = cls(buckets=tuple(data["buckets"]))
        for group, digests in data["groups"].items():
            aggregate._groups[group] = {
                name: MetricDigest.from_dict(payload)
                for name, payload in digests.items()
            }
        return aggregate


# ---------------------------------------------------------------------------
# Default trial-metric extraction
# ---------------------------------------------------------------------------

def default_trial_metrics(spec: Any, value: Any) -> Dict[str, float]:
    """Turn one trial's measurement into named float series.

    The default extractor handles every scenario result shape in the
    repo without per-type registration:

    * plain numbers and bools become ``{"value": x}``;
    * enums contribute ``value`` (their numeric rank) plus any numeric
      or boolean properties (``NotificationOutcome`` thus yields
      ``value`` and ``suppressed``);
    * mappings of numerics pass through;
    * dataclass-like objects contribute every numeric/bool attribute in
      ``__dict__``/fields plus every numeric/bool property
      (``CaptureTrialResult`` thus yields ``total_taps`` ... and the
      derived ``capture_rate``).

    Campaigns needing something else pass their own module-level
    extractor ``fn(spec, value) -> Mapping[str, float]`` (module-level
    so it pickles into shard workers).
    """
    out: Dict[str, float] = {}
    if isinstance(value, (bool, numbers.Real)):
        _put(out, "value", value)
        return out
    if isinstance(value, Mapping):
        for name, raw in value.items():
            _put(out, str(name), raw)
        return out
    if isinstance(value, enum.Enum):
        return dict(_enum_metrics(value))
    return _object_metrics(value, out)


@lru_cache(maxsize=None)
def _enum_metrics(member: enum.Enum) -> Dict[str, float]:
    """An enum member's series: a pure function of the member, so once."""
    out: Dict[str, float] = {}
    _put(out, "value", member.value)
    return _object_metrics(member, out)


def _object_metrics(value: Any, out: Dict[str, float]) -> Dict[str, float]:
    """Add ``value``'s numeric attributes and properties to ``out``."""
    # Numeric instance attributes (dataclass fields land in __dict__).
    state = getattr(value, "__dict__", {})
    for name in sorted(state):
        if not name.startswith("_"):
            _put(out, name, state[name])
    # Numeric properties (derived statistics like capture_rate).
    for name, getter in _property_getters(type(value)):
        try:
            _put(out, name, getter(value))
        except Exception:
            continue
    return out


def _put(out: Dict[str, float], name: str, raw: Any) -> None:
    """Store ``raw`` as a float series value if it is a finite number."""
    if isinstance(raw, bool):
        out[name] = 1.0 if raw else 0.0
    elif isinstance(raw, numbers.Real) and math.isfinite(float(raw)):
        out[name] = float(raw)


@lru_cache(maxsize=None)
def _property_getters(
        klass: type) -> Tuple[Tuple[str, Callable[[Any], Any]], ...]:
    """Public property getters of ``klass``, resolved once per type.

    Walks the MRO's class dicts rather than ``dir()``: ``EnumMeta.__dir__``
    hides plain properties like ``NotificationOutcome.suppressed`` on
    older Pythons. A name defined nearer the front of the MRO shadows the
    same name further back, whether or not it is a property. Getters
    annotated ``-> str`` (``NotificationOutcome.label``) are skipped:
    :func:`_put` would discard their value after paying for the call.
    """
    getters = []
    seen = set()
    for base in klass.__mro__:
        for name, descriptor in sorted(vars(base).items()):
            if name.startswith("_") or name in seen:
                continue
            seen.add(name)
            if not isinstance(descriptor, property):
                continue
            annotations = getattr(descriptor.fget, "__annotations__", {})
            if annotations.get("return") not in (str, "str"):
                getters.append((name, descriptor.fget))
    return tuple(getters)


@dataclass(frozen=True)
class ShardOutcome(SerializableMixin):
    """Everything one completed shard reports back to the driver.

    Carries the shard's *aggregate*, never its per-trial outcomes — this
    is the O(shards) memory contract. ``samples`` is the shard's metric
    snapshot when the driver collects metrics (``None`` otherwise).
    ``seconds``, ``pid`` and ``samples`` are excluded from equality (wall
    clock and worker placement vary run to run; the statistics must not).
    """

    index: int
    trials: int
    aggregate_state: Dict[str, Any]
    seconds: float = field(default=0.0, compare=False)
    pid: int = field(default=0, compare=False)
    samples: Optional[Tuple[MetricSample, ...]] = field(default=None,
                                                        compare=False)

    def aggregate(self) -> CampaignAggregate:
        return CampaignAggregate.from_dict(self.aggregate_state)
