"""Metric primitives and the registry that owns them.

Three metric kinds cover everything the pipeline reports:

* :class:`Counter` — monotonically increasing totals
  (``pipeline.fixes``, ``localizer.outliers_rejected``).
* :class:`Gauge` — last-written values (``multitarget.pool_size``).
* :class:`Histogram` — value distributions with exact count/sum/min/max,
  sample-based percentiles, and cumulative exposition buckets
  (``calibration.residual``, the per-stage ``latency.*`` series fed
  automatically by spans).

Every metric may additionally carry **labels** — a small, bounded set
of ``key=value`` dimensions (``stream.reads.rejected{reader=R1}``,
``faults.injected{kind=outage}``).  A (name, label-set) pair is one
series; the registry caps the number of series per name so a bug can
never explode cardinality unbounded (the cap is asserted by the soak
harness).  A metric *name* still belongs to exactly one kind across
all of its label sets.

Everything is plain stdlib + locks, so the layer adds no dependency
and is safe to use from the threaded measurement hub: the registry
guards its series maps, and **every metric object guards its own
running state** — the registry hands metric objects to arbitrary
threads (``obs.count`` bumps them outside any registry call), so a
scrape snapshotting a counter mid-``inc`` must never read a
half-applied update.  The locks come from
:func:`repro.analysis.sanitizer.sanitized_lock`, so ``REPRO_DEBUG=1``
runs witness the whole acquisition graph.  Histograms keep
a deterministically decimated sample reservoir: when the buffer fills,
every second sample is dropped and the keep stride doubles, so memory
stays bounded without introducing randomness (randomness here would
perturb nothing numerically, but determinism keeps snapshots
reproducible run to run).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
    cast,
)

from repro.analysis.sanitizer import sanitized_lock
from repro.errors import ConfigurationError

MetricValue = Union[int, float]

#: One series key: label items, sorted by key (the registry sorts).
LabelItems = Tuple[Tuple[str, str], ...]

#: Percentiles reported in every histogram snapshot.
HISTOGRAM_PERCENTILES = (50.0, 90.0, 99.0)

#: Default cumulative-bucket upper bounds of every histogram, a
#: log-ish ladder wide enough for milliseconds (``latency.*``), meters
#: (``harness.error_m``) and calibration residuals alike.  Exposition
#: adds the implicit ``+Inf`` bucket (= ``count``).
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Hard per-name series cap: creating more label sets than this for one
#: metric name raises instead of silently growing without bound.
MAX_SERIES_PER_NAME = 512


def label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    """Normalize a label mapping into the sorted, hashable series key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0
    labels: LabelItems = ()

    def __post_init__(self) -> None:
        # The registry hands this object to arbitrary threads; the lock
        # keeps increments atomic against concurrent scrapes.
        self._lock = sanitized_lock("obs.metric")

    def inc(self, amount: MetricValue = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        with self._lock:
            self.value += float(amount)

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            record: Dict[str, Any] = {
                "name": self.name,
                "type": "counter",
                "value": self.value,
            }
        if self.labels:
            record["labels"] = dict(self.labels)
        return record


@dataclass
class Gauge:
    """A last-written value."""

    name: str
    value: float = 0.0
    labels: LabelItems = ()
    _written: bool = False

    def __post_init__(self) -> None:
        self._lock = sanitized_lock("obs.metric")

    def set(self, value: MetricValue) -> None:
        with self._lock:
            self.value = float(value)
            self._written = True

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0
            self._written = False

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            record: Dict[str, Any] = {
                "name": self.name,
                "type": "gauge",
                "value": self.value,
            }
        if self.labels:
            record["labels"] = dict(self.labels)
        return record


@dataclass
class Histogram:
    """A value distribution with exact aggregates and sampled percentiles.

    Parameters
    ----------
    max_samples:
        Reservoir capacity.  On overflow the stored samples are
        decimated (every second one kept) and the keep stride doubles,
        so long runs retain an evenly spread subsample.
    """

    name: str
    max_samples: int = 4096
    count: int = 0
    total: float = 0.0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    labels: LabelItems = ()
    bucket_bounds: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS
    _samples: List[float] = field(default_factory=list)
    _stride: int = 1
    _pending: int = 0
    _bucket_counts: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if tuple(sorted(self.bucket_bounds)) != tuple(self.bucket_bounds):
            raise ConfigurationError(
                f"histogram {self.name!r} bucket bounds must be sorted"
            )
        if not self._bucket_counts:
            self._bucket_counts = [0] * (len(self.bucket_bounds) + 1)
        self._lock = sanitized_lock("obs.metric")

    def observe(self, value: MetricValue) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            self.min_value = (
                v if self.min_value is None else min(self.min_value, v)
            )
            self.max_value = (
                v if self.max_value is None else max(self.max_value, v)
            )
            # Prometheus buckets are upper-bound inclusive (v <= le); the
            # final slot is the implicit +Inf overflow bucket.
            self._bucket_counts[bisect_left(self.bucket_bounds, v)] += 1
            self._pending += 1
            if self._pending >= self._stride:
                self._pending = 0
                self._samples.append(v)
                if len(self._samples) >= self.max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2

    @property
    def mean(self) -> float:
        with self._lock:
            return self._mean_locked()

    def _mean_locked(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, finite bounds only.

        The implicit ``+Inf`` bucket equals :attr:`count`; the
        Prometheus renderer appends it at exposition time.
        """
        with self._lock:
            return self._cumulative_buckets_locked()

    def _cumulative_buckets_locked(self) -> List[Tuple[float, int]]:
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, in_bucket in zip(self.bucket_bounds, self._bucket_counts):
            running += in_bucket
            pairs.append((bound, running))
        return pairs

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min_value = None
            self.max_value = None
            self._samples = []
            self._stride = 1
            self._pending = 0
            self._bucket_counts = [0] * (len(self.bucket_bounds) + 1)

    def snapshot(self) -> Dict[str, Any]:
        # One acquisition covers every field read, so the record is a
        # consistent point-in-time view even under concurrent observe().
        with self._lock:
            record: Dict[str, Any] = {
                "name": self.name,
                "type": "histogram",
                "count": self.count,
                "sum": self.total,
                "mean": self._mean_locked(),
                "min": self.min_value if self.min_value is not None else 0.0,
                "max": self.max_value if self.max_value is not None else 0.0,
                "buckets": [
                    [bound, cumulative]
                    for bound, cumulative in self._cumulative_buckets_locked()
                ],
            }
            percentiles = {
                f"p{q:g}": self._percentile_locked(q)
                for q in HISTOGRAM_PERCENTILES
            }
        if self.labels:
            record["labels"] = dict(self.labels)
        record.update(percentiles)
        return record


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Thread-safe get-or-create home for every named metric series.

    A metric name belongs to exactly one kind across all of its label
    sets; asking for an existing name with a different kind is a
    programming error and raises immediately rather than silently
    splitting the series.  The number of label sets per name is capped
    at :data:`MAX_SERIES_PER_NAME` so instrumentation bugs (labelling
    by an unbounded value such as an EPC) fail loudly instead of
    leaking memory on a long-running monitor.
    """

    def __init__(self) -> None:
        self._lock = sanitized_lock("obs.metrics.registry")
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}
        self._kinds: Dict[str, Type[Metric]] = {}
        self._series_per_name: Dict[str, int] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return cast(Counter, self._get_or_create(name, Counter, labels))

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        return cast(Gauge, self._get_or_create(name, Gauge, labels))

    def histogram(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Histogram:
        return cast(Histogram, self._get_or_create(name, Histogram, labels))

    def _get_or_create(
        self,
        name: str,
        kind: Type[Metric],
        labels: Optional[Mapping[str, str]] = None,
    ) -> Metric:
        key = (name, label_items(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is not None:
                if not isinstance(metric, kind):
                    raise ConfigurationError(
                        f"metric {name!r} is a {type(metric).__name__}, "
                        f"not a {kind.__name__}"
                    )
                return metric
            registered = self._kinds.get(name)
            if registered is not None and registered is not kind:
                raise ConfigurationError(
                    f"metric {name!r} is a {registered.__name__}, "
                    f"not a {kind.__name__}"
                )
            series = self._series_per_name.get(name, 0)
            if series >= MAX_SERIES_PER_NAME:
                raise ConfigurationError(
                    f"metric {name!r} exceeds {MAX_SERIES_PER_NAME} label "
                    "sets; label values must come from a bounded vocabulary"
                )
            metric = kind(name=name, labels=key[1])
            self._metrics[key] = metric
            self._kinds[name] = kind
            self._series_per_name[name] = series + 1
            return metric

    def names(self) -> List[str]:
        """Distinct metric names (label sets collapse), sorted."""
        with self._lock:
            return sorted(self._kinds)

    def series_count(self) -> int:
        """Total number of live (name, label-set) series."""
        with self._lock:
            return len(self._metrics)

    def snapshot(self) -> List[Dict[str, Any]]:
        """One record per series, sorted by (name, labels).

        The registry lock covers only the copy of the series map; each
        metric is then snapshotted under its *own* lock.  Nesting the
        per-metric locks inside the registry lock would put an edge in
        the acquisition graph for no benefit — a scrape is a sequence
        of per-series point reads, not a global atomic view.
        """
        with self._lock:
            ordered = [self._metrics[key] for key in sorted(self._metrics)]
        return [metric.snapshot() for metric in ordered]

    def reset(self) -> None:
        """Zero every metric while keeping registrations."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def clear(self) -> None:
        """Forget every metric."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._series_per_name.clear()

    def write_jsonl(self, path: str) -> int:
        """Write the snapshot as JSON lines; returns the record count."""
        records = self.snapshot()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def load_snapshot_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a metrics snapshot previously written by :meth:`write_jsonl`."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: Prefix of the per-span latency histograms in a metrics snapshot.
LATENCY_PREFIX = "latency."


def latency_stage_stats(
    records: Iterable[Mapping[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Per-stage latency statistics from a metrics snapshot.

    Collects the ``latency.*`` histograms that spans feed automatically
    and strips the prefix, returning
    ``{stage: {"count", "mean", "p90", "max"}}`` in the span's native
    milliseconds.  The latency experiment
    (:mod:`repro.experiments.latency`) reads its per-stage breakdown
    through it.
    """
    stages: Dict[str, Dict[str, float]] = {}
    for record in records:
        name = str(record.get("name", ""))
        if record.get("type") != "histogram" or not name.startswith(
            LATENCY_PREFIX
        ):
            continue
        stages[name[len(LATENCY_PREFIX):]] = {
            "count": float(record["count"]),
            "mean": float(record["mean"]),
            "p90": float(record["p90"]),
            "max": float(record["max"]),
        }
    return stages


def series_name(record: Mapping[str, object]) -> str:
    """Display name of one snapshot record: ``name{k=v,...}`` if labelled."""
    name = str(record.get("name", ""))
    labels = record.get("labels")
    if not isinstance(labels, dict) or not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def render_snapshot(
    records: Iterable[Mapping[str, Any]], prefix: Optional[str] = None
) -> List[str]:
    """Human-readable table of a metrics snapshot (for ``repro stats``).

    ``prefix`` restricts the table to metrics whose name starts with it
    (e.g. ``stream.health.`` to see just the fleet-health series).
    """
    rows = list(records)
    if prefix is not None:
        rows = [r for r in rows if str(r.get("name", "")).startswith(prefix)]
    counters = [r for r in rows if r.get("type") == "counter"]
    gauges = [r for r in rows if r.get("type") == "gauge"]
    histograms = [r for r in rows if r.get("type") == "histogram"]
    lines: List[str] = []
    if counters or gauges:
        width = max(len(series_name(r)) for r in counters + gauges)
        lines.append("-- counters & gauges --")
        for record in counters + gauges:
            value = record.get("value", 0.0)
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{series_name(record):<{width}}  {rendered}")
    if histograms:
        if lines:
            lines.append("")
        width = max(len(series_name(r)) for r in histograms)
        lines.append("-- histograms --")
        header = (
            f"{'name':<{width}}  {'count':>7} {'mean':>10} {'p50':>10} "
            f"{'p90':>10} {'p99':>10} {'max':>10}"
        )
        lines.append(header)
        lines.extend(
            f"{series_name(record):<{width}}  "
            f"{record.get('count', 0):>7} "
            f"{record.get('mean', 0.0):>10.3f} "
            f"{record.get('p50', 0.0):>10.3f} "
            f"{record.get('p90', 0.0):>10.3f} "
            f"{record.get('p99', 0.0):>10.3f} "
            f"{record.get('max', 0.0):>10.3f}"
            for record in histograms
        )
    if not lines:
        lines.append("(no metrics recorded)")
    return lines
