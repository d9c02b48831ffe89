"""The metrics module: primitives and the label-scoped registry.

:class:`Counter` / :class:`Gauge` / :class:`Histogram` are
dependency-free primitives (the QoS and SLO trackers use them bare).  A
registry metric is a ``(name, labels)`` pair, where labels identify the
scope it was recorded in — ``operator="join:A~B"``, ``shard="2"``,
``query="q17"`` and so on.  :class:`MetricsRegistry` hands out live
primitives (lazily created, cached per key) so hot paths pay one dict
hit at *instrumentation-site setup* and plain attribute arithmetic at
record time.

Snapshots are plain JSON-able dicts so they cross process boundaries as
pickled ack payloads and land in JSONL/Prometheus exports unchanged:

* counters snapshot to their value;
* gauges snapshot to their value plus a ``merge`` hint (``sum`` for
  additive state like live slices, ``max`` for global facts like the
  query-set width that every shard reports identically);
* histograms snapshot to count/sum/min/max/percentiles plus a small
  deterministic :meth:`Histogram.reservoir`, so merged percentiles can
  be re-estimated from the union of reservoirs.

:func:`merge_snapshots` combines per-shard snapshots into cluster
totals; :func:`relabel_snapshot` stamps a snapshot with extra labels
(the coordinator tags each worker's snapshot with ``shard=N`` before
merging, keeping per-shard stats addressable);
:func:`gauge_snapshot` renders an operator's ``stats()`` in the same
shape.  The ``sum``/``max`` merge convention lives here and nowhere else.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]
"""(metric name, sorted ``(label, value)`` pairs)."""

HISTOGRAM_PERCENTILES = (50.0, 90.0, 99.0)
"""Percentiles materialised into every histogram snapshot."""

RESERVOIR_SIZE = 64
"""Order-statistic sketch size shipped per histogram snapshot."""


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    return (name, tuple(sorted(labels.items())))


def render_key(name: str, labels: Dict[str, str]) -> str:
    """Stable flat string for a metric: ``name{a=1,b=2}``."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{body}}}"


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Increase the counter (``amount`` must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0


class Gauge:
    """A point-in-time value."""

    def __init__(self, name: str = "gauge", initial: float = 0.0) -> None:
        self.name = name
        self.value = initial

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = value


class Histogram:
    """Record samples; report count/mean/min/max/percentiles.

    Keeps all samples (experiments here are bounded) up to
    ``max_samples``; past it, each sample pushes the oldest out, so a
    long-running process keeps the recent ones.
    """

    def __init__(self, name: str = "histogram", max_samples: int = 1_000_000) -> None:
        self.name = name
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self._max_samples = max_samples
        self._dropped = 0
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        """Add one sample."""
        if len(self._samples) >= self._max_samples:
            self._dropped += 1
        self._samples.append(value)
        self._sorted = None

    def _ordered(self) -> List[float]:
        # Sorted view cached between mutations: the dashboard reads many
        # percentiles per snapshot and must not re-sort per call.
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    @property
    def count(self) -> int:
        """Number of recorded samples (excluding dropped)."""
        return len(self._samples)

    @property
    def dropped(self) -> int:
        """Samples pushed out after hitting ``max_samples``."""
        return self._dropped

    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def minimum(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return min(self._samples) if self._samples else 0.0

    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank; 0 <= p <= 100).

        Boundary semantics are pinned explicitly: ``p=0`` is the
        minimum, ``p=100`` is the maximum, and a single-sample
        histogram returns that sample for every ``p`` — the nearest-rank
        index is clamped into ``[1, n]`` so float rounding at the
        reservoir boundaries can never index outside the samples.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = self._ordered()
        size = len(ordered)
        if p <= 0:
            return ordered[0]
        if p >= 100:
            return ordered[-1]
        rank = min(size, max(1, math.ceil(p / 100 * size)))
        return ordered[rank - 1]

    def quantiles(self, ps: Iterable[float]) -> List[float]:
        """Bulk :meth:`percentile`: one sort, many read-offs."""
        return [self.percentile(p) for p in ps]

    def samples(self) -> List[float]:
        """A copy of the raw samples."""
        return list(self._samples)

    def reservoir(self, size: int = 64) -> List[float]:
        """Up to ``size`` samples evenly strided across the sorted data.

        A deterministic order-statistic sketch: concatenating the
        reservoirs of several histograms and reading percentiles off the
        union approximates the merged distribution, which is how
        cross-process snapshots merge without shipping every sample.
        """
        if size < 1:
            raise ValueError(f"reservoir size must be >= 1, got {size}")
        ordered = self._ordered()
        if len(ordered) <= size:
            return list(ordered)
        if size == 1:
            return [ordered[-1]]
        step = (len(ordered) - 1) / (size - 1)
        return [ordered[round(i * step)] for i in range(size)]

    def reset(self) -> None:
        """Drop all samples."""
        self._samples.clear()
        self._dropped = 0
        self._sorted = None


class MetricsScope:
    """A registry view with a fixed set of base labels.

    Scopes nest — ``registry.scope(shard="2").scope(operator="agg:A")``
    — and every metric created through a scope carries the accumulated
    labels, which is how engine/operator/query/shard hierarchies are
    expressed without a tree structure in the hot path.
    """

    __slots__ = ("_registry", "_labels")

    def __init__(self, registry: "MetricsRegistry", labels: Dict[str, str]) -> None:
        self._registry = registry
        self._labels = labels

    @property
    def labels(self) -> Dict[str, str]:
        """The labels this scope stamps on every metric."""
        return dict(self._labels)

    def scope(self, **labels: str) -> "MetricsScope":
        """A child scope with these labels added."""
        merged = dict(self._labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return MetricsScope(self._registry, merged)

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create a counter in this scope."""
        return self._registry.counter(name, **{**self._labels, **labels})

    def gauge(self, name: str, merge: str = "sum", **labels: str) -> Gauge:
        """Get or create a gauge in this scope."""
        return self._registry.gauge(name, merge=merge, **{**self._labels, **labels})

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create a histogram in this scope."""
        return self._registry.histogram(name, **{**self._labels, **labels})


class MetricsRegistry:
    """Label-scoped counters, gauges, and histograms with snapshots."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._gauge_merge: Dict[MetricKey, str] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- creation ----------------------------------------------------------

    def scope(self, **labels: str) -> MetricsScope:
        """A scope stamping ``labels`` on every metric made through it."""
        return MetricsScope(self, {k: str(v) for k, v in labels.items()})

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with these labels."""
        key = _key(name, {k: str(v) for k, v in labels.items()})
        counter = self._counters.get(key)
        if counter is None:
            counter = Counter(name)
            self._counters[key] = counter
        return counter

    def gauge(self, name: str, merge: str = "sum", **labels: str) -> Gauge:
        """Get or create the gauge ``name``.

        ``merge`` declares cross-snapshot semantics: ``sum`` for
        additive quantities (state sizes split across shards), ``max``
        for globally replicated facts (registry width, active queries),
        ``last`` for whoever-wrote-last values.
        """
        if merge not in ("sum", "max", "last"):
            raise ValueError(f"unknown gauge merge policy {merge!r}")
        key = _key(name, {k: str(v) for k, v in labels.items()})
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = Gauge(name)
            self._gauges[key] = gauge
            self._gauge_merge[key] = merge
        return gauge

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the histogram ``name`` with these labels."""
        key = _key(name, {k: str(v) for k, v in labels.items()})
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = Histogram(name)
            self._histograms[key] = histogram
        return histogram

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able flat view: rendered key → metric entry."""
        view: Dict[str, dict] = {}
        for (name, labels), counter in self._counters.items():
            view[render_key(name, dict(labels))] = {
                "name": name,
                "labels": dict(labels),
                "type": "counter",
                "value": counter.value,
            }
        for key, gauge in self._gauges.items():
            name, labels = key
            view.update(
                gauge_snapshot(
                    {name: (gauge.value, self._gauge_merge[key])},
                    **dict(labels),
                )
            )
        for (name, labels), histogram in self._histograms.items():
            entry = {
                "name": name,
                "labels": dict(labels),
                "type": "histogram",
                "count": histogram.count,
                "sum": histogram.mean() * histogram.count,
                "min": histogram.minimum(),
                "max": histogram.maximum(),
                "reservoir": histogram.reservoir(RESERVOIR_SIZE),
            }
            quantiles = histogram.quantiles(HISTOGRAM_PERCENTILES)
            for p, value in zip(HISTOGRAM_PERCENTILES, quantiles):
                entry[f"p{p:g}"] = value
            view[render_key(name, dict(labels))] = entry
        return view


def gauge_snapshot(
    stats: Dict[str, Tuple[float, str]], **labels: str
) -> Dict[str, dict]:
    """An operator's ``stats()`` as snapshot gauge entries under
    ``labels`` — the shape :func:`merge_snapshots` combines."""
    labels = {k: str(v) for k, v in labels.items()}
    return {
        render_key(name, labels): {
            "name": name,
            "labels": dict(labels),
            "type": "gauge",
            "merge": merge,
            "value": value,
        }
        for name, (value, merge) in stats.items()
    }


def relabel_snapshot(snapshot: Dict[str, dict], **labels: str) -> Dict[str, dict]:
    """A copy of ``snapshot`` with extra labels stamped on every entry."""
    extra = {k: str(v) for k, v in labels.items()}
    out: Dict[str, dict] = {}
    for entry in snapshot.values():
        merged = dict(entry["labels"])
        merged.update(extra)
        copy = dict(entry)
        copy["labels"] = merged
        out[render_key(entry["name"], merged)] = copy
    return out


def _merged_histogram(entries: List[dict]) -> dict:
    first = entries[0]
    reservoir: List[float] = []
    count = 0
    total = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    for entry in entries:
        count += entry["count"]
        total += entry["sum"]
        if entry["count"]:
            minimum = (
                entry["min"] if minimum is None else min(minimum, entry["min"])
            )
            maximum = (
                entry["max"] if maximum is None else max(maximum, entry["max"])
            )
        reservoir.extend(entry.get("reservoir", ()))
    reservoir.sort()
    merged = {
        "name": first["name"],
        "labels": dict(first["labels"]),
        "type": "histogram",
        "count": count,
        "sum": total,
        "min": minimum if minimum is not None else 0.0,
        "max": maximum if maximum is not None else 0.0,
        "reservoir": reservoir[: RESERVOIR_SIZE * 2],
    }
    sketch = Histogram("merged")
    for value in reservoir:
        sketch.record(value)
    for p, value in zip(
        HISTOGRAM_PERCENTILES, sketch.quantiles(HISTOGRAM_PERCENTILES)
    ):
        merged[f"p{p:g}"] = value
    return merged


def merge_snapshots(
    snapshots: Iterable[Dict[str, dict]],
    drop_labels: Tuple[str, ...] = (),
) -> Dict[str, dict]:
    """Combine several snapshots into one.

    Counters sum; gauges follow their ``merge`` hint; histograms merge
    count/sum/min/max and re-estimate percentiles from the reservoir
    union.  ``drop_labels`` removes labels before grouping — merging
    per-shard snapshots with ``drop_labels=("shard",)`` yields cluster
    totals.
    """
    grouped: Dict[str, List[dict]] = {}
    for snapshot in snapshots:
        for entry in snapshot.values():
            labels = {
                k: v for k, v in entry["labels"].items() if k not in drop_labels
            }
            grouped.setdefault(
                render_key(entry["name"], labels), []
            ).append({**entry, "labels": labels})
    merged: Dict[str, dict] = {}
    for key, entries in grouped.items():
        kind = entries[0]["type"]
        if kind == "counter":
            merged[key] = {
                **entries[0],
                "value": sum(entry["value"] for entry in entries),
            }
        elif kind == "gauge":
            policy = entries[0].get("merge", "sum")
            if policy == "max":
                value = max(entry["value"] for entry in entries)
            elif policy == "last":
                value = entries[-1]["value"]
            else:
                value = sum(entry["value"] for entry in entries)
            merged[key] = {**entries[0], "value": value}
        else:
            merged[key] = _merged_histogram(entries)
    return merged
