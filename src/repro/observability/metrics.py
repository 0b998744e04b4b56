"""Metrics registry: named counters, gauges, and histograms.

One registry holds the run counters of
:class:`~repro.core.stats.MatchStats` and the streaming per-batch
counters behind a single ``snapshot()`` / ``diff()`` API with JSON-lines
export.

Snapshots are plain dicts (``name -> {"type": ..., ...}``), so they diff
cleanly and serialize without custom hooks.  :func:`record_match_stats` and
:func:`record_batch_result` are the bridges from the existing
instrumentation objects into the registry; matchers themselves never
write here — counters on the hot path stay exactly as they were.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

Snapshot = Dict[str, dict]


def bucket_quantile(
    bounds,
    bucket_counts,
    count: int,
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> float:
    """Estimate the ``q``-quantile from per-bucket counts.

    ``bounds`` are cumulative upper bounds ending in ``+inf``;
    ``bucket_counts`` are the per-bucket (non-cumulative) observation
    counts.  The estimate linearly interpolates within the bucket the
    target rank falls into — the same scheme Prometheus's
    ``histogram_quantile`` uses — clamped to the observed ``minimum`` /
    ``maximum`` when known, which tightens the first and +inf buckets.
    Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if count <= 0:
        return 0.0
    rank = q * count
    cumulative = 0
    for position, bound in enumerate(bounds):
        bucket = bucket_counts[position]
        if bucket <= 0:
            continue
        if cumulative + bucket >= rank:
            lower = bounds[position - 1] if position > 0 else 0.0
            upper = bound
            if minimum is not None:
                lower = max(lower, minimum) if position == 0 else lower
            if upper == float("inf"):
                # +inf bucket: best estimate is the observed max (or the
                # previous finite bound when no max was tracked).
                return maximum if maximum is not None else lower
            fraction = (rank - cumulative) / bucket
            value = lower + (upper - lower) * fraction
            if maximum is not None and value > maximum:
                value = maximum
            if minimum is not None and value < minimum:
                value = minimum
            return value
        cumulative += bucket
    # Rank past every populated bucket (q == 1.0 with rounding): the max.
    if maximum is not None:
        return maximum
    return bounds[-2] if len(bounds) > 1 else 0.0

#: Default histogram bucket upper bounds (seconds) — geometric ladder
#: covering sub-microsecond feature computations up to multi-second runs.
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, float("inf")
)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (e.g. a phase duration, a memo size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with running count/total/min/max.

    Buckets are cumulative-upper-bound style (the last bound is +inf).
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds=DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(bounds)
        if not self.bounds or self.bounds[-1] != float("inf"):
            raise ValueError("histogram bounds must end with +inf")
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[position] += 1
                break
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated ``q``-quantile estimate (see :func:`bucket_quantile`)."""
        return bucket_quantile(
            self.bounds,
            self.bucket_counts,
            self.count,
            q,
            minimum=self.min if self.count else None,
            maximum=self.max if self.count else None,
        )

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named metrics with snapshot/merge/diff and JSON-lines export."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    # ----------------------------------------------------------- creation

    def _get(self, name: str, kind: type, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, bounds=DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds=bounds)

    # ------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def value(self, name: str):
        """Scalar value of a counter/gauge (KeyError if absent)."""
        metric = self._metrics[name]
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; read its snapshot")
        return metric.value

    # ---------------------------------------------------- snapshot / diff

    def snapshot(self) -> Snapshot:
        """Picklable plain-dict view of every metric (deep copy)."""
        return {name: metric.as_dict() for name, metric in sorted(self._metrics.items())}

    def diff(self, earlier: Snapshot) -> Snapshot:
        """What changed since ``earlier`` (an older snapshot of this registry).

        Counters/histograms subtract; gauges report the current value when
        it differs.  Metrics absent from ``earlier`` appear whole; metrics
        only in ``earlier`` are ignored (registries never shrink).
        """
        delta: Snapshot = {}
        for name, data in self.snapshot().items():
            before = earlier.get(name)
            if before is None:
                delta[name] = data
                continue
            kind = data["type"]
            if kind == "counter":
                change = data["value"] - before["value"]
                if change:
                    delta[name] = {"type": "counter", "value": change}
            elif kind == "gauge":
                if data["value"] != before["value"]:
                    delta[name] = data
            elif kind == "histogram":
                change = data["count"] - before["count"]
                if change:
                    delta[name] = {
                        "type": "histogram",
                        "count": change,
                        "total": data["total"] - before["total"],
                        "min": data["min"],
                        "max": data["max"],
                        "bounds": data["bounds"],
                        "buckets": [
                            now - then
                            for now, then in zip(data["buckets"], before["buckets"])
                        ],
                    }
        return delta

    # ------------------------------------------------------------- export

    def to_json_lines(self) -> str:
        """One JSON object per metric: ``{"name": ..., **as_dict()}``."""
        return "\n".join(
            json.dumps({"name": name, **data}, sort_keys=True)
            for name, data in self.snapshot().items()
        )

    def render(self, prefix: str = "") -> str:
        """Human-readable one-line-per-metric digest."""
        lines = []
        for name, data in self.snapshot().items():
            if prefix and not name.startswith(prefix):
                continue
            if data["type"] == "histogram":
                mean = data["total"] / data["count"] if data["count"] else 0.0
                lines.append(
                    f"{name}: n={data['count']} mean={mean:.6g} "
                    f"min={data['min']} max={data['max']}"
                )
            else:
                lines.append(f"{name}: {data['value']:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# ---------------------------------------------------------------------------
# Bridges from the existing instrumentation objects
# ---------------------------------------------------------------------------


def record_match_stats(
    registry: MetricsRegistry, stats, prefix: str = "run"
) -> None:
    """Fold one :class:`~repro.core.stats.MatchStats` into the registry.

    Scalar work counters become counters and wall-clock feeds a
    histogram — one vocabulary for full runs and streaming batches.
    """
    for field_name in (
        "feature_computations",
        "memo_hits",
        "predicate_evaluations",
        "bound_skips",
        "rule_evaluations",
        "pairs_evaluated",
        "pairs_matched",
        "deltas_applied",
        "pairs_gained",
        "pairs_lost",
        "pairs_invalidated",
    ):
        value = getattr(stats, field_name)
        if value:
            registry.counter(f"{prefix}.{field_name}").inc(value)
    registry.counter(f"{prefix}.runs").inc()
    registry.histogram(f"{prefix}.elapsed_seconds").observe(stats.elapsed_seconds)
    for feature_name, count in stats.computations_by_feature.items():
        registry.counter(f"{prefix}.computations.{feature_name}").inc(count)


def record_batch_result(
    registry: MetricsRegistry, result, prefix: str = "stream"
) -> None:
    """Fold one streaming :class:`~repro.streaming.session.BatchResult`."""
    record_match_stats(registry, result.stats, prefix=prefix)
    registry.counter(f"{prefix}.batches").inc()
    registry.counter(f"{prefix}.affected_pairs").inc(result.affected)
    registry.gauge(f"{prefix}.match_count").set(result.match_count)
