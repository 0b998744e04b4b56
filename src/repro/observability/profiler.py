"""Profiling hooks: observed per-feature / per-rule costs and selectivities.

The cost model (§4.4) plans with *estimated* per-feature costs and
predicate selectivities from a 1 % sample; the profiler measures what a
run actually *observed*, with bounded overhead:

* **feature costs** — ``feature.compute`` wall-clock, sampled: the first
  computation of each feature is always timed, then one of every
  ``sample_every`` (deterministic modular sampling, so tests are stable
  and two runs of the same workload sample the same computations);
* **rule costs** — full ``rule_true`` wall-clock, sampled the same way;
* **predicate selectivities** — exact true/evaluated counts per predicate
  pid (two dict increments per evaluation — cheap enough to always count
  while profiling is on).

When no profiler is attached the hot path pays a single ``is None`` check
(see :class:`~repro.core.matchers.PairEvaluator`), and the
:class:`~repro.core.stats.MatchStats` counters are never touched either
way — profiling observes, it does not participate.

Snapshots are plain dicts (the service serves them, and
:meth:`Profiler.from_snapshot` rebuilds a profiler from one);
:func:`repro.observability.drift.detect_drift` consumes either form.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Union

from .metrics import Histogram

#: Sample one of every this-many computations per feature by default.
DEFAULT_SAMPLE_EVERY = 64

#: Finer default bounds for per-computation costs (seconds).
COST_BUCKETS = (
    1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2, float("inf")
)


class Profiler:
    """Collects observed-cost histograms and predicate outcome counts."""

    __slots__ = (
        "sample_every",
        "clock",
        "feature_counts",
        "rule_counts",
        "feature_costs",
        "rule_costs",
        "predicate_evals",
        "predicate_trues",
        "bound_skips",
    )

    def __init__(
        self,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        clock=time.perf_counter,
    ):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.clock = clock
        #: total computations seen per feature (sampled or not).
        self.feature_counts: Dict[str, int] = {}
        self.rule_counts: Dict[str, int] = {}
        self.feature_costs: Dict[str, Histogram] = {}
        self.rule_costs: Dict[str, Histogram] = {}
        self.predicate_evals: Dict[str, int] = {}
        self.predicate_trues: Dict[str, int] = {}
        #: decisions reached via a cheap similarity bound instead of a
        #: feature computation (kernels with ``use_bounds``).  The decision
        #: itself is *also* counted in predicate_evals/predicate_trues so
        #: observed selectivities stay comparable with bounds off.
        self.bound_skips: Dict[str, int] = {}

    # ------------------------------------------------------------ sampling

    def sample_feature(self, name: str) -> bool:
        """Count one computation of ``name``; True when it should be timed."""
        seen = self.feature_counts.get(name, 0)
        self.feature_counts[name] = seen + 1
        return seen % self.sample_every == 0

    def sample_rule(self, name: str) -> bool:
        seen = self.rule_counts.get(name, 0)
        self.rule_counts[name] = seen + 1
        return seen % self.sample_every == 0

    # ----------------------------------------------- batched sampling
    #
    # The columnar engine sees N computations of a feature at once.  The
    # batched hooks advance the same modular-sampling counters by N and
    # report how many of those N positions the scalar path would have
    # timed — so sampled-observation *counts* are engine-independent
    # (only the observed durations differ: batch means vs. per-call).

    def _sampled_in(self, seen: int, count: int) -> int:
        """How many of positions [seen, seen+count) hit the sample grid."""
        if count <= 0:
            return 0
        every = self.sample_every
        first = seen if seen % every == 0 else seen + (every - seen % every)
        last = seen + count - 1
        if first > last:
            return 0
        return (last - first) // every + 1

    def count_features(self, name: str, count: int) -> int:
        """Count ``count`` computations of ``name``; sampled positions."""
        seen = self.feature_counts.get(name, 0)
        self.feature_counts[name] = seen + count
        return self._sampled_in(seen, count)

    def count_rules(self, name: str, count: int) -> int:
        seen = self.rule_counts.get(name, 0)
        self.rule_counts[name] = seen + count
        return self._sampled_in(seen, count)

    # ----------------------------------------------------------- recording

    def record_feature(self, name: str, seconds: float) -> None:
        histogram = self.feature_costs.get(name)
        if histogram is None:
            histogram = Histogram(name, bounds=COST_BUCKETS)
            self.feature_costs[name] = histogram
        histogram.observe(seconds)

    def record_rule(self, name: str, seconds: float) -> None:
        histogram = self.rule_costs.get(name)
        if histogram is None:
            histogram = Histogram(name, bounds=COST_BUCKETS)
            self.rule_costs[name] = histogram
        histogram.observe(seconds)

    def record_predicate(self, pid: str, outcome: bool) -> None:
        self.predicate_evals[pid] = self.predicate_evals.get(pid, 0) + 1
        if outcome:
            self.predicate_trues[pid] = self.predicate_trues.get(pid, 0) + 1

    def record_bound_skip(self, pid: str) -> None:
        """One predicate decision settled by a cheap bound (no compute)."""
        self.bound_skips[pid] = self.bound_skips.get(pid, 0) + 1

    # ------------------------------------------------ batched recording

    def _observe_bulk(self, histogram: Histogram, observations: int, seconds: float) -> None:
        for position, bound in enumerate(histogram.bounds):
            if seconds <= bound:
                histogram.bucket_counts[position] += observations
                break
        histogram.count += observations
        histogram.total += seconds * observations
        if seconds < histogram.min:
            histogram.min = seconds
        if seconds > histogram.max:
            histogram.max = seconds

    def record_feature_bulk(self, name: str, observations: int, seconds: float) -> None:
        """Record ``observations`` sampled computations at a mean duration."""
        if observations <= 0:
            return
        histogram = self.feature_costs.get(name)
        if histogram is None:
            histogram = Histogram(name, bounds=COST_BUCKETS)
            self.feature_costs[name] = histogram
        self._observe_bulk(histogram, observations, seconds)

    def record_rule_bulk(self, name: str, observations: int, seconds: float) -> None:
        if observations <= 0:
            return
        histogram = self.rule_costs.get(name)
        if histogram is None:
            histogram = Histogram(name, bounds=COST_BUCKETS)
            self.rule_costs[name] = histogram
        self._observe_bulk(histogram, observations, seconds)

    def record_predicate_bulk(self, pid: str, evals: int, trues: int) -> None:
        """Count a batch of predicate outcomes (``evals`` >= ``trues``)."""
        if evals <= 0:
            return
        self.predicate_evals[pid] = self.predicate_evals.get(pid, 0) + evals
        if trues:
            self.predicate_trues[pid] = self.predicate_trues.get(pid, 0) + trues

    def record_bound_skip_bulk(self, pid: str, count: int) -> None:
        if count <= 0:
            return
        self.bound_skips[pid] = self.bound_skips.get(pid, 0) + count

    # ------------------------------------------------------------- reading

    def observed_feature_cost(self, name: str) -> Optional[float]:
        """Mean sampled seconds per computation of ``name`` (None if unseen)."""
        histogram = self.feature_costs.get(name)
        if histogram is None or histogram.count == 0:
            return None
        return histogram.mean

    def observed_rule_cost(self, name: str) -> Optional[float]:
        histogram = self.rule_costs.get(name)
        if histogram is None or histogram.count == 0:
            return None
        return histogram.mean

    def observed_selectivity(self, pid: str) -> Optional[float]:
        """Observed fraction of true evaluations for predicate ``pid``.

        Caveat: under early exit this is the selectivity *conditioned on
        the predicate being reached*, which is exactly the quantity the
        grouped cost formulas consume.
        """
        evals = self.predicate_evals.get(pid, 0)
        if evals == 0:
            return None
        return self.predicate_trues.get(pid, 0) / evals

    # ------------------------------------------------- snapshot and merge

    def snapshot(self) -> dict:
        """Plain-dict state (see :meth:`from_snapshot`)."""
        return {
            "sample_every": self.sample_every,
            "feature_counts": dict(self.feature_counts),
            "rule_counts": dict(self.rule_counts),
            "feature_costs": {
                name: histogram.as_dict()
                for name, histogram in self.feature_costs.items()
            },
            "rule_costs": {
                name: histogram.as_dict()
                for name, histogram in self.rule_costs.items()
            },
            "predicate_evals": dict(self.predicate_evals),
            "predicate_trues": dict(self.predicate_trues),
            "bound_skips": dict(self.bound_skips),
        }

    def merge(self, other: Union["Profiler", dict]) -> "Profiler":
        """Fold another profiler (or a snapshot) into this one."""
        data = other.snapshot() if isinstance(other, Profiler) else other
        for name, count in data["feature_counts"].items():
            self.feature_counts[name] = self.feature_counts.get(name, 0) + count
        for name, count in data["rule_counts"].items():
            self.rule_counts[name] = self.rule_counts.get(name, 0) + count
        for store, incoming in (
            (self.feature_costs, data["feature_costs"]),
            (self.rule_costs, data["rule_costs"]),
        ):
            for name, histogram_data in incoming.items():
                histogram = store.get(name)
                if histogram is None:
                    histogram = Histogram(
                        name, bounds=tuple(histogram_data["bounds"])
                    )
                    store[name] = histogram
                for position, count in enumerate(histogram_data["buckets"]):
                    histogram.bucket_counts[position] += count
                histogram.count += histogram_data["count"]
                histogram.total += histogram_data["total"]
                if histogram_data["count"]:
                    histogram.min = min(histogram.min, histogram_data["min"])
                    histogram.max = max(histogram.max, histogram_data["max"])
        for name, count in data["predicate_evals"].items():
            self.predicate_evals[name] = self.predicate_evals.get(name, 0) + count
        for name, count in data["predicate_trues"].items():
            self.predicate_trues[name] = self.predicate_trues.get(name, 0) + count
        # .get: snapshots from older builds predate bound skipping.
        for name, count in data.get("bound_skips", {}).items():
            self.bound_skips[name] = self.bound_skips.get(name, 0) + count
        return self

    @classmethod
    def from_snapshot(cls, data: dict) -> "Profiler":
        profiler = cls(sample_every=data.get("sample_every", DEFAULT_SAMPLE_EVERY))
        return profiler.merge(data)

    # ------------------------------------------------------------- report

    def render(self) -> str:
        """Observed per-feature cost table, most expensive first."""
        if not self.feature_costs:
            return "no profiled computations yet"
        rows = sorted(
            (
                (histogram.mean, name, histogram.count,
                 self.feature_counts.get(name, 0))
                for name, histogram in self.feature_costs.items()
                if histogram.count
            ),
            reverse=True,
        )
        lines = ["feature                                   mean(us)  sampled  computed"]
        for mean, name, sampled, computed in rows:
            lines.append(
                f"{name:<42}{mean * 1e6:>8.2f}{sampled:>9}{computed:>10}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Profiler(1/{self.sample_every}, "
            f"{len(self.feature_costs)} features, "
            f"{len(self.predicate_evals)} predicates seen)"
        )
