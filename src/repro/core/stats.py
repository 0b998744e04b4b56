"""Instrumentation counters for matching runs.

The paper's headline observation (§1, citing Benjelloun et al.) is that
*similarity computations dominate matching time*.  Wall-clock comparisons
are therefore noisy proxies for what the algorithms actually change: how
many features get computed versus looked up.  Every matcher fills in a
:class:`MatchStats`, and the test suite asserts on these counters — they
are deterministic on any host, unlike time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class MatchStats:
    """Counters for one matching (or incremental re-matching) run."""

    #: similarity values computed from scratch (the expensive operation)
    feature_computations: int = 0
    #: similarity values served from the memo (cost δ)
    memo_hits: int = 0
    #: predicate comparisons performed
    predicate_evaluations: int = 0
    #: predicates decided from cheap size bounds without computing the
    #: feature (kernel layer; disjoint from predicate_evaluations)
    bound_skips: int = 0
    #: rules whose evaluation was started
    rule_evaluations: int = 0
    #: candidate pairs examined
    pairs_evaluated: int = 0
    #: pairs labeled as matches
    pairs_matched: int = 0
    #: wall-clock seconds of the run (0 until the matcher stamps it)
    elapsed_seconds: float = 0.0
    #: record-level deltas applied (streaming runs only)
    deltas_applied: int = 0
    #: candidate pairs gained from blocking under data deltas
    pairs_gained: int = 0
    #: candidate pairs lost from blocking under data deltas
    pairs_lost: int = 0
    #: surviving pairs whose memo rows were evicted by a record update
    pairs_invalidated: int = 0
    #: per-feature computation counts (feature name -> count)
    computations_by_feature: Counter = field(default_factory=Counter)

    def record_computation(self, feature_name: str) -> None:
        self.feature_computations += 1
        self.computations_by_feature[feature_name] += 1

    def record_hit(self) -> None:
        self.memo_hits += 1

    @property
    def feature_accesses(self) -> int:
        """Total feature reads (computations + memo hits)."""
        return self.feature_computations + self.memo_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of feature reads served by the memo."""
        accesses = self.feature_accesses
        return self.memo_hits / accesses if accesses else 0.0

    def cost_units(self, feature_costs: Dict[str, float], lookup_cost: float) -> float:
        """Model-cost of this run given per-feature costs and δ.

        This is the bridge between measured runs and the §4.4 cost model:
        plugging the estimator's costs into the observed counters yields
        the "actual" curve of Figure 5A in model units.
        """
        computed = sum(
            feature_costs.get(name, 0.0) * count
            for name, count in self.computations_by_feature.items()
        )
        return computed + self.memo_hits * lookup_cost

    def merged_with(self, other: "MatchStats") -> "MatchStats":
        """Sum of two *sequential* stats objects (session/batch history).

        Everything adds, wall-clock included: the runs happened one after
        another, so their clocks accumulate.
        """
        merged = MatchStats(
            feature_computations=self.feature_computations + other.feature_computations,
            memo_hits=self.memo_hits + other.memo_hits,
            predicate_evaluations=self.predicate_evaluations + other.predicate_evaluations,
            bound_skips=self.bound_skips + other.bound_skips,
            rule_evaluations=self.rule_evaluations + other.rule_evaluations,
            pairs_evaluated=self.pairs_evaluated + other.pairs_evaluated,
            pairs_matched=self.pairs_matched + other.pairs_matched,
            elapsed_seconds=self.elapsed_seconds + other.elapsed_seconds,
            deltas_applied=self.deltas_applied + other.deltas_applied,
            pairs_gained=self.pairs_gained + other.pairs_gained,
            pairs_lost=self.pairs_lost + other.pairs_lost,
            pairs_invalidated=self.pairs_invalidated + other.pairs_invalidated,
        )
        merged.computations_by_feature = (
            self.computations_by_feature + other.computations_by_feature
        )
        return merged

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"pairs={self.pairs_evaluated} matched={self.pairs_matched} "
            f"computed={self.feature_computations} hits={self.memo_hits} "
            f"preds={self.predicate_evaluations} "
            f"time={self.elapsed_seconds * 1000:.1f}ms"
        )

    def delta_summary(self) -> str:
        """One-line digest of a streaming batch application."""
        return (
            f"deltas={self.deltas_applied} +pairs={self.pairs_gained} "
            f"-pairs={self.pairs_lost} invalidated={self.pairs_invalidated} "
            f"rematched={self.pairs_evaluated} matched={self.pairs_matched} "
            f"computed={self.feature_computations} hits={self.memo_hits} "
            f"time={self.elapsed_seconds * 1000:.2f}ms"
        )
