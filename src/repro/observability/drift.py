"""Cost-model drift detection.

The §4.4 cost model plans rule/predicate order from *estimates* taken on
a 1 % sample before the first run.  Estimates go stale: data deltas shift
selectivities, cache pressure and input growth shift per-feature costs,
and an edited rule set reaches different predicates.  This module
compares what the :class:`~repro.observability.profiler.Profiler`
*observed* against the session's
:class:`~repro.core.cost_model.Estimates` and answers the question the
analyst actually has: **would re-estimating change the chosen order?**

:func:`detect_drift` flags

* features whose observed mean cost is off by more than
  ``cost_tolerance``× (either direction),
* predicates whose observed selectivity moved more than
  ``selectivity_tolerance`` in absolute terms, and
* whether re-running the session's ordering strategy with observed
  feature costs substituted into the estimates yields a different
  rule/predicate order (selectivities stay sample-based — they enter the
  patched estimates unchanged, so the order check isolates *cost* drift;
  selectivity drift is reported separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.cost_model import Estimates
from ..core.ordering import order_function
from ..core.rules import MatchingFunction
from .profiler import Profiler

#: flag a feature when observed/estimated cost ratio exceeds this (or its
#: inverse) — 2x either way by default.
DEFAULT_COST_TOLERANCE = 2.0
#: flag a predicate when |observed - estimated| selectivity exceeds this.
DEFAULT_SELECTIVITY_TOLERANCE = 0.15

#: (rule name, predicate slots in order) — the shape the order check compares.
OrderSignature = Tuple[Tuple[str, Tuple[str, ...]], ...]


@dataclass
class FeatureDrift:
    """Observed-vs-estimated cost of one feature."""

    name: str
    estimated_cost: float
    observed_cost: float
    samples: int
    drifted: bool

    @property
    def ratio(self) -> float:
        if self.estimated_cost <= 0.0:
            return float("inf") if self.observed_cost > 0.0 else 1.0
        return self.observed_cost / self.estimated_cost


@dataclass
class PredicateDrift:
    """Observed-vs-estimated selectivity of one predicate."""

    pid: str
    estimated_selectivity: float
    observed_selectivity: float
    evaluations: int
    drifted: bool

    @property
    def delta(self) -> float:
        return self.observed_selectivity - self.estimated_selectivity


@dataclass
class DriftReport:
    """Everything :func:`detect_drift` concluded, renderable for the CLI."""

    features: List[FeatureDrift] = field(default_factory=list)
    predicates: List[PredicateDrift] = field(default_factory=list)
    order_before: OrderSignature = ()
    order_after: OrderSignature = ()
    ordering_strategy: str = "algorithm6"
    cost_tolerance: float = DEFAULT_COST_TOLERANCE
    selectivity_tolerance: float = DEFAULT_SELECTIVITY_TOLERANCE

    @property
    def order_changed(self) -> bool:
        return self.order_before != self.order_after

    def drifted_features(self) -> List[FeatureDrift]:
        return [drift for drift in self.features if drift.drifted]

    def drifted_predicates(self) -> List[PredicateDrift]:
        return [drift for drift in self.predicates if drift.drifted]

    @property
    def any_drift(self) -> bool:
        return (
            bool(self.drifted_features())
            or bool(self.drifted_predicates())
            or self.order_changed
        )

    def render(self) -> str:
        lines: List[str] = []
        flagged = self.drifted_features()
        if flagged:
            lines.append(
                f"feature cost drift (>{self.cost_tolerance:g}x, "
                f"{len(flagged)}/{len(self.features)} observed features):"
            )
            for drift in sorted(flagged, key=lambda d: d.ratio, reverse=True):
                lines.append(
                    f"  {drift.name}: est {drift.estimated_cost * 1e6:.2f}us "
                    f"-> obs {drift.observed_cost * 1e6:.2f}us "
                    f"({drift.ratio:.1f}x, {drift.samples} samples)"
                )
        else:
            lines.append(
                f"feature costs: no drift beyond {self.cost_tolerance:g}x "
                f"({len(self.features)} observed features)"
            )
        flagged = self.drifted_predicates()
        if flagged:
            lines.append(
                f"predicate selectivity drift (>|{self.selectivity_tolerance:g}|, "
                f"{len(flagged)}/{len(self.predicates)} observed predicates):"
            )
            for drift in sorted(flagged, key=lambda d: abs(d.delta), reverse=True):
                lines.append(
                    f"  {drift.pid}: est {drift.estimated_selectivity:.3f} "
                    f"-> obs {drift.observed_selectivity:.3f} "
                    f"({drift.delta:+.3f}, {drift.evaluations} evals)"
                )
        else:
            lines.append(
                f"predicate selectivities: no drift beyond "
                f"{self.selectivity_tolerance:g} "
                f"({len(self.predicates)} observed predicates)"
            )
        if self.order_changed:
            before = " > ".join(name for name, _slots in self.order_before)
            after = " > ".join(name for name, _slots in self.order_after)
            lines.append(
                f"ordering ({self.ordering_strategy}): WOULD CHANGE under "
                f"observed costs"
            )
            lines.append(f"  current:      {before}")
            lines.append(f"  re-estimated: {after}")
            lines.append("  -> consider 'reorder' / DebugSession.reorder()")
        else:
            lines.append(
                f"ordering ({self.ordering_strategy}): stable — re-estimation "
                f"would keep the current rule/predicate order"
            )
        return "\n".join(lines)


def order_signature(function: MatchingFunction) -> OrderSignature:
    """Rule order plus within-rule predicate slot order, for comparison."""
    return tuple(
        (rule.name, tuple(predicate.slot for predicate in rule.predicates))
        for rule in function.rules
    )


def detect_drift(
    function: MatchingFunction,
    estimates: Estimates,
    profile: Union[Profiler, dict],
    ordering_strategy: str = "algorithm6",
    cost_tolerance: float = DEFAULT_COST_TOLERANCE,
    selectivity_tolerance: float = DEFAULT_SELECTIVITY_TOLERANCE,
) -> DriftReport:
    """Compare observed costs/selectivities to ``estimates``.

    ``profile`` is a :class:`Profiler` or one of its snapshots (e.g. one
    served by the service).  Only features/predicates the
    profiler actually observed are compared — unobserved ones cannot have
    drifted observably.  The ordering check re-runs ``ordering_strategy``
    with observed mean feature costs patched into the estimates and
    reports whether the resulting rule/predicate order differs from
    ordering the same function with the original estimates.
    """
    profiler = (
        profile if isinstance(profile, Profiler) else Profiler.from_snapshot(profile)
    )

    feature_drifts: List[FeatureDrift] = []
    observed_costs: Dict[str, float] = {}
    for feature in function.features():
        observed = profiler.observed_feature_cost(feature.name)
        if observed is None or not estimates.has_feature(feature):
            continue
        estimated = estimates.cost(feature)
        observed_costs[feature.name] = observed
        ratio = observed / estimated if estimated > 0.0 else float("inf")
        drifted = ratio > cost_tolerance or ratio < 1.0 / cost_tolerance
        feature_drifts.append(
            FeatureDrift(
                name=feature.name,
                estimated_cost=estimated,
                observed_cost=observed,
                samples=profiler.feature_costs[feature.name].count,
                drifted=drifted,
            )
        )

    predicate_drifts: List[PredicateDrift] = []
    for rule in function.rules:
        for predicate in rule.predicates:
            observed = profiler.observed_selectivity(predicate.pid)
            if observed is None:
                continue
            try:
                estimated = estimates.selectivity(predicate)
            except Exception:
                continue  # feature not in the sample — nothing to compare
            predicate_drifts.append(
                PredicateDrift(
                    pid=predicate.pid,
                    estimated_selectivity=estimated,
                    observed_selectivity=observed,
                    evaluations=profiler.predicate_evals[predicate.pid],
                    drifted=abs(observed - estimated) > selectivity_tolerance,
                )
            )

    before: OrderSignature = ()
    after: OrderSignature = ()
    if observed_costs and ordering_strategy not in ("original", "random"):
        patched = estimates.with_feature_costs(observed_costs)
        before = order_signature(
            order_function(function, estimates, ordering_strategy)
        )
        after = order_signature(
            order_function(function, patched, ordering_strategy)
        )

    return DriftReport(
        features=feature_drifts,
        predicates=predicate_drifts,
        order_before=before,
        order_after=after,
        ordering_strategy=ordering_strategy,
        cost_tolerance=cost_tolerance,
        selectivity_tolerance=selectivity_tolerance,
    )


# ---------------------------------------------------------------------------
# Continuous monitoring + refine warm-start hints
# ---------------------------------------------------------------------------


def focus_rules_for_report(
    function: MatchingFunction, report: DriftReport
) -> Tuple[str, ...]:
    """Rules touched by the report's drift, in function order.

    A rule is implicated when one of its predicates drifted in
    selectivity, or when it uses a feature whose cost drifted.  This is
    the bridge from "what moved" to "where refinement should look".
    """
    drifted_pids = {drift.pid for drift in report.drifted_predicates()}
    drifted_features = {drift.name for drift in report.drifted_features()}
    names: List[str] = []
    for rule in function.rules:
        implicated = any(
            predicate.pid in drifted_pids
            or predicate.feature.name in drifted_features
            for predicate in rule.predicates
        )
        if implicated:
            names.append(rule.name)
    return tuple(names)


class DriftMonitor:
    """Re-runs :func:`detect_drift` every ``every`` streaming ingests.

    Attached to an :class:`~repro.observability.Observability` (see
    ``Observability.attach_drift_monitor``) and poked by
    ``StreamingSession.ingest``.  Each check records its outcome into the
    session's metrics registry (``drift.checks`` / ``drift.alerts``
    counters, ``drift.features_drifted`` / ``drift.predicates_drifted`` /
    ``drift.order_changed`` gauges), keeps a bounded report history, and
    derives **refinement warm-start hints**: the set of rules implicated
    by the latest drift, consumable as ``RefineConfig.focus_rules`` so
    the search only generates edits targeting what actually moved.
    """

    def __init__(
        self,
        every: int = 5,
        cost_tolerance: float = DEFAULT_COST_TOLERANCE,
        selectivity_tolerance: float = DEFAULT_SELECTIVITY_TOLERANCE,
        history_limit: int = 32,
    ):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = int(every)
        self.cost_tolerance = cost_tolerance
        self.selectivity_tolerance = selectivity_tolerance
        self.history_limit = int(history_limit)
        self.ingests_seen = 0
        self.checks_run = 0
        self.checks_skipped = 0
        self.history: List[DriftReport] = []
        self.last_report: Optional[DriftReport] = None
        self._focus: Tuple[str, ...] = ()

    # ------------------------------------------------------------- hooks

    def after_ingest(self, streaming) -> Optional[DriftReport]:
        """Count one ingest; run a check when the cadence comes due."""
        self.ingests_seen += 1
        if self.ingests_seen % self.every:
            return None
        return self.check(streaming.session, streaming.observability)

    def check(self, session, observability) -> Optional[DriftReport]:
        """Run one drift check against ``session``'s live estimates.

        Returns ``None`` (and counts a skip) when the session has no
        estimates or no profiler — there is nothing to compare.
        """
        profiler = getattr(observability, "profiler", None) if observability else None
        estimates = getattr(session, "estimates", None)
        if profiler is None or estimates is None or not profiler.feature_costs:
            self.checks_skipped += 1
            return None
        report = detect_drift(
            session.function,
            estimates,
            profiler,
            ordering_strategy=getattr(session, "ordering_strategy", "algorithm6"),
            cost_tolerance=self.cost_tolerance,
            selectivity_tolerance=self.selectivity_tolerance,
        )
        self.checks_run += 1
        self.history.append(report)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]
        self.last_report = report
        self._focus = focus_rules_for_report(session.function, report)
        metrics = getattr(observability, "metrics", None)
        if metrics is not None:
            metrics.counter("drift.checks").inc()
            metrics.gauge("drift.features_drifted").set(
                len(report.drifted_features())
            )
            metrics.gauge("drift.predicates_drifted").set(
                len(report.drifted_predicates())
            )
            metrics.gauge("drift.order_changed").set(
                1.0 if report.order_changed else 0.0
            )
            if report.any_drift:
                metrics.counter("drift.alerts").inc()
        return report

    # ------------------------------------------------------------- hints

    def focus_rules(self) -> Tuple[str, ...]:
        """Rules implicated by the most recent check (may be empty)."""
        return self._focus

    def refine_hints(self) -> dict:
        """Warm-start kwargs for ``DebugSession.refine``.

        Empty when the latest check saw no drift (or no check ran) —
        callers can always splat the result: ``session.refine(**hints)``.
        """
        if self.last_report is None or not self.last_report.any_drift:
            return {}
        if not self._focus:
            return {}
        return {"focus_rules": self._focus}

    def describe(self) -> dict:
        """JSON-ready state for the service observability snapshot."""
        return {
            "every": self.every,
            "ingests_seen": self.ingests_seen,
            "checks_run": self.checks_run,
            "checks_skipped": self.checks_skipped,
            "history_length": len(self.history),
            "last_any_drift": (
                self.last_report.any_drift if self.last_report else None
            ),
            "focus_rules": list(self._focus),
            "refine_hints": {
                key: list(value) for key, value in self.refine_hints().items()
            },
        }
