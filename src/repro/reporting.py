"""Programmatic experiment runners — regenerate the paper's figures as data.

The benchmark suite (``benchmarks/``) wraps these runners in
pytest-benchmark plumbing and shape assertions.  This module is the
library face of the same experiments: call a runner, get a
:class:`Series` of (x, y, …) rows, write it to CSV, plot it with whatever
you like.  ``examples/reproduce_figures.py`` drives all of them.

Each runner takes a :class:`~repro.learning.workload.Workload` (so callers
control scale and seed) and returns deterministic rows given a seed.
"""

from __future__ import annotations

import csv
import gc
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .core import (
    AddPredicate,
    AddRule,
    Change,
    CostEstimator,
    DebugSession,
    DynamicMemoMatcher,
    EarlyExitMatcher,
    MatchingFunction,
    MatchState,
    PrecomputeMatcher,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    Rule,
    RudimentaryMatcher,
    TightenPredicate,
    apply_change,
    greedy_cost_ordering,
    greedy_reduction_ordering,
    predicted_runtime,
    random_ordering,
)
from .learning.workload import Workload


@dataclass
class Series:
    """One experiment's tabular result."""

    name: str
    header: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add(self, *values: object) -> None:
        if len(values) != len(self.header):
            raise ValueError(
                f"row width {len(values)} != header width {len(self.header)}"
            )
        self.rows.append(list(values))

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.header)
            writer.writerows(self.rows)
        return path

    def render(self) -> str:
        widths = [
            max(len(str(self.header[i])), *(len(str(r[i])) for r in self.rows))
            if self.rows
            else len(str(self.header[i]))
            for i in range(len(self.header))
        ]
        lines = [
            "  ".join(str(h).ljust(w) for h, w in zip(self.header, widths))
        ]
        for row in self.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def column(self, name: str) -> List[object]:
        index = self.header.index(name)
        return [row[index] for row in self.rows]


def _rule_subset(
    function: MatchingFunction, size: int, seed: int
) -> MatchingFunction:
    rng = random.Random(seed)
    names = [rule.name for rule in function.rules]
    return function.subset(rng.sample(names, min(size, len(names))))


def _matcher_for(strategy: str, workload: Workload):
    if strategy == "R":
        return RudimentaryMatcher()
    if strategy == "EE":
        return EarlyExitMatcher()
    if strategy == "PPR+EE":
        return PrecomputeMatcher()
    if strategy == "FPR+EE":
        return PrecomputeMatcher(features=list(workload.space))
    if strategy == "DM+EE":
        return DynamicMemoMatcher()
    raise ValueError(f"unknown strategy {strategy!r}")


def run_strategy_sweep(
    workload: Workload,
    rule_counts: Sequence[int] = (5, 10, 20, 40),
    strategies: Sequence[str] = ("R", "EE", "PPR+EE", "FPR+EE", "DM+EE"),
    pair_budget: int = 1000,
    draws: int = 2,
) -> Series:
    """Figure 3A/3B: seconds per (strategy, rule count) point."""
    candidates = workload.candidates.subset(
        range(min(pair_budget, len(workload.candidates)))
    )
    series = Series(
        "fig3_strategies",
        ["strategy", "rules", "seconds", "computed", "lookups"],
    )
    for strategy in strategies:
        for count in rule_counts:
            seconds = 0.0
            computed = 0
            lookups = 0
            for draw in range(draws):
                function = _rule_subset(workload.function, count, seed=draw)
                result = _matcher_for(strategy, workload).run(function, candidates)
                seconds += result.stats.elapsed_seconds
                computed += result.stats.feature_computations
                lookups += result.stats.memo_hits
            series.add(
                strategy,
                count,
                round(seconds / draws, 4),
                computed // draws,
                lookups // draws,
            )
    return series


def run_ordering_sweep(
    workload: Workload,
    rule_counts: Sequence[int] = (20, 60, 120),
    pair_budget: int = 1200,
    sample_fraction: float = 0.01,
    seed: int = 3,
) -> Series:
    """Figure 3C: DM+EE seconds under random / Algorithm 5 / Algorithm 6."""
    candidates = workload.candidates.subset(
        range(min(pair_budget, len(workload.candidates)))
    )
    series = Series("fig3c_ordering", ["ordering", "rules", "seconds"])
    for count in rule_counts:
        function = _rule_subset(workload.function, count, seed=seed)
        estimator = CostEstimator(
            sample_fraction=sample_fraction, min_sample=50, seed=seed
        )
        estimates = estimator.estimate(function, candidates)
        orderings = {
            "random": random_ordering(function, seed),
            "algorithm5": greedy_cost_ordering(function, estimates),
            "algorithm6": greedy_reduction_ordering(function, estimates),
        }
        for name, ordered in orderings.items():
            result = DynamicMemoMatcher().run(ordered, candidates)
            series.add(name, count, round(result.stats.elapsed_seconds, 4))
    return series


def run_cost_model_sweep(
    workload: Workload,
    rule_counts: Sequence[int] = (20, 60, 120),
    pair_budget: int = 1200,
    seed: int = 3,
) -> Series:
    """Figure 5A: predicted vs actual for random and Algorithm 6 orders."""
    candidates = workload.candidates.subset(
        range(min(pair_budget, len(workload.candidates)))
    )
    series = Series(
        "fig5a_cost_model",
        ["ordering", "rules", "predicted_s", "actual_s", "counters_model_s"],
    )
    for count in rule_counts:
        function = _rule_subset(workload.function, count, seed=seed)
        estimator = CostEstimator(sample_fraction=0.01, min_sample=50, seed=seed)
        estimates = estimator.estimate(function, candidates)
        for name, ordered in (
            ("random", random_ordering(function, seed)),
            ("algorithm6", greedy_reduction_ordering(function, estimates)),
        ):
            predicted = predicted_runtime(ordered, candidates, estimates)
            result = DynamicMemoMatcher().run(ordered, candidates)
            model_units = result.stats.cost_units(
                estimates.feature_costs, estimates.lookup_cost
            )
            series.add(
                name,
                count,
                round(predicted, 4),
                round(result.stats.elapsed_seconds, 4),
                round(model_units, 4),
            )
    return series


def run_pair_scaling(
    workload: Workload,
    pair_counts: Sequence[int] = (250, 500, 1000, 2000),
) -> Series:
    """Figure 5B: DM+EE seconds vs candidate-pair count."""
    series = Series("fig5b_scaling", ["pairs", "seconds", "per_pair_ms"])
    for count in pair_counts:
        candidates = workload.candidates.subset(
            range(min(count, len(workload.candidates)))
        )
        result = DynamicMemoMatcher().run(workload.function, candidates)
        series.add(
            len(candidates),
            round(result.stats.elapsed_seconds, 4),
            round(result.stats.elapsed_seconds / len(candidates) * 1000, 4),
        )
    return series


def run_add_rule_sweep(
    workload: Workload,
    n_rules: int = 30,
    pair_budget: int = 1000,
) -> Series:
    """Figure 5C: per-iteration cost of the add-rule sweep, both variants."""
    candidates = workload.candidates.subset(
        range(min(pair_budget, len(workload.candidates)))
    )
    rules = list(workload.function.rules[:n_rules])
    series = Series(
        "fig5c_add_rule", ["iteration", "incremental_ms", "rerun_ms"]
    )

    def sweep(mode: str) -> List[float]:
        session = DebugSession(
            candidates,
            MatchingFunction(rules[:1]),
            ordering="original",
            check_cache_first=True,
        )
        # Settle the cyclic collector before each timed step, so a step
        # pays for its own garbage and not for a collection that earlier
        # steps' allocations set off.
        gc.collect()
        initial = session.run()
        times = [initial.stats.elapsed_seconds]
        for rule in rules[1:]:
            if mode == "incremental":
                gc.collect()
                times.append(session.apply(AddRule(rule)).elapsed_seconds)
            else:
                session.state.function = session.state.function.with_rule_added(rule)
                gc.collect()
                times.append(session.rerun_full().stats.elapsed_seconds)
        return times

    incremental = sweep("incremental")
    rerun = sweep("rerun")
    for index, (a, b) in enumerate(zip(incremental, rerun), start=1):
        series.add(index, round(a * 1000, 3), round(b * 1000, 3))
    return series


def random_change(
    kind: str, rules: Sequence[Rule], rng: random.Random
) -> Optional[Change]:
    """One random edit of ``kind`` by the paper's §7.6 protocol, drawn
    from ``rules`` by position, or ``None`` when the draw does not apply.

    Tighten/relax move a threshold by one of {0.1, ..., 0.5}, clamped to
    keep it in [0, 1]; add-predicate borrows a donor rule's predicate on a
    free slot (the paper removes a predicate, re-matches, and adds it
    back); add-rule is a renamed copy of a donor rule.  Callers still
    validate the change against their function.
    """
    rule = rules[rng.randrange(len(rules))]
    predicate = rule.predicates[rng.randrange(len(rule.predicates))]
    lower_bound = predicate.op in (">=", ">")
    delta = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5])
    if kind == "tighten":
        threshold = (
            min(1.0, predicate.threshold + delta)
            if lower_bound
            else max(0.0, predicate.threshold - delta)
        )
        return TightenPredicate(rule.name, predicate.slot, threshold)
    if kind == "relax":
        threshold = (
            max(-0.001, predicate.threshold - delta)
            if lower_bound
            else min(1.001, predicate.threshold + delta)
        )
        return RelaxPredicate(rule.name, predicate.slot, threshold)
    if kind == "remove_predicate":
        if len(rule.predicates) < 2:
            return None
        return RemovePredicate(rule.name, predicate.slot)
    if kind == "add_predicate":
        donor = rules[rng.randrange(len(rules))]
        candidate = donor.predicates[rng.randrange(len(donor.predicates))]
        if candidate.slot in {p.slot for p in rule.predicates}:
            return None
        return AddPredicate(rule.name, candidate)
    if kind == "remove_rule":
        if len(rules) < 2:
            return None
        return RemoveRule(rule.name)
    if kind == "add_rule":
        donor = rules[rng.randrange(len(rules))]
        return AddRule(type(donor)(f"new_{rng.randrange(10**9)}", donor.predicates))
    raise ValueError(kind)


def run_change_type_study(
    workload: Workload,
    edits_per_type: int = 20,
    pair_budget: int = 1000,
    seed: int = 17,
) -> Series:
    """Figure 6: mean incremental ms per change type (random valid edits)."""
    candidates = workload.candidates.subset(
        range(min(pair_budget, len(workload.candidates)))
    )
    state, _ = MatchState.from_initial_run(
        workload.function, candidates, check_cache_first=True
    )
    rng = random.Random(seed)

    series = Series(
        "fig6_change_types", ["change", "mean_ms", "edits_applied"]
    )
    for kind in (
        "add_predicate", "tighten", "remove_rule",
        "remove_predicate", "relax", "add_rule",
    ):
        total = 0.0
        applied = 0
        attempts = 0
        while applied < edits_per_type and attempts < edits_per_type * 20:
            attempts += 1
            change = random_change(kind, state.function.rules, rng)
            if change is None:
                continue
            try:
                change.validate(state.function)
            except Exception:
                continue
            outcome = apply_change(state, change)
            total += outcome.elapsed_seconds
            applied += 1
        mean_ms = total / applied * 1000 if applied else float("nan")
        series.add(kind, round(mean_ms, 4), applied)
    return series


def write_all(
    workload: Workload, directory: str | Path, runners: Optional[Dict[str, Callable]] = None
) -> Dict[str, Path]:
    """Run every figure runner and write one CSV per figure."""
    directory = Path(directory)
    runners = runners or {
        "fig3_strategies": lambda: run_strategy_sweep(workload),
        "fig3c_ordering": lambda: run_ordering_sweep(workload),
        "fig5a_cost_model": lambda: run_cost_model_sweep(workload),
        "fig5b_scaling": lambda: run_pair_scaling(workload),
        "fig5c_add_rule": lambda: run_add_rule_sweep(workload),
        "fig6_change_types": lambda: run_change_type_study(workload),
    }
    written: Dict[str, Path] = {}
    for name, runner in runners.items():
        series = runner()
        written[name] = series.to_csv(directory / f"{name}.csv")
    return written
