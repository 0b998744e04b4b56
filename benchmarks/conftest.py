"""Shared fixtures for the benchmark suite.

One products workload (the paper's primary dataset) is built once per
session at a size where every figure's *shape* is reproducible in minutes
of pure Python: a few thousand candidate pairs and up to ~150-250 learned
rules.  The paper's absolute numbers came from a Java implementation on
291k pairs; we report our own absolute numbers next to the paper's
qualitative claims (see EXPERIMENTS.md) and verify shapes, not constants.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
per-figure comparison tables printed by each module.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

import pytest

from repro.core import (
    AddPredicate,
    AddRule,
    Change,
    CostEstimator,
    MatchingFunction,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    Rule,
    TightenPredicate,
)
from repro.learning import Workload, build_workload

#: candidate-pair budget for timing sweeps (keeps one full DM run ~1s).
BENCH_PAIRS = 2500


@pytest.fixture(scope="session")
def products_workload() -> Workload:
    """The paper's products workload at bench scale (~200 rules)."""
    return build_workload(
        "products", seed=7, n_trees=96, max_depth=9, max_rules=255
    )


@pytest.fixture(scope="session")
def bench_candidates(products_workload):
    """A fixed slice of the products candidate set for timing runs."""
    size = min(BENCH_PAIRS, len(products_workload.candidates))
    return products_workload.candidates.subset(range(size))


@pytest.fixture(scope="session")
def measured_estimates(products_workload, bench_candidates):
    """Measured (wall-clock) cost/selectivity estimates on a 1% sample."""
    estimator = CostEstimator(sample_fraction=0.01, min_sample=60, seed=3)
    return estimator.estimate(products_workload.function, bench_candidates)


def rule_subset(
    function: MatchingFunction, size: int, seed: int
) -> MatchingFunction:
    """A random ``size``-rule subset, as in the paper's Figure 3 sweeps
    ("to generate the data point corresponding to 20 rules, we randomly
    selected 20 rules")."""
    rng = random.Random(seed)
    names = [rule.name for rule in function.rules]
    chosen = rng.sample(names, min(size, len(names)))
    return function.subset(chosen)


def random_change(
    kind: str, rules: Sequence[Rule], rng: random.Random
) -> Optional[Change]:
    """One random edit of ``kind`` by the paper's §7.6 protocol, drawn
    from ``rules`` by position, or ``None`` when the draw does not apply.

    Tighten/relax move a threshold by one of {0.1, ..., 0.5}, clamped to
    keep it in [0, 1]; add-predicate borrows a donor rule's predicate on a
    free slot; add-rule is a renamed copy of a donor rule.  Callers still
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
        # Re-add a predicate borrowed from another rule, as the paper does
        # (remove it, rematch, add it back — here we just add a foreign
        # predicate whose slot is free).
        donor = rules[rng.randrange(len(rules))]
        candidate = donor.predicates[rng.randrange(len(donor.predicates))]
        taken = {p.slot for p in rule.predicates}
        if candidate.slot in taken:
            return None
        return AddPredicate(rule.name, candidate)
    if kind == "remove_rule":
        if len(rules) < 2:
            return None
        return RemoveRule(rule.name)
    if kind == "add_rule":
        donor = rules[rng.randrange(len(rules))]
        clone = donor.with_predicates(donor.predicates)
        renamed = type(clone)(f"new_{rng.randrange(10**9)}", clone.predicates)
        return AddRule(renamed)
    raise AssertionError(kind)


def print_series(title: str, header: List[str], rows: List[List[object]]) -> None:
    """Render one paper-figure comparison table to stdout (visible with -s)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
