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
from typing import List

import pytest

from repro.core import CostEstimator, MatchingFunction
from repro.learning import Workload, build_workload
from repro.reporting import random_change  # noqa: F401 (re-exported to the benches)

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
