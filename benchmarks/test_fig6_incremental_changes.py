"""Figure 6 — incremental EM runtime per change type.

Paper's protocol: for each change type, randomly select ~100 instances,
materialize the pre-change matching state, apply the change, measure the
incremental re-matching time.  Its finding: strictening edits (add
predicate, tighten threshold, remove rule — wait, remove rule is a
loosening of the *result* but costs like strictening: only M(r) pairs)
take ≈ a few ms, while loosening edits (remove predicate, relax
threshold, add rule) cost more (tens of ms) because new feature values
may have to be computed for a fraction of pairs.

Tighten/relax deltas are drawn from {0.1, ..., 0.5} exactly as §7.6
describes (clamped to keep thresholds in [0, 1]).

Shape assertions: every change type's mean is orders of magnitude below a
full run; the loosening class is slower than the strictening class.
"""

import random

import pytest

from repro.core import DynamicMemoMatcher, MatchState, apply_change

from conftest import print_series, random_change

_PAIRS = 1200
_EDITS_PER_TYPE = 30
_RESULTS = {}
_FULL_RUN = {}

CHANGE_TYPES = [
    "add_predicate",
    "tighten",
    "remove_rule",
    "remove_predicate",
    "relax",
    "add_rule",
]


@pytest.mark.parametrize("kind", CHANGE_TYPES)
def test_fig6_change_type(benchmark, products_workload, bench_candidates, kind):
    candidates = bench_candidates.subset(range(_PAIRS))
    function = products_workload.function.subset(
        [rule.name for rule in products_workload.function.rules[:80]]
    )
    state, initial = MatchState.from_initial_run(
        function, candidates, check_cache_first=True
    )
    _FULL_RUN["seconds"] = initial.stats.elapsed_seconds
    rng = random.Random(17)

    def run_edits():
        total = 0.0
        applied = 0
        attempts = 0
        while applied < _EDITS_PER_TYPE and attempts < _EDITS_PER_TYPE * 20:
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
        return total / applied if applied else float("nan")

    mean_seconds = benchmark.pedantic(run_edits, rounds=1, iterations=1)
    _RESULTS[kind] = mean_seconds
    # Incremental state must still be exact after the edit storm.
    scratch = DynamicMemoMatcher().run(state.function, candidates)
    state.validate_against(scratch.labels)


def test_fig6_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    paper_ms = {
        "add_predicate": 2.5, "tighten": 3.3, "remove_rule": 6.0,
        "remove_predicate": 20.0, "relax": 34.0, "add_rule": 30.0,
    }
    rows = [
        [
            kind,
            f"~{paper_ms[kind]:.0f}ms",
            f"{_RESULTS.get(kind, float('nan')) * 1000:.2f}ms",
        ]
        for kind in CHANGE_TYPES
    ]
    print_series(
        f"Figure 6: mean incremental runtime per change type "
        f"({_EDITS_PER_TYPE} random edits each, {_PAIRS} pairs; "
        f"full run = {_FULL_RUN.get('seconds', 0):.2f}s)",
        ["change", "paper(291k pairs)", "measured"],
        rows,
    )
    if len(_RESULTS) == len(CHANGE_TYPES) and "seconds" in _FULL_RUN:
        full = _FULL_RUN["seconds"]
        for kind, mean in _RESULTS.items():
            assert mean < full / 5, f"{kind} not interactive vs full run"
        strictening = (_RESULTS["add_predicate"] + _RESULTS["tighten"]) / 2
        loosening = (_RESULTS["relax"] + _RESULTS["add_rule"]) / 2
        assert loosening > strictening
