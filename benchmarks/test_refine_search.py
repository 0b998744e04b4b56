"""Extension bench: throughput of the automated refinement search.

``repro.refine`` closes the paper's debugging loop: instead of a human
choosing the next rule edit, a beam search enumerates candidate edits and
scores each one *through the incremental engine* (§6 algorithms) against
gold labels.  For the search to belong in the interactive loop the
scoring inner loop must amortize like a human-driven edit does — this
bench pins a floor of 100 candidate edits scored per second on the
products workload with deliberately broken rules, checks that the search
actually repairs them (the frontier strictly improves F1 over the seeded
bugs), and asserts the zero-full-rematch invariant that makes the whole
thing fast.  Results land in ``benchmarks/BENCH_refine_search.json`` for
the CI history.

The same search also runs on the columnar engine over a kernel-backed
state, as a session runs it, twice per interleaved pair: once as shipped
(few-row calls per pair) and once with ``PAIR_ROWS`` pinned to 0 (every
call columnar).  The two must report identically, and the per-pair rate
must beat the all-columnar one by a floor set well below the measured
ratio — a ratio, so that it holds on any host.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.core import MatchingFunction, MatchState, Rule
from repro.engine import executor
from repro.kernels import FeatureKernels
from repro.refine import RefineConfig, RefinementSearch

from conftest import print_series, rule_subset

#: floor asserted by this bench (candidate edits scored per second).
MIN_CANDIDATES_PER_SECOND = 100.0
#: floor on per-pair ÷ all-columnar candidates/s of the columnar search
#: (median over pairs of back-to-back runs; read 1.31-1.49 on a 2-vCPU VM).
MIN_PAIR_ROWS_SPEEDUP = 1.1
#: interleaved (per-pair, all-columnar) search pairs behind the medians.
RATIO_PAIRS = 11

BENCH_RULES = 40
BENCH_PAIRS = 1200


def seed_bugs(function: MatchingFunction) -> MatchingFunction:
    """Deterministically break a learned function: over-tighten some
    thresholds (manufacturing false negatives the relax/drop generators
    can recover) and over-relax others (false positives for the tighten
    generator) — the two failure modes §7's debugging loop exists for."""
    broken = []
    for index, rule in enumerate(function.rules):
        predicates = list(rule.predicates)
        victim = predicates[0]
        lower_bound = victim.op in (">=", ">")
        if index % 3 == 0:
            threshold = 0.98 if lower_bound else 0.02
        elif index % 3 == 1:
            threshold = 0.05 if lower_bound else 0.95
        else:
            broken.append(rule)
            continue
        predicates[0] = victim.with_threshold(threshold)
        broken.append(Rule(rule.name, predicates))
    return MatchingFunction(broken)


@pytest.fixture(scope="module")
def buggy_state(products_workload, bench_candidates):
    candidates = bench_candidates.subset(range(BENCH_PAIRS))
    function = seed_bugs(
        rule_subset(products_workload.function, BENCH_RULES, seed=5)
    )
    state, _ = MatchState.from_initial_run(function, candidates)
    return state, products_workload.gold


@pytest.fixture(scope="module")
def columnar_state(buggy_state):
    """The buggy function over the same pairs, materialized as a session
    does it: kernels with bounds, the columnar engine."""
    state, _ = buggy_state
    kernels = FeatureKernels(use_bounds=True)
    columnar, _ = MatchState.from_initial_run(
        state.function, state.candidates, kernels=kernels, engine="columnar"
    )
    return columnar, kernels


def columnar_search(state, gold, config, kernels, pair_rows=None):
    """One columnar search, ``PAIR_ROWS`` pinned when given; returns the
    report and its candidates per second."""
    with pytest.MonkeyPatch.context() as patch:
        if pair_rows is not None:
            patch.setattr(executor, "PAIR_ROWS", pair_rows)
        begin = time.perf_counter()
        report = RefinementSearch(
            state, gold, config=config, kernels=kernels, engine="columnar"
        ).run()
        wall = time.perf_counter() - begin
    return report, report.candidates_scored / wall


def report_key(report):
    """What two engines' searches must agree on."""
    return (
        [(candidate.describe(), candidate.objective) for candidate in report.frontier],
        report.candidates_scored,
        report.candidates_generated,
        report.full_rematches,
    )


def test_refine_search_throughput(benchmark, buggy_state, columnar_state):
    state, gold = buggy_state
    config = RefineConfig(
        budget=400,
        beam_width=3,
        max_depth=2,
        max_candidates_per_round=64,
        seed=7,
    )
    holder = {}

    def run_search():
        begin = time.perf_counter()
        holder["report"] = RefinementSearch(state, gold, config=config).run()
        return time.perf_counter() - begin

    wall = benchmark.pedantic(run_search, rounds=1, iterations=1)
    report = holder["report"]
    per_second = report.candidates_scored / wall if wall else float("inf")

    # One search lasts ~0.1 s, so single runs swing with the host's speed:
    # each pair runs back to back (alternating which side goes first),
    # and the floor applies to the median of the pairs' ratios.
    columnar, kernels = columnar_state
    columnar_search(columnar, gold, config, kernels)  # fills the memo
    per_pair_rates, all_columnar_rates = [], []
    for index in range(RATIO_PAIRS):
        sides = [None, 0] if index % 2 == 0 else [0, None]
        runs = {
            pair_rows: columnar_search(columnar, gold, config, kernels, pair_rows)
            for pair_rows in sides
        }
        assert report_key(runs[None][0]) == report_key(runs[0][0])
        per_pair_rates.append(runs[None][1])
        all_columnar_rates.append(runs[0][1])
    per_pair_rate = statistics.median(per_pair_rates)
    all_columnar_rate = statistics.median(all_columnar_rates)
    pair_rows_speedup = statistics.median(
        fast / slow for fast, slow in zip(per_pair_rates, all_columnar_rates)
    )

    print_series(
        f"Refinement search ({BENCH_PAIRS} pairs, {BENCH_RULES} buggy rules)",
        ["metric", "value"],
        [
            ["candidates generated", report.candidates_generated],
            ["candidates scored", report.candidates_scored],
            ["incremental evals", report.incremental_evals],
            ["full re-matches", report.full_rematches],
            ["rounds", report.rounds],
            ["wall time", f"{wall:.2f}s"],
            ["throughput", f"{per_second:.0f} candidates/s"],
            ["columnar, few rows per pair", f"{per_pair_rate:.0f} candidates/s"],
            ["columnar, PAIR_ROWS=0", f"{all_columnar_rate:.0f} candidates/s"],
            ["per-pair speedup", f"{pair_rows_speedup:.2f}x"],
            ["baseline F1", f"{report.baseline.f1:.3f}"],
            ["best F1", f"{report.best.f1:.3f}"],
            ["frontier size", len(report.frontier)],
        ],
    )
    payload = {
        "pairs": BENCH_PAIRS,
        "rules": BENCH_RULES,
        "candidates_generated": report.candidates_generated,
        "candidates_scored": report.candidates_scored,
        "incremental_evals": report.incremental_evals,
        "full_rematches": report.full_rematches,
        "rounds": report.rounds,
        "wall_seconds": wall,
        "candidates_per_second": per_second,
        "columnar_pair_rows": executor.PAIR_ROWS,
        "columnar_per_pair_candidates_per_second": per_pair_rate,
        "columnar_all_columnar_candidates_per_second": all_columnar_rate,
        "pair_rows_speedup": pair_rows_speedup,
        "baseline_f1": report.baseline.f1,
        "best_f1": report.best.f1,
        "frontier_size": len(report.frontier),
    }
    out_path = Path(__file__).resolve().parent / "BENCH_refine_search.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    # The three acceptance bars, in one place:
    # 1. interactive throughput — scoring rides the incremental engine;
    assert per_second >= MIN_CANDIDATES_PER_SECOND, (
        f"scored {per_second:.0f} candidates/s; "
        f"floor is {MIN_CANDIDATES_PER_SECOND:.0f}"
    )
    # 2. the search repairs the seeded bugs, not just enumerates edits;
    assert report.improves_f1()
    assert report.best.f1 > report.baseline.f1
    # 3. no candidate was ever scored by a from-scratch re-match.
    assert report.full_rematches == 0
    assert report.incremental_evals >= report.candidates_scored
    # 4. few-row calls per pair pay on the columnar engine (identical
    #    reports asserted per pair of runs above).
    assert pair_rows_speedup >= MIN_PAIR_ROWS_SPEEDUP, (
        f"per-pair {per_pair_rate:.0f} vs all-columnar "
        f"{all_columnar_rate:.0f} candidates/s ({pair_rows_speedup:.2f}x); "
        f"floor is {MIN_PAIR_ROWS_SPEEDUP:.2f}x"
    )
