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
state, as a session runs it, three times per interleaved round: as
shipped (few-row calls per pair, warm rules decided in one array pass),
with ``PAIR_ROWS`` pinned to 0 (every call columnar), and with the
per-pair path's decision pass patched out (``DECIDE_ROW_RULES`` pinned
above every call, so few-row calls walk every rule pair by pair).  All
three must report identically, and the shipped rate must beat each of
the other two by a floor set well below the measured ratio — ratios, so
that they hold on any host.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.core import MatchingFunction, MatchState, Rule
from repro.core import matchers
from repro.engine import executor
from repro.kernels import FeatureKernels
from repro.refine import RefineConfig, RefinementSearch

from conftest import print_series, rule_subset

#: floor asserted by this bench (candidate edits scored per second).
MIN_CANDIDATES_PER_SECOND = 100.0
#: floor on per-pair ÷ all-columnar candidates/s of the columnar search
#: (median over rounds of back-to-back runs; read 1.31-1.49 on a 2-vCPU
#: VM over 1,200 pairs and 40 rules, 1.40-1.55 on the columnar state).
MIN_PAIR_ROWS_SPEEDUP = 1.1
#: floor on shipped ÷ no-decision-pass candidates/s of the columnar
#: search (median over rounds; read 1.18-1.29 on a 2-vCPU VM).
MIN_DECISION_SPEEDUP = 1.05
#: interleaved (shipped, all-columnar, no-decision) search rounds
#: behind the medians.
RATIO_PAIRS = 11
#: ``DECIDE_ROW_RULES`` above every call: the decision pass never runs.
NO_DECISION = 10**9

BENCH_RULES = 40
BENCH_PAIRS = 1200
#: The columnar sides' state: closer to a session's (the products 0.3
#: perfbench session holds 79 rules over 2,510 pairs), so that an edit
#: re-matches several pairs through many rules, as in a session, where
#: on the scalar search's state it re-matches about one pair.
COLUMNAR_RULES = 80
COLUMNAR_PAIRS = 2500


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
def columnar_state(products_workload):
    """A buggy function of ``COLUMNAR_RULES`` rules over
    ``COLUMNAR_PAIRS`` pairs, materialized as a session does it: kernels
    with bounds, the columnar engine."""
    candidates = products_workload.candidates.subset(range(COLUMNAR_PAIRS))
    function = seed_bugs(
        rule_subset(products_workload.function, COLUMNAR_RULES, seed=5)
    )
    kernels = FeatureKernels(use_bounds=True)
    columnar, _ = MatchState.from_initial_run(
        function, candidates, kernels=kernels, engine="columnar"
    )
    return columnar, kernels


#: The columnar search's variants: module attribute pins per side.
SIDES = {
    "shipped": (),
    "all_columnar": ((executor, "PAIR_ROWS", 0),),
    "no_decision": ((matchers, "DECIDE_ROW_RULES", NO_DECISION),),
}


def columnar_search(state, gold, config, kernels, side="shipped"):
    """One columnar search with the ``side``'s pins; returns the report
    and its candidates per second."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name, value in SIDES[side]:
            patch.setattr(module, name, value)
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
    # each round runs the three sides back to back (rotating which goes
    # first), and the floors apply to the medians of the rounds' ratios.
    columnar, kernels = columnar_state
    columnar_search(columnar, gold, config, kernels)  # fills the memo
    names = list(SIDES)
    rates = {name: [] for name in names}
    for index in range(RATIO_PAIRS):
        order = names[index % 3 :] + names[: index % 3]
        runs = {
            name: columnar_search(columnar, gold, config, kernels, name)
            for name in order
        }
        keys = {name: report_key(runs[name][0]) for name in names}
        assert keys["shipped"] == keys["all_columnar"] == keys["no_decision"]
        for name in names:
            rates[name].append(runs[name][1])
    per_pair_rate, all_columnar_rate, no_decision_rate = (
        statistics.median(rates[name]) for name in names
    )
    pair_rows_speedup = statistics.median(
        fast / slow for fast, slow in zip(rates["shipped"], rates["all_columnar"])
    )
    decision_speedup = statistics.median(
        fast / slow for fast, slow in zip(rates["shipped"], rates["no_decision"])
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
            ["columnar state", f"{COLUMNAR_PAIRS} pairs, {COLUMNAR_RULES} rules"],
            ["columnar, few rows per pair", f"{per_pair_rate:.0f} candidates/s"],
            ["columnar, PAIR_ROWS=0", f"{all_columnar_rate:.0f} candidates/s"],
            ["columnar, no decision pass", f"{no_decision_rate:.0f} candidates/s"],
            ["per-pair speedup", f"{pair_rows_speedup:.2f}x"],
            ["decision-pass speedup", f"{decision_speedup:.2f}x"],
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
        "columnar_pairs": COLUMNAR_PAIRS,
        "columnar_rules": COLUMNAR_RULES,
        "columnar_pair_rows": executor.PAIR_ROWS,
        "columnar_per_pair_candidates_per_second": per_pair_rate,
        "columnar_all_columnar_candidates_per_second": all_columnar_rate,
        "pair_rows_speedup": pair_rows_speedup,
        "columnar_decide_row_rules": matchers.DECIDE_ROW_RULES,
        "columnar_no_decision_candidates_per_second": no_decision_rate,
        "decision_speedup": decision_speedup,
        "min_decision_speedup": MIN_DECISION_SPEEDUP,
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
    # 5. the decision pass pays on those few-row calls.
    assert decision_speedup >= MIN_DECISION_SPEEDUP, (
        f"decision pass {per_pair_rate:.0f} vs walk only "
        f"{no_decision_rate:.0f} candidates/s ({decision_speedup:.2f}x); "
        f"floor is {MIN_DECISION_SPEEDUP:.2f}x"
    )
