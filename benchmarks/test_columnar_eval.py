"""Extension bench: the columnar engine vs the warm-cache scalar evaluator.

The plan/executor split (:mod:`repro.engine`) exists for exactly one
reason: once every feature a function needs is memoized (the steady state
of the paper's debugging loop), per-pair evaluation cost is pure Python
interpreter overhead — a loop over pairs, rules, and predicates doing
dict lookups and float compares.  The columnar executor replaces that
loop with one NumPy mask per predicate step over the surviving candidate
indices, reading memoized values as whole :class:`~repro.core.ArrayMemo`
columns.

This bench runs the **stock learned products workload — all 255 rules,
no filtering** — so it also pins the coverage bar: with the exact,
edit-distance, numeric, phonetic, TF-IDF and Monge-Elkan kernel
families in place, all 255 learned rules are fully kernel-supported (no
step falls back to the per-pair path), and the cost model's
``engine="auto"`` decision must pick columnar for the plan.  It times
both engines over the *same* warm memo, asserts bit-identical labels,
and pins the speedup floor: columnar >= 2x faster than warm-cache
scalar.

A cold phase times what an analyst waits for first: a fresh
``DebugSession.run()`` (estimate, order, match, every memo empty) with
the kernel layer and with ``use_kernels=False``.  Labels must agree, and
the kernel layer — record caches plus the token-pair memo under
Monge-Elkan and Soft TF-IDF — must make the cold run at least 2x faster.
The memo's Jaro-Winkler bucket must key unordered token pairs: no pair
is held in both orders.

An edit phase then runs the paper's §7.6 edit protocol on an ``auto``
session over the same workload — 30 edit/inverse pairs across
Algorithms 7-10, labels checked restored after every pair — and pins two
ratio ceilings against one full ``plan_function`` compile with
estimates: the median edit must cost at most half of it, and the median
*zero-row* edit (one whose affected rows are empty, so it builds no row
evaluator) at most :data:`MAX_ZERO_ROW_EDIT_OVER_COMPILE` of it.  An
edit with rows patches the session's plan (one rule re-planned) instead
of compiling it; a zero-row edit reads no plan at all, so its cost
follows neither the rule count nor the plan.  Results — timings, coverage, the auto-engine
decision, the edit phase and the cold phase — land in
``benchmarks/BENCH_columnar_eval.json``.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    AddPredicate,
    AddRule,
    ArrayMemo,
    DebugSession,
    DynamicMemoMatcher,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from repro.engine import ColumnarMatcher, plan_function
from repro.errors import ChangeError
from repro.kernels import FeatureKernels

from conftest import print_series, random_change

#: speedup floor asserted by this bench (columnar vs warm-cache scalar).
MIN_SPEEDUP = 2.0
#: coverage floor: fully kernel-supported rules out of the 255 learned.
MIN_SUPPORTED_RULES = 255
#: ceiling on (edit p50) / (one full plan compile with estimates).
MAX_EDIT_OVER_COMPILE = 0.5
#: ceiling on (zero-row edit p50) / (one full plan compile with
#: estimates): a zero-row edit builds no evaluator, so it must not pay
#: for a plan patch or an engine decision over all 255 rules.
MAX_ZERO_ROW_EDIT_OVER_COMPILE = 0.025
#: floor on (cold run without kernels) / (cold run with kernels).
MIN_COLD_SPEEDUP = 2.0

BENCH_PAIRS = 2500
EDIT_PAIRS = 30
EDIT_SEED = 17
EDIT_KINDS = (
    "tighten", "relax", "remove_predicate", "remove_rule", "add_rule", "add_predicate",
)

_RESULTS = {}


@pytest.fixture(scope="module")
def columnar_workload(products_workload, bench_candidates):
    """(function, candidates, kernels, plan): the stock 255-rule learned
    products workload — nothing filtered — compiled against the full
    kernel layer."""
    kernels = FeatureKernels()
    function = products_workload.function
    plan = plan_function(function, kernels=kernels)
    candidates = bench_candidates.subset(
        range(min(BENCH_PAIRS, len(bench_candidates)))
    )
    return function, candidates, kernels, plan


@pytest.fixture(scope="module")
def warm_memo(columnar_workload):
    """A memo fully warmed by one scalar run — the debugging loop's
    steady state, where every needed (pair, feature) value is cached."""
    function, candidates, kernels, _ = columnar_workload
    memo = ArrayMemo(
        len(candidates), [feature.name for feature in function.features()]
    )
    DynamicMemoMatcher(memo=memo, kernels=kernels).run(function, candidates)
    return memo


def test_kernel_coverage_and_auto_decision(benchmark, columnar_workload):
    """The coverage bar: all 255 learned rules fully kernel-supported,
    and the cost model resolves auto -> columnar."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    function, candidates, _, plan = columnar_workload
    total_rules = len(plan.rule_steps)
    supported_rules = sum(
        1 for rule_step in plan.rule_steps if rule_step.fully_kernel_supported
    )
    assert total_rules == 255
    assert supported_rules >= MIN_SUPPORTED_RULES, (
        f"only {supported_rules}/{total_rules} rules kernel-supported; "
        f"floor is {MIN_SUPPORTED_RULES}"
    )
    decision = plan.decision
    assert decision.engine == "columnar"
    assert decision.mode == "columnar"  # no step falls back per pair
    assert supported_rules == total_rules
    assert decision.columnar_cost < decision.scalar_cost
    # the session-level resolution agrees with the plan's decision
    session = DebugSession(candidates, function)
    assert session.engine == "auto"
    assert session.compile_plan(function).decision.engine == "columnar"
    _RESULTS["coverage"] = {
        "total_rules": total_rules,
        "supported_rules": supported_rules,
        "total_steps": decision.total_steps,
        "supported_steps": decision.supported_steps,
        "decision": {
            "engine": decision.engine,
            "mode": decision.mode,
            "columnar_cost_us_per_pair": decision.columnar_cost * 1e6,
            "scalar_cost_us_per_pair": decision.scalar_cost * 1e6,
        },
    }


@pytest.mark.parametrize("engine", ["scalar", "columnar"])
def test_columnar_eval_point(benchmark, columnar_workload, warm_memo, engine):
    function, candidates, kernels, plan = columnar_workload
    if engine == "scalar":
        matcher = DynamicMemoMatcher(memo=warm_memo, kernels=kernels)
    else:
        matcher = ColumnarMatcher(memo=warm_memo, kernels=kernels, plan=plan)
    holder = {}

    def run_once():
        holder["result"] = matcher.run(function, candidates)

    benchmark.pedantic(run_once, rounds=3, iterations=1)
    result = holder["result"]
    _RESULTS[engine] = {
        "seconds": min(benchmark.stats.stats.data),
        "labels": result.labels.copy(),
        "stats": result.stats,
    }
    if engine == "columnar":
        executor = matcher.last_executor
        _RESULTS[engine]["mask_evals"] = executor.mask_evals
        _RESULTS[engine]["scalar_fallbacks"] = executor.scalar_fallbacks


def _inverse(change, function):
    """The edit that undoes ``change``, given the ``function`` it edits."""
    if isinstance(change, AddRule):
        return RemoveRule(change.rule.name)
    if isinstance(change, RemoveRule):
        return AddRule(function.rule(change.rule_name))
    if isinstance(change, AddPredicate):
        return RemovePredicate(change.rule_name, change.predicate.slot)
    old = function.rule(change.rule_name).predicate_by_slot(change.slot)
    if isinstance(change, RemovePredicate):
        return AddPredicate(change.rule_name, old)
    undo = RelaxPredicate if isinstance(change, TightenPredicate) else TightenPredicate
    return undo(change.rule_name, change.slot, old.threshold)


def _edit_pair(kind, function, rng):
    """A valid §7.6 edit of ``kind`` on ``function`` and its inverse.
    Rules are drawn in name order: the session orders them by wall-clock
    cost estimates."""
    rules = sorted(function.rules, key=lambda rule: rule.name)
    for _ in range(200):
        change = random_change(kind, rules, rng)
        if change is None:
            continue
        try:
            change.validate(function)
        except ChangeError:
            continue
        return change, _inverse(change, function)
    raise AssertionError(f"no applicable {kind} edit")


def test_edit_phase(benchmark, columnar_workload):
    """30 §7.6 edit/inverse pairs on an ``auto`` session: every pair
    restores the labels, and edit latency is timed next to one full plan
    compile with estimates."""
    function, candidates, _, _ = columnar_workload
    session = DebugSession(candidates, function)
    session.run()
    rng = random.Random(EDIT_SEED)
    edit_seconds = []
    zero_row_seconds = []
    row_seconds = []
    kinds = []

    def run_edits():
        for index in range(EDIT_PAIRS):
            kind = EDIT_KINDS[index % len(EDIT_KINDS)]
            pair = _edit_pair(kind, session.function, rng)
            before = session.labels().copy()
            for change in pair:
                started = time.perf_counter()
                result = session.apply(change)
                elapsed = time.perf_counter() - started
                edit_seconds.append(elapsed)
                (row_seconds if result.affected_pairs else zero_row_seconds).append(
                    elapsed
                )
            assert np.array_equal(session.labels(), before), (
                f"labels not restored after {pair[0]!r} and its inverse"
            )
            kinds.append(kind)

    benchmark.pedantic(run_edits, rounds=1, iterations=1)
    compile_seconds = []
    for _ in range(5):
        started = time.perf_counter()
        plan = session.compile_plan()
        compile_seconds.append(time.perf_counter() - started)
    _RESULTS["edits"] = {
        "pairs": len(kinds),
        "edit_p50_seconds": statistics.median(edit_seconds),
        "edit_p90_seconds": float(np.percentile(edit_seconds, 90)),
        "zero_row_edits": len(zero_row_seconds),
        "zero_row_p50_seconds": statistics.median(zero_row_seconds),
        "row_edits": len(row_seconds),
        "row_p50_seconds": statistics.median(row_seconds),
        "compile_seconds": statistics.median(compile_seconds),
        "engine": plan.decision.engine,
        "rules": len(session.function.rules),
    }


def test_cold_phase(benchmark, columnar_workload):
    """A cold ``DebugSession.run()`` with the kernel layer and without:
    the same labels, and the kernel run's token-pair memo traffic."""
    function, candidates, _, _ = columnar_workload
    runs = {}

    def run_cold():
        for use_kernels in (True, False):
            session = DebugSession(candidates, function, use_kernels=use_kernels)
            started = time.perf_counter()
            result = session.run()
            runs[use_kernels] = (
                time.perf_counter() - started,
                result.labels.copy(),
                session.kernels,
            )

    benchmark.pedantic(run_cold, rounds=1, iterations=1)
    kernels_seconds, kernels_labels, kernels = runs[True]
    plain_seconds, plain_labels, _ = runs[False]
    assert np.array_equal(kernels_labels, plain_labels)
    memo = kernels.token_pairs
    # Jaro-Winkler is bit-symmetric, so its bucket keys unordered pairs:
    # the backward passes hit the forward entries, and no token pair is
    # held in both orders.
    jaro_winkler = [
        bucket
        for key, bucket in memo._buckets.items()
        if memo._labels[key] == "pairs:jaro_winkler"
    ]
    assert jaro_winkler, "the cold run filled no Jaro-Winkler bucket"
    transposed = sum(
        (y, x) in bucket.scores
        for bucket in jaro_winkler
        for x, y in bucket.scores
        if x != y
    )
    assert transposed == 0, f"{transposed} token pairs held in both orders"
    _RESULTS["cold"] = {
        "kernels_seconds": kernels_seconds,
        "no_kernels_seconds": plain_seconds,
        "memo_lookups": memo.total_hits + memo.total_misses,
        "memo_entries": len(memo),
    }


def test_columnar_eval_report(benchmark, columnar_workload):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    function, candidates, _, _ = columnar_workload
    scalar = _RESULTS["scalar"]
    columnar = _RESULTS["columnar"]
    coverage = _RESULTS["coverage"]
    edits = _RESULTS["edits"]
    cold = _RESULTS["cold"]
    speedup = scalar["seconds"] / columnar["seconds"]
    edit_over_compile = edits["edit_p50_seconds"] / edits["compile_seconds"]
    zero_row_over_compile = (
        edits["zero_row_p50_seconds"] / edits["compile_seconds"]
    )
    cold_speedup = cold["no_kernels_seconds"] / cold["kernels_seconds"]

    print_series(
        f"Columnar vs warm-cache scalar "
        f"({len(candidates)} pairs, {len(function.rules)} rules, "
        f"{coverage['supported_rules']}/{coverage['total_rules']} "
        f"kernel-supported)",
        ["engine", "best of 3", "memo hits", "matches"],
        [
            [
                "scalar (DM+EE)",
                f"{scalar['seconds'] * 1000:.1f}ms",
                scalar["stats"].memo_hits,
                int(scalar["labels"].sum()),
            ],
            [
                "columnar (auto)",
                f"{columnar['seconds'] * 1000:.1f}ms",
                columnar["stats"].memo_hits,
                int(columnar["labels"].sum()),
            ],
            ["speedup", f"{speedup:.2f}x", "-", "-"],
        ],
    )
    print_series(
        f"Edit phase ({edits['pairs']} edit/inverse pairs, "
        f"{edits['rules']} rules, auto -> {edits['engine']})",
        ["edits", "p50", "p90", "plan compile", "p50 / compile"],
        [
            [
                f"all {edits['pairs'] * 2}",
                f"{edits['edit_p50_seconds'] * 1000:.3f}ms",
                f"{edits['edit_p90_seconds'] * 1000:.3f}ms",
                f"{edits['compile_seconds'] * 1000:.2f}ms",
                f"{edit_over_compile:.4f}",
            ],
            [
                f"zero-row {edits['zero_row_edits']}",
                f"{edits['zero_row_p50_seconds'] * 1000:.3f}ms",
                "-",
                "-",
                f"{zero_row_over_compile:.4f}",
            ],
            [
                f"with rows {edits['row_edits']}",
                f"{edits['row_p50_seconds'] * 1000:.3f}ms",
                "-",
                "-",
                f"{edits['row_p50_seconds'] / edits['compile_seconds']:.4f}",
            ],
        ],
    )

    print_series(
        f"Cold run ({len(candidates)} pairs, {len(function.rules)} rules, "
        f"fresh session: estimate + order + match)",
        ["kernels", "no kernels", "ratio", "memo lookups", "memo entries"],
        [
            [
                f"{cold['kernels_seconds']:.2f}s",
                f"{cold['no_kernels_seconds']:.2f}s",
                f"{cold_speedup:.2f}x",
                cold["memo_lookups"],
                cold["memo_entries"],
            ]
        ],
    )

    payload = {
        "pairs": len(candidates),
        "rules": len(function.rules),
        "scalar_seconds": scalar["seconds"],
        "columnar_seconds": columnar["seconds"],
        "speedup": speedup,
        "mask_evals": columnar["mask_evals"],
        "scalar_fallbacks": columnar["scalar_fallbacks"],
        "matches": int(columnar["labels"].sum()),
        "min_speedup_floor": MIN_SPEEDUP,
        "kernel_coverage": {
            "supported_rules": coverage["supported_rules"],
            "total_rules": coverage["total_rules"],
            "rule_fraction": (
                coverage["supported_rules"] / coverage["total_rules"]
            ),
            "supported_steps": coverage["supported_steps"],
            "total_steps": coverage["total_steps"],
            "step_fraction": (
                coverage["supported_steps"] / coverage["total_steps"]
            ),
            "min_supported_rules_floor": MIN_SUPPORTED_RULES,
        },
        "auto_engine_decision": coverage["decision"],
        "edit_phase": {
            "edit_pairs": edits["pairs"],
            "engine": edits["engine"],
            "edit_p50_ms": edits["edit_p50_seconds"] * 1000,
            "edit_p90_ms": edits["edit_p90_seconds"] * 1000,
            "plan_compile_ms": edits["compile_seconds"] * 1000,
            "edit_p50_over_compile": edit_over_compile,
            "max_edit_over_compile_floor": MAX_EDIT_OVER_COMPILE,
            "zero_row_edits": edits["zero_row_edits"],
            "zero_row_p50_ms": edits["zero_row_p50_seconds"] * 1000,
            "zero_row_p50_over_compile": zero_row_over_compile,
            "max_zero_row_edit_over_compile_ceiling": MAX_ZERO_ROW_EDIT_OVER_COMPILE,
            "row_edits": edits["row_edits"],
            "row_p50_ms": edits["row_p50_seconds"] * 1000,
        },
        "cold_phase": {
            "kernels_seconds": cold["kernels_seconds"],
            "no_kernels_seconds": cold["no_kernels_seconds"],
            "no_kernels_over_kernels": cold_speedup,
            "memo_lookups": cold["memo_lookups"],
            "memo_entries": cold["memo_entries"],
            "min_cold_speedup_floor": MIN_COLD_SPEEDUP,
        },
    }
    out_path = Path(__file__).resolve().parent / "BENCH_columnar_eval.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    # The PR's acceptance bars, in one place:
    # 1. conservation — set-at-a-time is a pure perf transformation;
    assert np.array_equal(scalar["labels"], columnar["labels"])
    for counter in ("feature_computations", "memo_hits", "pairs_matched"):
        assert getattr(scalar["stats"], counter) == getattr(
            columnar["stats"], counter
        ), counter
    # 2. the engine actually ran set-at-a-time;
    assert columnar["mask_evals"] > 0
    # 3. the speedup the split exists for, on the *unfiltered* workload;
    assert speedup >= MIN_SPEEDUP, (
        f"columnar only {speedup:.2f}x faster than warm-cache scalar; "
        f"floor is {MIN_SPEEDUP:.1f}x"
    )
    # 4. an edit costs the rows it touches, not a plan compile.
    assert edit_over_compile <= MAX_EDIT_OVER_COMPILE, (
        f"edit p50 is {edit_over_compile:.2f}x one full plan compile; "
        f"ceiling is {MAX_EDIT_OVER_COMPILE:.2f}x"
    )
    # 5. an edit with no rows to evaluate pays for no plan at all.
    assert zero_row_over_compile <= MAX_ZERO_ROW_EDIT_OVER_COMPILE, (
        f"zero-row edit p50 is {zero_row_over_compile:.4f}x one full plan "
        f"compile; ceiling is {MAX_ZERO_ROW_EDIT_OVER_COMPILE:.4f}x"
    )
    # 6. the kernel layer pays off where the analyst waits longest: cold.
    assert cold_speedup >= MIN_COLD_SPEEDUP, (
        f"a cold run with kernels is only {cold_speedup:.2f}x faster than "
        f"without; floor is {MIN_COLD_SPEEDUP:.1f}x"
    )
