"""Per-layer values shared by the workloads (traced runs only).

A cold ``DebugSession.run()`` with ``repro.observability.Observability``
attached leaves spans ``run`` > ``estimate``/``order``/``match`` and the
``engine.*`` counters; :func:`cold_sample` reads them together with the
kernels' cache counters and the cost model's own prediction.
:func:`report_cold_layers` turns a list of such samples into the
cost-model, ordering, plan, match, engine and kernel layer metrics.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.cost_model import predicted_runtime

from common import (
    FAMILY_NAMES,
    family_of,
    median,
    order_hash,
    program_spans,
    self_times,
    span_durations,
)


def determinism_record(result, function) -> tuple:
    """Work counters and order hash of one cold run (wall-clock dependent)."""
    stats = result.stats
    return (
        stats.feature_computations,
        stats.bound_skips,
        stats.memo_hits,
        stats.predicate_evaluations,
        order_hash(function),
    )


def note_determinism(report, records) -> None:
    for position, (computations, skips, _, _, digest) in enumerate(records):
        report.note(
            f"cold run {position}: feature_computations={computations} "
            f"bound_skips={skips} order_hash={digest:08x}"
        )


def cold_sample(session, observability) -> dict:
    """Layer readings of the session's most recent cold run."""
    records = program_spans(observability)
    match_s = span_durations(records, "match")[-1]
    counters = observability.metrics.snapshot()
    kernels = session.kernels
    compile_s = []
    for _ in range(5):
        started = time.perf_counter()
        plan = session.compile_plan()
        compile_s.append(time.perf_counter() - started)
    predicted = predicted_runtime(session.function, session.candidates, session.estimates)
    return {
        "estimate": span_durations(records, "estimate")[-1],
        "order": span_durations(records, "order")[-1],
        "match": match_s,
        "run_self": self_times(records, "run")[-1],
        "predicted_over_actual": predicted / match_s,
        "sample_pairs": session.estimates.sample_size,
        "mask_evals": counters.get("engine.mask_evals", {}).get("value", 0),
        "scalar_fallbacks": counters.get("engine.scalar_fallbacks", {}).get("value", 0),
        "cache_hits": kernels.cache.total_hits + kernels.values.total_hits,
        "cache_misses": kernels.cache.total_misses + kernels.values.total_misses,
        "compile": median(compile_s),
        "decision": plan.decision,
        "pairs": len(session.candidates),
    }


def report_cold_layers(report, samples, determinism) -> None:
    """Cost model, ordering, plan, match, engine and kernel layers.

    Facts of the workload rather than of the code (plan size, the order
    hash, the cost model's signed error) go to the printed notes, not to
    per-layer metrics, because no direction of change is better."""

    def med(key):
        return median([sample[key] for sample in samples])

    decision = samples[-1]["decision"]
    computations = [record[0] for record in determinism]
    skips = [record[1] for record in determinism]
    ratio = med("predicted_over_actual")
    report.note(
        f"plan: {decision.supported_steps}/{decision.total_steps} steps "
        f"kernel-supported, engine={decision.engine}; cost model "
        f"predicted/actual cold match = {ratio:.3f}"
    )
    report.layer("cost_model.estimate_s", med("estimate"))
    report.layer("cost_model.sample_pairs", med("sample_pairs"))
    report.layer("cost_model.abs_log_error", abs(math.log(ratio)))
    report.layer("ordering.order_s", med("order"))
    report.layer("ordering.distinct_orders", len({record[4] for record in determinism}))
    report.layer("session.run_self_s", med("run_self"))
    report.layer("plan.compile_s", med("compile"))
    report.layer("plan.supported_steps", decision.supported_steps)
    report.layer("plan.decision_columnar", 1 if decision.engine == "columnar" else 0)
    report.layer("plan.scalar_cost_us_per_pair", decision.scalar_cost * 1e6)
    report.layer("plan.columnar_cost_us_per_pair", decision.columnar_cost * 1e6)
    report.layer("match.cold_us_per_pair", med("match") / samples[-1]["pairs"] * 1e6)
    report.layer("match.feature_computations", median(computations))
    report.layer("match.feature_computations_range", max(computations) - min(computations))
    report.layer("match.memo_hits", median([record[2] for record in determinism]))
    report.layer("match.bound_skips", median(skips))
    report.layer("match.bound_skips_range", max(skips) - min(skips))
    report.layer("match.predicate_evaluations", median([record[3] for record in determinism]))
    report.layer("engine.mask_evals", med("mask_evals"))
    report.layer("engine.scalar_fallbacks", med("scalar_fallbacks"))
    report.layer("kernels.cache_hits", med("cache_hits"))
    report.layer("kernels.cache_misses", med("cache_misses"))


def report_family_costs(report, candidates, function, seed, sample=200) -> None:
    """``feature.compute`` cost per similarity family on a fixed pair sample."""
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(len(candidates)), min(sample, len(candidates))))
    pairs = [candidates[index] for index in indices]
    totals = {}
    for feature in function.features():
        family = family_of(feature)
        started = time.perf_counter()
        for pair in pairs:
            feature.compute(pair.record_a, pair.record_b)
        elapsed = time.perf_counter() - started
        seconds, calls = totals.get(family, (0.0, 0))
        totals[family] = (seconds + elapsed, calls + len(pairs))
    for family in FAMILY_NAMES:
        seconds, calls = totals.get(family, (0.0, 0))
        report.layer(
            f"similarity.{family}.us_per_call", seconds / calls * 1e6 if calls else 0.0
        )


def report_incremental(report, edits) -> None:
    """Median ``apply`` latency and affected pairs per paper algorithm."""
    for algorithm in (7, 8, 9, 10):
        rows = [(ms, affected) for edit, ms, affected, _ in edits
                if edit.algorithm == algorithm]
        report.layer(f"incremental.alg{algorithm}_ms", median([r[0] for r in rows]))
        report.layer(
            f"incremental.alg{algorithm}_affected_pairs", median([r[1] for r in rows])
        )


def overhead_frac(rows) -> float:
    """Tracing overhead from ``(kind, seconds, traced)`` rows: per kind of
    operation, median traced over median untraced latency; the median of
    those ratios, minus one.  Comparing within a kind keeps a different
    mix on the two sides from reading as overhead."""
    ratios = []
    for kind in sorted({row[0] for row in rows}):
        traced = [row[1] for row in rows if row[0] == kind and row[2]]
        untraced = [row[1] for row in rows if row[0] == kind and not row[2]]
        if traced and untraced:
            ratios.append(median(traced) / median(untraced))
    return median(ratios) - 1.0 if ratios else 0.0
