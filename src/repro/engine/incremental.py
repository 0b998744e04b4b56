"""Columnar mirrors of the incremental algorithms (paper Algorithms 7-10).

Each function is the set-at-a-time counterpart of its scalar twin in
:mod:`repro.core.incremental`: the same affected-pair selection from the
materialized bitmaps, the same re-evaluation order, the same state
mutations — but every predicate/rule re-evaluation runs through the
:class:`~repro.engine.executor.ColumnarExecutor` as one mask pass over
the affected rows instead of a per-pair Python loop (a re-match of at
most :data:`~repro.engine.executor.PAIR_ROWS` rows runs pair by pair,
which costs those few rows less).

This is what makes the refinement search's scorer set-at-a-time: each
candidate edit is one (or a few) vectorized passes over the checkpointed
state, with ``refine.full_rematches == 0`` preserved because the mirrors
consume exactly the same materialized facts the scalar algorithms do.

Counter conservation holds for the same reason as the full-run executor:
pairs are independent, so batching their re-evaluations changes no
per-pair outcome and no counter sum (see the soundness discussion in
:mod:`repro.core.incremental`, which applies verbatim).

An edit costs the rows it touches: affected rows come straight off the
bitmaps as int64 arrays, and the executor runs the state's own plan,
which reading it after the edit patches to the edited function (only the
edited rule is re-planned — see :meth:`repro.engine.MatchPlan.for_function`).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.changes import (
    AddPredicate,
    AddRule,
    Change,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from ..core.incremental import IncrementalResult, _finish
from ..core.state import MatchState
from ..core.stats import MatchStats
from ..errors import ChangeError
from .executor import ColumnarExecutor


def _executor(state: MatchState, stats: MatchStats) -> ColumnarExecutor:
    """An executor over the state's *current* plan (call after apply_to)."""
    return ColumnarExecutor(
        state.plan,
        state.candidates,
        state.memo,
        stats,
        recorder=state,
        kernels=state.kernels,
    )


# ---------------------------------------------------------------------------
# Algorithm 7: add a predicate / tighten a predicate
# ---------------------------------------------------------------------------


def apply_strictening_columnar(
    state: MatchState, change: Change
) -> "tuple[IncrementalResult, ColumnarExecutor]":
    started = time.perf_counter()
    stats = MatchStats()
    change.validate(state.function)
    if isinstance(change, AddPredicate):
        rule_name, changed_slot = change.rule_name, change.predicate.slot
    elif isinstance(change, TightenPredicate):
        rule_name, changed_slot = change.rule_name, change.slot
    else:
        raise ChangeError(f"apply_strictening cannot handle {change!r}")

    affected = state.matched_rows(rule_name)
    state.function = change.apply_to(state.function)
    rule = state.function.rule(rule_name)
    changed_predicate = rule.predicate_by_slot(changed_slot)
    rule_position = state.function.rule_index(rule_name)

    executor = _executor(state, stats)
    newly_unmatched = 0
    if affected.size:
        passing = executor.predicate_rows(changed_predicate, rule_name, affected)
        failing = np.setdiff1d(affected, passing, assume_unique=True)
        if failing.size:
            state.clear_rule_match_rows(failing, rule_name)
            rematched = executor.match_rows(failing, start_rule=rule_position + 1)
            fell_out = failing[~rematched]
            state.labels[fell_out] = False
            newly_unmatched = int(fell_out.size)
    result = _finish(
        change, stats, started, int(affected.size), 0, newly_unmatched
    )
    return result, executor


# ---------------------------------------------------------------------------
# Algorithm 8: remove a predicate / relax a predicate
# ---------------------------------------------------------------------------


def apply_loosening_columnar(
    state: MatchState, change: Change
) -> "tuple[IncrementalResult, ColumnarExecutor]":
    started = time.perf_counter()
    stats = MatchStats()
    change.validate(state.function)
    if isinstance(change, RemovePredicate):
        rule_name, slot, removed = change.rule_name, change.slot, True
    elif isinstance(change, RelaxPredicate):
        rule_name, slot, removed = change.rule_name, change.slot, False
    else:
        raise ChangeError(f"apply_loosening cannot handle {change!r}")

    failed = state.failed_rows(rule_name, slot)
    state.function = change.apply_to(state.function)
    rule = state.function.rule(rule_name)
    rule_position = state.function.rule_index(rule_name)
    relaxed_predicate = None if removed else rule.predicate_by_slot(slot)
    other_predicates = tuple(
        predicate for predicate in rule.predicates if predicate.slot != slot
    )

    if removed:
        state.drop_predicate(rule_name, slot)
    else:
        state.reset_predicate_false(rule_name, slot)

    executor = _executor(state, stats)
    # Skip pairs matched by this rule or an earlier one (the invariant
    # only covers rules before the attribution, which don't include r).
    matched_mask = state.labels[failed] if failed.size else np.zeros(0, dtype=bool)
    attributed = state.attribution[failed] if failed.size else np.zeros(0, dtype=np.int32)
    skip = matched_mask & (attributed <= rule_position)
    examined = failed[~skip]

    rows = examined
    if relaxed_predicate is not None and rows.size:
        rows = executor.predicate_rows(relaxed_predicate, rule_name, rows)
    for predicate in other_predicates:
        if rows.size == 0:
            break
        rows = executor.predicate_rows(predicate, rule_name, rows)

    newly_matched = 0
    if rows.size:
        currently_matched = state.labels[rows]
        re_attributed = rows[currently_matched]
        fresh = rows[~currently_matched]
        if re_attributed.size:
            # Bulk re-attribution, grouped by the old attributed rule so
            # each group's bitmap clears in one fancy-indexed write.
            old_attrs = state.attribution[re_attributed]
            for old_index in np.unique(old_attrs):
                group = re_attributed[old_attrs == old_index]
                state.clear_rule_match_rows(
                    group, state.function.rules[int(old_index)].name
                )
        state.record_rule_match_rows(rows, rule_name)
        if fresh.size:
            state.labels[fresh] = True
            newly_matched = int(fresh.size)
    result = _finish(
        change, stats, started, int(examined.size), newly_matched, 0
    )
    return result, executor


# ---------------------------------------------------------------------------
# Algorithm 9: remove a rule
# ---------------------------------------------------------------------------


def apply_remove_rule_columnar(
    state: MatchState, change: RemoveRule
) -> "tuple[IncrementalResult, ColumnarExecutor]":
    started = time.perf_counter()
    stats = MatchStats()
    change.validate(state.function)
    rule_name = change.rule_name
    affected = state.matched_rows(rule_name)
    old_index = state.function.rule_index(rule_name)
    state.function = change.apply_to(state.function)
    state.drop_rule(rule_name, old_index)

    executor = _executor(state, stats)
    newly_unmatched = 0
    if affected.size:
        # drop_rule cleared the bitmap wholesale; fix these pairs' entries.
        state.attribution[affected] = -1
        rematched = executor.match_rows(affected, start_rule=old_index)
        fell_out = affected[~rematched]
        state.labels[fell_out] = False
        newly_unmatched = int(fell_out.size)
    result = _finish(
        change, stats, started, int(affected.size), 0, newly_unmatched
    )
    return result, executor


# ---------------------------------------------------------------------------
# Algorithm 10: add a rule
# ---------------------------------------------------------------------------


def apply_add_rule_columnar(
    state: MatchState, change: AddRule
) -> "tuple[IncrementalResult, ColumnarExecutor]":
    started = time.perf_counter()
    stats = MatchStats()
    change.validate(state.function)
    affected = state.unmatched_rows()
    state.function = change.apply_to(state.function)

    executor = _executor(state, stats)
    newly_matched = 0
    if affected.size:
        matched = executor.match_rows(
            affected, start_rule=len(state.function.rules) - 1
        )
        won = affected[matched]
        state.labels[won] = True
        newly_matched = int(won.size)
    result = _finish(
        change, stats, started, int(affected.size), newly_matched, 0
    )
    return result, executor


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def apply_change_columnar(
    state: MatchState, change: Change, metrics=None
) -> IncrementalResult:
    """Apply any change through the columnar incremental mirrors.

    Drop-in for :func:`repro.core.incremental.apply_change` — identical
    state mutations, labels, bitmaps, and stats counters — with every
    re-evaluation batched through the columnar executor.  ``metrics``
    (a metrics registry) optionally receives the ``engine.*`` counters.
    """
    if isinstance(change, (AddPredicate, TightenPredicate)):
        result, executor = apply_strictening_columnar(state, change)
    elif isinstance(change, (RemovePredicate, RelaxPredicate)):
        result, executor = apply_loosening_columnar(state, change)
    elif isinstance(change, RemoveRule):
        result, executor = apply_remove_rule_columnar(state, change)
    elif isinstance(change, AddRule):
        result, executor = apply_add_rule_columnar(state, change)
    else:
        raise ChangeError(f"no incremental algorithm for {type(change).__name__}")
    if metrics is not None:
        executor.report_metrics(metrics)
    return result
