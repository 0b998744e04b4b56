"""Incremental matching — Algorithms 7-10 of the paper (§6.2).

Each function takes a live :class:`~repro.core.state.MatchState` and one
:class:`~repro.core.changes.Change`, updates the state's function, labels,
memo, and bitmaps in place, and returns an :class:`IncrementalResult`
with the work counters.  :func:`apply_change` dispatches by change type.

Row evaluators
--------------
Each algorithm is written once, over the int64 row arrays it reads off
the bitmaps, against a *row evaluator* with three methods:

* ``predicate_rows(predicate, rule_name, rows)`` — the rows of ``rows``
  (sorted in, sorted out) on which one predicate holds, recording the
  false ones into the state;
* ``match_rows(rows, start_rule)`` — a bool mask aligned with ``rows``:
  whether some rule from position ``start_rule`` on is true, the first
  true rule recorded as the pair's attribution (labels are the
  algorithm's to write);
* ``report_metrics(registry)`` — fold the evaluator's engine counters
  into a metrics registry.

:meth:`MatchState.evaluator` builds one per edit, after the edit is
applied to the function, and only once the edit has rows to evaluate.
``engine="scalar"`` gives a :class:`~repro.core.matchers.PairRows`, which
walks the rows pair by pair through
:class:`~repro.core.matchers.PairEvaluator` and never reads the state's
plan; ``engine="columnar"`` a :class:`~repro.engine.ColumnarExecutor`
over the state's plan (patched to the edited function by that read),
which evaluates the rows as mask passes.  ``engine="auto"`` resolves at
that build (:meth:`MatchState.resolve_engine`), against the edited
function's plan — the plan the evaluator runs.  An edit whose rows are
empty (about half of them) therefore builds nothing: it reads no plan,
makes no engine decision, and reports no engine metrics.  Both engines
leave identical labels, bitmaps, memo, and counters: pairs are
independent and the memo is keyed per (pair, feature), so visiting the
rows predicate by predicate instead of pair by pair changes no per-pair
outcome and no counter sum.

Soundness argument (and one fix to the paper)
---------------------------------------------
All four algorithms restrict re-evaluation using materialized facts:

* Algorithm 7 (add/tighten predicate in rule r): only pairs matched *by r*
  can change; on failure, only rules **after** r need evaluation, because
  every rule before r was observed false for those pairs.
* Algorithm 8 (relax/remove predicate of rule r): only pairs on which the
  edited predicate was observed false can flip to matched.
* Algorithm 9 (remove rule r): only pairs matched by r change; rules
  before r were observed false, so only rules **after** r need evaluation.
* Algorithm 10 (add rule): only currently-unmatched pairs, only the new
  rule (it is appended last).

The "rules before r are false" steps rest on an *attribution invariant*:
for every matched pair, all rules preceding its attributed (first-true)
rule are currently false.  The paper's Algorithm 8 as written re-checks
only **unmatched** pairs, which silently breaks that invariant: relaxing
rule q may make q true for a pair currently matched by a later rule x, and
a subsequent tighten/remove on x would then wrongly unmatch the pair
(rules before x are skipped, so the now-true q is never consulted).  We
therefore extend Algorithm 8's affected set with matched pairs whose
attribution lies *after* the relaxed rule; for those we re-evaluate the
relaxed rule and re-attribute when it is now true.  Labels never change
for such pairs — only the attribution moves — so the asymptotic savings
of the paper's algorithm are preserved while restoring the invariant.
(Property-based tests in ``tests/test_incremental_properties.py`` fail
within a few examples if this extension is disabled.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ChangeError
from .changes import (
    AddPredicate,
    AddRule,
    Change,
    RelaxPredicate,
    RemovePredicate,
    RemoveRule,
    TightenPredicate,
)
from .state import MatchState, check_engine
from .stats import MatchStats


@dataclass
class IncrementalResult:
    """Outcome of one incremental change application."""

    change: Change
    stats: MatchStats
    affected_pairs: int
    newly_matched: int
    newly_unmatched: int

    @property
    def elapsed_seconds(self) -> float:
        return self.stats.elapsed_seconds

    def summary(self) -> str:
        return (
            f"{self.change.describe()}: affected={self.affected_pairs} "
            f"+{self.newly_matched}/-{self.newly_unmatched} matches, "
            f"{self.stats.elapsed_seconds * 1000:.2f}ms "
            f"(computed={self.stats.feature_computations}, "
            f"hits={self.stats.memo_hits})"
        )

    def __repr__(self) -> str:
        return f"IncrementalResult({self.summary()})"


def _start(state: MatchState, change: Change, engine: str) -> Tuple[float, MatchStats]:
    """Check the edit and the engine before anything changes."""
    started = time.perf_counter()
    check_engine(engine, auto=True)
    change.validate(state.function)
    return started, MatchStats()


def _evaluator(state: MatchState, stats: MatchStats, engine: str):
    """The edit's row evaluator, built when it first has rows to evaluate
    (after the edit is applied, so ``"auto"`` resolves against the edited
    function's plan)."""
    return state.evaluator(stats, state.resolve_engine(engine))


def _finish(
    change: Change,
    stats: MatchStats,
    started: float,
    evaluator,
    metrics,
    affected: int,
    newly_matched: int,
    newly_unmatched: int,
) -> IncrementalResult:
    stats.elapsed_seconds = time.perf_counter() - started
    stats.pairs_evaluated = affected
    if metrics is not None and evaluator is not None:
        evaluator.report_metrics(metrics)
    return IncrementalResult(
        change=change,
        stats=stats,
        affected_pairs=affected,
        newly_matched=newly_matched,
        newly_unmatched=newly_unmatched,
    )


# ---------------------------------------------------------------------------
# Algorithm 7: add a predicate / tighten a predicate
# ---------------------------------------------------------------------------


def apply_strictening(
    state: MatchState, change: Change, engine: str = "scalar", metrics=None
) -> IncrementalResult:
    """Algorithm 7: the rule's true-set can only shrink.

    Re-evaluate the changed predicate on M(r); pairs that fail fall
    through to the rules after r.  Existing predicate-false bits remain
    sound under tightening (false stays false), so nothing is reset.
    """
    started, stats = _start(state, change, engine)
    if isinstance(change, AddPredicate):
        rule_name, changed_slot = change.rule_name, change.predicate.slot
    elif isinstance(change, TightenPredicate):
        rule_name, changed_slot = change.rule_name, change.slot
    else:
        raise ChangeError(f"apply_strictening cannot handle {change!r}")

    affected = state.matched_rows(rule_name)
    state.function = change.apply_to(state.function)
    changed_predicate = state.function.rule(rule_name).predicate_by_slot(changed_slot)
    rule_position = state.function.rule_index(rule_name)

    evaluator = None
    newly_unmatched = 0
    # Most edits touch no pair; those build no evaluator and make no
    # array calls.
    if affected.size:
        evaluator = _evaluator(state, stats, engine)
        passing = evaluator.predicate_rows(changed_predicate, rule_name, affected)
        failing = np.setdiff1d(affected, passing, assume_unique=True)
        if failing.size:
            state.clear_rule_match_rows(failing, rule_name)
            # match_rows records the new attribution of the re-matched pairs.
            fell_out = failing[~evaluator.match_rows(failing, rule_position + 1)]
            state.labels[fell_out] = False
            newly_unmatched = int(fell_out.size)
    return _finish(
        change, stats, started, evaluator, metrics, int(affected.size), 0,
        newly_unmatched,
    )


# ---------------------------------------------------------------------------
# Algorithm 8: remove a predicate / relax a predicate
# ---------------------------------------------------------------------------


def apply_loosening(
    state: MatchState, change: Change, engine: str = "scalar", metrics=None
) -> IncrementalResult:
    """Algorithm 8: the rule's true-set can only grow.

    Candidates to flip are the pairs on which the edited predicate was
    observed false (no other pair's evaluation involved this predicate as
    the blocker).  Currently-unmatched ones may become matches; matched
    ones attributed to a *later* rule are re-checked for re-attribution to
    preserve the attribution invariant (see module docstring).

    The edited slot's false-bitmap is rebuilt from this pass's
    observations: a relax makes old false-bits unverifiable, so bits are
    kept only where re-evaluation confirms falseness.
    """
    started, stats = _start(state, change, engine)
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
    # The edited predicate first, then the rest of the rule.  The paper's
    # §6.2.2 footnote: with check-cache-first the historical predicate
    # order is pair-dependent, so all other predicates are re-checked.
    relaxed = () if removed else (rule.predicate_by_slot(slot),)
    others = tuple(predicate for predicate in rule.predicates if predicate.slot != slot)

    if removed:
        state.drop_predicate(rule_name, slot)
    else:
        # Old false-bits are stale under the looser threshold; keep only
        # what this pass re-verifies.
        state.reset_predicate_false(rule_name, slot)

    evaluator = None
    examined = failed
    if failed.size:
        # Skip pairs matched by this rule or an earlier one: the invariant
        # only covers rules before the attribution, which don't include r.
        skip = state.labels[failed] & (state.attribution[failed] <= rule_position)
        examined = failed[~skip]
    rows = examined
    if rows.size:
        evaluator = _evaluator(state, stats, engine)
        for predicate in relaxed + others:
            rows = evaluator.predicate_rows(predicate, rule_name, rows)
            if rows.size == 0:
                break

    newly_matched = 0
    if rows.size:  # (recording no rows would still allocate r's bitmap)
        currently_matched = state.labels[rows]
        # Re-attribution (r precedes the current attribution), grouped by
        # the old attributed rule so each group's bitmap clears in one write.
        re_attributed = rows[currently_matched]
        old_attrs = state.attribution[re_attributed]
        for old_index in np.unique(old_attrs):
            state.clear_rule_match_rows(
                re_attributed[old_attrs == old_index],
                state.function.rules[int(old_index)].name,
            )
        state.record_rule_match_rows(rows, rule_name)
        fresh = rows[~currently_matched]
        state.labels[fresh] = True
        newly_matched = int(fresh.size)
    return _finish(
        change, stats, started, evaluator, metrics, int(examined.size),
        newly_matched, 0,
    )


# ---------------------------------------------------------------------------
# Algorithm 9: remove a rule
# ---------------------------------------------------------------------------


def apply_remove_rule(
    state: MatchState, change: RemoveRule, engine: str = "scalar", metrics=None
) -> IncrementalResult:
    """Algorithm 9: pairs matched by the removed rule fall through to the
    rules after it (earlier rules are false by the attribution invariant)."""
    started, stats = _start(state, change, engine)
    rule_name = change.rule_name
    affected = state.matched_rows(rule_name)
    old_index = state.function.rule_index(rule_name)
    state.function = change.apply_to(state.function)
    state.drop_rule(rule_name, old_index)

    evaluator = None
    newly_unmatched = 0
    if affected.size:
        evaluator = _evaluator(state, stats, engine)
        # drop_rule cleared the bitmap wholesale; fix these pairs' entries.
        state.attribution[affected] = -1
        # Positions shifted down by one for rules after the removed one.
        fell_out = affected[~evaluator.match_rows(affected, old_index)]
        state.labels[fell_out] = False
        newly_unmatched = int(fell_out.size)
    return _finish(
        change, stats, started, evaluator, metrics, int(affected.size), 0,
        newly_unmatched,
    )


# ---------------------------------------------------------------------------
# Algorithm 10: add a rule
# ---------------------------------------------------------------------------


def apply_add_rule(
    state: MatchState, change: AddRule, engine: str = "scalar", metrics=None
) -> IncrementalResult:
    """Algorithm 10: evaluate only the new rule, only on unmatched pairs.

    The new rule is appended at the end of the evaluation order, so for
    every already-matched pair nothing changes (its attributed rule still
    fires first), and for unmatched pairs every older rule is already
    known false.
    """
    started, stats = _start(state, change, engine)
    affected = state.unmatched_rows()
    state.function = change.apply_to(state.function)

    evaluator = None
    newly_matched = 0
    if affected.size:
        evaluator = _evaluator(state, stats, engine)
        won = affected[evaluator.match_rows(affected, len(state.function.rules) - 1)]
        state.labels[won] = True
        newly_matched = int(won.size)
    return _finish(
        change, stats, started, evaluator, metrics, int(affected.size),
        newly_matched, 0,
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def apply_change(
    state: MatchState, change: Change, engine: str = "scalar", metrics=None
) -> IncrementalResult:
    """Apply any change with its matching incremental algorithm.

    ``engine`` (``"scalar"``, ``"columnar"``, or ``"auto"``, resolved
    against the edited function's plan) picks the row evaluator the
    algorithm runs against; labels, state, and counters are identical
    either way.  ``metrics`` (a metrics registry) optionally receives the
    evaluator's ``engine.*`` counters.
    """
    if isinstance(change, (AddPredicate, TightenPredicate)):
        algorithm = apply_strictening
    elif isinstance(change, (RemovePredicate, RelaxPredicate)):
        algorithm = apply_loosening
    elif isinstance(change, RemoveRule):
        algorithm = apply_remove_rule
    elif isinstance(change, AddRule):
        algorithm = apply_add_rule
    else:
        raise ChangeError(f"no incremental algorithm for {type(change).__name__}")
    return algorithm(state, change, engine, metrics)
