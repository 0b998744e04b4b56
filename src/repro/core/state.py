"""Materialized matching state — what incremental matching remembers.

§6.1 of the paper lists exactly three artifacts to materialize between
debugging iterations, and :class:`MatchState` stores exactly those:

* **the feature memo** — every similarity value computed so far (lazy, so
  only what some rule actually needed);
* **per rule**: a bitmap of the pairs the rule matched;
* **per predicate**: a bitmap of the pairs on which it evaluated false.

Plus the current match labels.  The bitmaps are *observational*: early
exit means many (pair, rule/predicate) outcomes are simply never computed,
so a clear bit means "not observed false/matched", never "observed
true/unmatched".  Every incremental algorithm in
:mod:`repro.core.incremental` relies only on set bits, which is what makes
them sound.

Attribution detail: with inter-rule early exit, a matched pair's bitmap
bit is set on the *first* true rule only — which is exactly the invariant
Algorithm 7's fall-through uses (all earlier rules were observed false,
all later rules unobserved).

Next to the function the state owns that function's compiled
:class:`~repro.engine.MatchPlan`: reading it after an edit patches it
(:meth:`~repro.engine.MatchPlan.for_function` re-plans only the rules the
held plan lacks), checkpoints capture it by reference, and
:meth:`MatchState.with_rows` carries it across ingests unchanged.  An
``"auto"`` engine resolves against it in one place,
:meth:`MatchState.resolve_engine`.

``MatchState`` implements the matcher's ``TraceRecorder`` protocol, so the
initial full run and all incremental re-evaluations feed the same bitmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.pairs import CandidateSet
from ..errors import MatchingError, StateError
from .matchers import DynamicMemoMatcher, MatchResult, PairEvaluator, PairRows
from .memo import ArrayMemo, FeatureMemo, HashMemo
from .rules import MatchingFunction
from .stats import MatchStats

#: Key of a predicate bitmap: (rule name, predicate slot).
SlotKey = Tuple[str, str]

_NO_ROWS = np.empty(0, dtype=np.int64)


def check_engine(engine: str, auto: bool = False) -> None:
    """Reject an engine :meth:`MatchState.evaluator` cannot build or,
    with ``auto``, one :meth:`MatchState.resolve_engine` cannot resolve."""
    names = ("auto", "scalar", "columnar") if auto else ("scalar", "columnar")
    if engine not in names:
        expected = ", ".join(map(repr, names[:-1])) + f" or {names[-1]!r}"
        raise MatchingError(f"engine must be {expected}, got {engine!r}")


@dataclass(frozen=True)
class StateCheckpoint:
    """Everything a rule edit can change, captured for rollback.

    Produced by :meth:`MatchState.checkpoint`, consumed (repeatedly — a
    checkpoint is never invalidated by restoring it) by
    :meth:`MatchState.restore`.  ``memo_snapshot`` is ``None`` unless the
    checkpoint was taken with ``include_memo=True``; see
    :meth:`MatchState.checkpoint` for why memo capture is optional.
    """

    function: "MatchingFunction"
    labels: np.ndarray
    attribution: np.ndarray
    rule_matched: Dict[str, np.ndarray]
    predicate_false: Dict[SlotKey, np.ndarray]
    memo_snapshot: Optional[object] = None
    #: the state's plan as held at capture (patched to ``function`` on
    #: the first read after :meth:`MatchState.restore`).
    plan: Optional[object] = None

    def nbytes(self) -> int:
        """Approximate bytes held by the checkpoint's copies."""
        total = int(self.labels.nbytes) + int(self.attribution.nbytes)
        total += sum(int(b.nbytes) for b in self.rule_matched.values())
        total += sum(int(b.nbytes) for b in self.predicate_false.values())
        return total


class MatchState:
    """Matching state for one (function, candidate set) debugging session."""

    def __init__(
        self,
        function: MatchingFunction,
        candidates: CandidateSet,
        memo: FeatureMemo,
        check_cache_first: bool = False,
        kernels=None,
        plan=None,
    ):
        self.function = function
        self.candidates = candidates
        self.memo = memo
        self.check_cache_first = check_cache_first
        # Optional repro.kernels.FeatureKernels shared by every evaluator
        # built over this state (incremental updates, streaming re-match).
        self.kernels = kernels
        # A MatchPlan of this or an earlier version of ``function``; read
        # it through :attr:`plan`, which brings it up to date.
        self._plan = plan
        self.labels = np.zeros(len(candidates), dtype=bool)
        self._rule_matched: Dict[str, np.ndarray] = {}
        self._predicate_false: Dict[SlotKey, np.ndarray] = {}
        # Rule-position attribution per pair (-1 = unmatched).  Maintains
        # the invariant every "only rules after r" optimization rests on:
        # all rules strictly before a pair's attributed rule are currently
        # false for that pair.  See repro.core.incremental's module
        # docstring for why relax edits must actively preserve this.
        self.attribution = np.full(len(candidates), -1, dtype=np.int32)

    # ------------------------------------------------------------------
    # The plan
    # ------------------------------------------------------------------

    @property
    def plan(self):
        """The :class:`~repro.engine.MatchPlan` of the current function.

        Patched when read, not when the function changes: an edit only
        assigns :attr:`function`, and the first read after it re-plans just
        the rules the held plan lacks
        (:meth:`~repro.engine.MatchPlan.for_function`) — so edits that
        evaluate no row, and scalar edits, never pay for it.  Sessions
        hand the state a plan compiled against their kernels and cost
        estimates; a state built without one compiles it on first use
        from its own kernels, without estimates.
        """
        if self._plan is None:
            from ..engine import plan_function  # local: avoids an import cycle

            self._plan = plan_function(
                self.function,
                kernels=self.kernels,
                check_cache_first=self.check_cache_first,
            )
        elif self._plan.function is not self.function:
            self._plan = self._plan.for_function(self.function)
        return self._plan

    @plan.setter
    def plan(self, plan) -> None:
        # Any plan compiled against this state's kernels will do (one for
        # another version of the function is patched on the next read);
        # ``None`` makes the next read compile afresh.
        self._plan = plan

    def resolve_engine(self, engine: str) -> str:
        """The evaluator ``engine`` names for the function as it is now.

        ``"auto"`` becomes the current plan's choice
        (:meth:`~repro.engine.MatchPlan.engine_for`), the plan a columnar
        evaluator built now would run; reading it patches the plan to any
        edit since.  ``"scalar"`` and ``"columnar"`` pass through without
        reading the plan.
        """
        return self.plan.engine_for(engine) if engine == "auto" else engine

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_initial_run(
        cls,
        function: MatchingFunction,
        candidates: CandidateSet,
        memo_backend: str = "array",
        memo: Optional[FeatureMemo] = None,
        check_cache_first: bool = False,
        profiler=None,
        kernels=None,
        engine: str = "scalar",
        metrics=None,
        plan=None,
    ) -> Tuple["MatchState", MatchResult]:
        """Run DM+EE once, materializing state as a side effect.

        This is the "first iteration is slow" of the paper's Figure 5C —
        the memo is cold and every bitmap is built from scratch.
        ``profiler`` (a :class:`repro.observability.Profiler`) samples
        observed costs during the run without touching the counters.

        ``engine="columnar"`` runs the same DM+EE semantics through the
        set-at-a-time :class:`~repro.engine.ColumnarMatcher` (bit-identical
        labels, counters, and bitmaps); ``metrics`` (a registry) then
        receives the ``engine.*`` counters.  ``"auto"`` resolves against
        the state's plan (:meth:`resolve_engine`).  ``plan`` (a
        :class:`~repro.engine.MatchPlan` for ``function``) becomes the
        state's plan and drives the columnar run.
        """
        check_engine(engine, auto=True)
        if memo is None:
            names = [feature.name for feature in function.features()]
            memo = (
                ArrayMemo(len(candidates), names)
                if memo_backend == "array"
                else HashMemo(len(candidates), names)
            )
        state = cls(
            function, candidates, memo, check_cache_first, kernels=kernels, plan=plan
        )
        engine = state.resolve_engine(engine)
        if engine == "columnar":
            from ..engine import ColumnarMatcher  # local: avoids an import cycle

            matcher = ColumnarMatcher(
                memo=memo,
                check_cache_first=check_cache_first,
                recorder=state,
                profiler=profiler,
                kernels=kernels,
                plan=state.plan,
            )
        else:
            matcher = DynamicMemoMatcher(
                memo=memo,
                check_cache_first=check_cache_first,
                recorder=state,
                profiler=profiler,
                kernels=kernels,
            )
        result = matcher.run(function, candidates)
        state.labels = result.labels.copy()
        if engine == "columnar" and metrics is not None:
            matcher.last_executor.report_metrics(metrics)
        return state, result

    # ------------------------------------------------------------------
    # Row evaluators (the engine a re-evaluation runs on)
    # ------------------------------------------------------------------

    def evaluator(self, stats: MatchStats, engine: str, profiler=None):
        """A row evaluator over this state's function as it is now.

        The protocol Algorithms 7-10 and the streaming re-match run
        against (see :mod:`repro.core.incremental`): ``"scalar"`` gives a
        :class:`~repro.core.matchers.PairRows` over the function's rules,
        which never reads :attr:`plan`; ``"columnar"`` a
        :class:`~repro.engine.ColumnarExecutor` over :attr:`plan`.  Build
        it after an edit is applied to :attr:`function`.  Either records
        into this state and counts into ``stats`` (and ``profiler``).
        """
        if engine == "columnar":
            from ..engine import ColumnarExecutor  # local: avoids an import cycle

            return ColumnarExecutor(
                self.plan,
                self.candidates,
                self.memo,
                stats,
                recorder=self,
                profiler=profiler,
                kernels=self.kernels,
            )
        check_engine(engine)
        evaluator = PairEvaluator(
            stats,
            memo=self.memo,
            recorder=self,
            check_cache_first=self.check_cache_first,
            profiler=profiler,
            kernels=self.kernels,
        )
        return PairRows(evaluator, self.candidates, self.function.rules)

    # ------------------------------------------------------------------
    # TraceRecorder protocol (fed by matchers and incremental updates)
    # ------------------------------------------------------------------

    def record_rule_match(self, pair_index: int, rule_name: str) -> None:
        self._rule_bitmap(rule_name)[pair_index] = True
        self.attribution[pair_index] = self.function.rule_index(rule_name)

    def record_predicate_false(
        self, pair_index: int, rule_name: str, slot: str
    ) -> None:
        self._slot_bitmap((rule_name, slot))[pair_index] = True

    # Bulk recorders (the columnar engine's and Algorithms 7-10's batched
    # writes).  Bitmaps are sets, so one fancy-indexed write per batch is
    # observationally identical to the scalar per-pair calls.

    def record_rule_match_rows(self, rows, rule_name: str) -> None:
        self._rule_bitmap(rule_name)[rows] = True
        self.attribution[rows] = self.function.rule_index(rule_name)

    def record_predicate_false_rows(self, rows, rule_name: str, slot: str) -> None:
        self._slot_bitmap((rule_name, slot))[rows] = True

    def record_predicate_false_groups(self, rows, keys, bounds) -> None:
        """``rows[bounds[i]:bounds[i + 1]]`` false on the predicate
        ``keys[i]``, a (rule name, slot) pair, for every ``i``: the
        per-pair decision pass's writes, one per bitmap."""
        bitmaps = self._predicate_false
        for key, start, end in zip(keys, bounds, bounds[1:]):
            bitmap = bitmaps.get(key)
            if bitmap is None:
                bitmap = self._slot_bitmap(key)
            bitmap[rows[start:end]] = True

    def clear_rule_match_rows(self, rows, rule_name: str) -> None:
        bitmap = self._rule_matched.get(rule_name)
        if bitmap is not None:
            bitmap[rows] = False
        self.attribution[rows] = -1

    # ------------------------------------------------------------------
    # Bitmap access
    # ------------------------------------------------------------------

    def _rule_bitmap(self, rule_name: str) -> np.ndarray:
        bitmap = self._rule_matched.get(rule_name)
        if bitmap is None:
            bitmap = np.zeros(len(self.candidates), dtype=bool)
            self._rule_matched[rule_name] = bitmap
        return bitmap

    def _slot_bitmap(self, key: SlotKey) -> np.ndarray:
        bitmap = self._predicate_false.get(key)
        if bitmap is None:
            bitmap = np.zeros(len(self.candidates), dtype=bool)
            self._predicate_false[key] = bitmap
        return bitmap

    def matched_rows(self, rule_name: str) -> np.ndarray:
        """M(r): pairs attributed to ``rule_name``, as a sorted int64 row array."""
        bitmap = self._rule_matched.get(rule_name)
        if bitmap is None:
            return _NO_ROWS
        return np.flatnonzero(bitmap)

    def failed_rows(self, rule_name: str, slot: str) -> np.ndarray:
        """U(p): pairs on which the predicate was observed false, as a
        sorted int64 row array."""
        bitmap = self._predicate_false.get((rule_name, slot))
        if bitmap is None:
            return _NO_ROWS
        return np.flatnonzero(bitmap)

    def unmatched_rows(self) -> np.ndarray:
        """Unmatched pairs as a sorted int64 row array."""
        return np.flatnonzero(~self.labels)

    def matched_by_rule(self, rule_name: str) -> List[int]:
        """M(r): indices of pairs attributed to ``rule_name``."""
        return self.matched_rows(rule_name).tolist()

    def failed_predicate(self, rule_name: str, slot: str) -> List[int]:
        """U(p): indices of pairs on which the predicate was observed false."""
        return self.failed_rows(rule_name, slot).tolist()

    def drop_rule(self, rule_name: str, old_index: int) -> None:
        """Forget all bitmaps of a removed rule and shift attributions.

        ``old_index`` is the rule's position in the *pre-removal* function;
        attributions above it slide down by one so they keep pointing at
        the same rules in the post-removal function.
        """
        self._rule_matched.pop(rule_name, None)
        for key in [key for key in self._predicate_false if key[0] == rule_name]:
            del self._predicate_false[key]
        above = self.attribution > old_index
        self.attribution[above] -= 1

    def drop_predicate(self, rule_name: str, slot: str) -> None:
        """Forget a removed predicate's bitmap."""
        self._predicate_false.pop((rule_name, slot), None)

    def reset_predicate_false(self, rule_name: str, slot: str) -> None:
        """Zero a predicate's bitmap (used when a relax makes it stale)."""
        bitmap = self._predicate_false.get((rule_name, slot))
        if bitmap is not None:
            bitmap[:] = False

    # ------------------------------------------------------------------
    # Checkpoint / rollback (the refinement search's scoring loop)
    # ------------------------------------------------------------------

    def checkpoint(self, include_memo: bool = False) -> "StateCheckpoint":
        """Capture everything a rule edit can change, for :meth:`restore`.

        The captured facts are the function and plan references (both
        immutable), labels, attribution, and both bitmap families.  The
        memo is *not* captured by default: memoized feature values depend
        only on the record pair, never on the matching function, so after
        a rollback every surviving memo entry is still correct — a
        deliberately retained warm cache that makes scoring candidate edit
        N+1 cheaper than candidate N.  ``include_memo=True`` additionally
        snapshots the memo for callers that need byte-identical accounting.

        Cost is O(pairs x allocated bitmaps) bytes of copying and no
        feature computation, which is what lets the refinement search
        score hundreds of candidate edits per second against one state.
        """
        return StateCheckpoint(
            function=self.function,
            labels=self.labels.copy(),
            attribution=self.attribution.copy(),
            rule_matched={
                name: bitmap.copy()
                for name, bitmap in self._rule_matched.items()
            },
            predicate_false={
                key: bitmap.copy()
                for key, bitmap in self._predicate_false.items()
            },
            memo_snapshot=self.memo.snapshot() if include_memo else None,
            plan=self._plan,
        )

    def restore(self, checkpoint: "StateCheckpoint") -> None:
        """Rewind to a :meth:`checkpoint`; the checkpoint stays reusable.

        Function, plan, labels, attribution, and bitmaps revert exactly
        (the plan by reference: O(1)); the memo keeps entries computed
        since the checkpoint (sound — see :meth:`checkpoint`) unless the
        checkpoint captured it.
        """
        if len(checkpoint.labels) != len(self.candidates):
            raise StateError(
                f"checkpoint is over {len(checkpoint.labels)} pairs but the "
                f"state holds {len(self.candidates)}; checkpoints do not "
                f"survive candidate-set changes (streaming ingest)"
            )
        self.function = checkpoint.function
        self._plan = checkpoint.plan
        self.labels = checkpoint.labels.copy()
        self.attribution = checkpoint.attribution.copy()
        self._rule_matched = {
            name: bitmap.copy()
            for name, bitmap in checkpoint.rule_matched.items()
        }
        self._predicate_false = {
            key: bitmap.copy()
            for key, bitmap in checkpoint.predicate_false.items()
        }
        if checkpoint.memo_snapshot is not None:
            self.memo.restore(checkpoint.memo_snapshot)

    # ------------------------------------------------------------------
    # Streaming support (record-level data deltas)
    # ------------------------------------------------------------------

    def forget_pairs(self, pair_indices: Sequence[int]) -> int:
        """Erase every materialized fact about the given pairs.

        Used when a record update makes its incident pairs' history stale:
        labels reset to unmatched, attribution to -1, every rule/predicate
        bit clears, and the memo rows evict.  The state stays sound —
        facts are removed, never asserted — so re-matching just those
        pairs restores full equivalence with a from-scratch run.

        Returns the number of memo entries evicted.
        """
        if len(pair_indices) == 0:
            return 0
        rows = np.asarray(pair_indices, dtype=np.int64)
        self.labels[rows] = False
        self.attribution[rows] = -1
        for bitmap in self._rule_matched.values():
            bitmap[rows] = False
        for bitmap in self._predicate_false.values():
            bitmap[rows] = False
        return self.memo.invalidate_pairs(pair_indices)

    def with_rows(self, candidates: CandidateSet, rows) -> "MatchState":
        """A new state over ``candidates``, laid out by ``rows``.

        ``candidates`` and ``rows`` (a :class:`~repro.data.pairs.RowDelta`)
        come from one :meth:`~repro.data.pairs.CandidateSet.with_delta`
        call on this state's candidate set.  Every surviving pair keeps its
        facts — memo entries, label, attribution, rule and predicate bits —
        under its new row; gained pairs start with none (unmatched,
        unattributed, cold memo rows).  Copy-on-write: this state is not
        changed, so an ingest that fails later can simply drop the copy.
        The function, its plan, the memo backend, and
        ``check_cache_first`` carry over.
        """
        if rows.size != len(candidates):
            raise StateError(
                f"row delta over {rows.size} pairs does not fit "
                f"{len(candidates)} candidates"
            )
        state = MatchState(
            self.function,
            candidates,
            self.memo.with_rows(rows),
            self.check_cache_first,
            kernels=self.kernels,
            plan=self._plan,
        )
        state.attribution = rows.take(self.attribution, -1)
        state.labels, *bitmaps = rows.take_each(
            [
                self.labels,
                *self._rule_matched.values(),
                *self._predicate_false.values(),
            ],
            False,
        )
        rule_names = list(self._rule_matched)
        state._rule_matched = dict(zip(rule_names, bitmaps))
        state._predicate_false = dict(
            zip(self._predicate_false, bitmaps[len(rule_names) :])
        )
        return state

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------

    def matched_indices(self) -> List[int]:
        return [int(index) for index in np.flatnonzero(self.labels)]

    def unmatched_indices(self) -> List[int]:
        return self.unmatched_rows().tolist()

    def match_count(self) -> int:
        return int(self.labels.sum())

    def bitmap_count(self) -> Tuple[int, int]:
        """(rule bitmaps, predicate bitmaps) currently allocated."""
        return len(self._rule_matched), len(self._predicate_false)

    def nbytes(self) -> Dict[str, int]:
        """Memory accounting for the §7.4 experiment, by component."""
        rule_bytes = sum(bitmap.nbytes for bitmap in self._rule_matched.values())
        predicate_bytes = sum(
            bitmap.nbytes for bitmap in self._predicate_false.values()
        )
        return {
            "memo": self.memo.nbytes(),
            "rule_bitmaps": rule_bytes,
            "predicate_bitmaps": predicate_bytes,
            "labels": int(self.labels.nbytes),
            "total": self.memo.nbytes()
            + rule_bytes
            + predicate_bytes
            + int(self.labels.nbytes),
        }

    def check_soundness(self) -> None:
        """Exhaustively verify every materialized fact (test/debug aid).

        Recomputes features from scratch and checks that (a) every set
        rule-bitmap bit marks a pair the rule is truly true for, (b) every
        set predicate-false bit marks a truly false predicate, (c) every
        matched pair's attributed rule is true and all earlier rules are
        false, (d) labels agree with the attribution array, and (e) rule
        bits agree with the attribution both ways: a set bit in M(r)
        marks a pair attributed to r, and every attributed pair has its
        rule's bit set.  O(|C| · |rules| · |predicates|) — never call
        this outside tests.
        """
        scores_cache: Dict[int, Dict[str, float]] = {}

        def score(pair_index: int, feature) -> float:
            pair_scores = scores_cache.setdefault(pair_index, {})
            value = pair_scores.get(feature.name)
            if value is None:
                pair = self.candidates[pair_index]
                value = feature.compute(pair.record_a, pair.record_b)
                pair_scores[feature.name] = value
            return value

        def rule_is_true(pair_index: int, rule) -> bool:
            return all(
                predicate.evaluate(score(pair_index, predicate.feature))
                for predicate in rule.predicates
            )

        for rule_name, bitmap in self._rule_matched.items():
            rule = self.function.rule(rule_name)
            for pair_index in np.flatnonzero(bitmap):
                if not rule_is_true(int(pair_index), rule):
                    raise StateError(
                        f"unsound rule bitmap: {rule_name} marked true for "
                        f"pair {pair_index} but evaluates false"
                    )
        for (rule_name, slot), bitmap in self._predicate_false.items():
            if rule_name not in self.function:
                raise StateError(f"stale predicate bitmap for removed rule {rule_name!r}")
            predicate = self.function.rule(rule_name).predicate_by_slot(slot)
            for pair_index in np.flatnonzero(bitmap):
                if predicate.evaluate(score(int(pair_index), predicate.feature)):
                    raise StateError(
                        f"unsound predicate bitmap: {rule_name}:{slot} marked "
                        f"false for pair {pair_index} but evaluates true"
                    )
        for position, rule in enumerate(self.function.rules):
            attributed = self.attribution == position
            bitmap = self._rule_matched.get(rule.name)
            if bitmap is None:
                bitmap = np.zeros_like(attributed)
            stray = np.flatnonzero(bitmap & ~attributed)
            if stray.size:
                raise StateError(
                    f"stale rule bitmap: {rule.name} marked for pair "
                    f"{stray[0]}, which is attributed to rule "
                    f"#{self.attribution[stray[0]]}"
                )
            unmarked = np.flatnonzero(attributed & ~bitmap)
            if unmarked.size:
                raise StateError(
                    f"pair {unmarked[0]} attributed to {rule.name} but its "
                    f"rule bitmap bit is clear"
                )
        for pair_index in range(len(self.candidates)):
            attributed = int(self.attribution[pair_index])
            if (attributed >= 0) != bool(self.labels[pair_index]):
                raise StateError(
                    f"label/attribution disagreement on pair {pair_index}"
                )
            if attributed < 0:
                continue
            if not rule_is_true(pair_index, self.function.rules[attributed]):
                raise StateError(
                    f"pair {pair_index} attributed to false rule "
                    f"{self.function.rules[attributed].name}"
                )
            for earlier in range(attributed):
                if rule_is_true(pair_index, self.function.rules[earlier]):
                    raise StateError(
                        f"attribution invariant broken: pair {pair_index} "
                        f"attributed to rule #{attributed} but rule "
                        f"#{earlier} is true"
                    )

    def validate_against(self, reference_labels: np.ndarray) -> None:
        """Raise StateError unless labels equal a from-scratch run's.

        Used by tests and (optionally) by paranoid sessions after a burst
        of incremental edits.
        """
        if len(reference_labels) != len(self.labels):
            raise StateError("reference labels have wrong length")
        disagreements = np.flatnonzero(self.labels != reference_labels)
        if len(disagreements):
            raise StateError(
                f"incremental state diverged from scratch run on "
                f"{len(disagreements)} pairs (first: {disagreements[:5].tolist()})"
            )

    def __repr__(self) -> str:
        rules, predicates = self.bitmap_count()
        return (
            f"MatchState({self.match_count()}/{len(self.candidates)} matched, "
            f"{rules} rule bitmaps, {predicates} predicate bitmaps, "
            f"memo={len(self.memo)} entries)"
        )
