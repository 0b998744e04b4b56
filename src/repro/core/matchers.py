"""The five matching strategies of the paper's Figure 3.

===========================  =============================================
Class                        Paper algorithm
===========================  =============================================
:class:`RudimentaryMatcher`  Algorithm 1 — every predicate of every rule,
                             every feature computed from scratch ("R").
:class:`EarlyExitMatcher`    Algorithm 3 — early exit, no memo ("EE").
:class:`PrecomputeMatcher`   Algorithm 2 (+ early exit) — production
                             precomputation ("PPR + EE") with the default
                             feature set, full precomputation ("FPR + EE")
                             when given a feature superset.
:class:`DynamicMemoMatcher`  Algorithm 4 — early exit + dynamic memoing
                             ("DM + EE"), the paper's contribution.
===========================  =============================================

All matchers produce identical labels (a property-based test enforces it);
they differ only in *when* feature values are computed, which the
:class:`~repro.core.stats.MatchStats` counters expose.

:class:`PairEvaluator` is the shared evaluation kernel — also reused by the
incremental algorithms (§6), which re-evaluate rule fragments for affected
pairs with exactly the same memo/recording semantics as a full run.
:class:`PairRows` puts it behind the row-evaluator protocol of
:mod:`repro.core.incremental` — the scalar engine of those algorithms, and
how the columnar executor runs its few-row calls pair by pair, after one
array pass has decided every rule the rows' memoized values settle.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..data.pairs import CandidatePair, CandidateSet, PairId
from ..errors import MatchingError
from .memo import ArrayMemo, FeatureMemo, HashMemo, ValueCache, feature_id
from .rules import Feature, MatchingFunction, Predicate, Rule
from .stats import MatchStats


class TraceRecorder(Protocol):
    """Receives the facts a matching run observes.

    Implemented by :class:`repro.core.state.MatchState` to materialize the
    §6.1 bitmaps; matchers call these hooks whenever the corresponding fact
    is *observed* (early exit means unobserved facts simply never arrive).
    """

    def record_rule_match(self, pair_index: int, rule_name: str) -> None: ...

    def record_predicate_false(
        self, pair_index: int, rule_name: str, slot: str
    ) -> None: ...


class TraceLog:
    """A :class:`TraceRecorder` that simply remembers the observed facts.

    Useful whenever the facts must outlive the run that produced them: the
    engine-parity suite records each engine's facts into a ``TraceLog``
    and compares the two.
    """

    __slots__ = ("rule_matches", "predicate_falses")

    def __init__(self):
        #: observed (pair_index, rule_name) match attributions, in order.
        self.rule_matches: List[Tuple[int, str]] = []
        #: observed (pair_index, rule_name, slot) false predicates, in order.
        self.predicate_falses: List[Tuple[int, str, str]] = []

    def record_rule_match(self, pair_index: int, rule_name: str) -> None:
        self.rule_matches.append((pair_index, rule_name))

    def record_predicate_false(
        self, pair_index: int, rule_name: str, slot: str
    ) -> None:
        self.predicate_falses.append((pair_index, rule_name, slot))

    # Bulk recorders (the columnar engine's batched trace writes).  Facts
    # append in ascending row order.

    def record_rule_match_rows(self, rows, rule_name: str) -> None:
        self.rule_matches.extend((int(row), rule_name) for row in rows)

    def record_predicate_false_rows(self, rows, rule_name: str, slot: str) -> None:
        self.predicate_falses.extend((int(row), rule_name, slot) for row in rows)

    def __len__(self) -> int:
        return len(self.rule_matches) + len(self.predicate_falses)

    def __repr__(self) -> str:
        return (
            f"TraceLog({len(self.rule_matches)} matches, "
            f"{len(self.predicate_falses)} false predicates)"
        )


class MatchResult:
    """Labels plus instrumentation for one matching run."""

    def __init__(self, candidates: CandidateSet, labels: np.ndarray, stats: MatchStats):
        if len(labels) != len(candidates):
            raise MatchingError(
                f"labels length {len(labels)} != candidate count {len(candidates)}"
            )
        self.candidates = candidates
        self.labels = labels
        self.stats = stats

    def matched_ids(self) -> List[PairId]:
        """Id pairs labeled as matches, in candidate order."""
        return [
            pair.pair_id for pair in self.candidates if self.labels[pair.index]
        ]

    def match_count(self) -> int:
        return int(self.labels.sum())

    def label_of(self, a_id: str, b_id: str) -> bool:
        return bool(self.labels[self.candidates.index_of(a_id, b_id)])

    def __repr__(self) -> str:
        return (
            f"MatchResult({self.match_count()}/{len(self.candidates)} matched; "
            f"{self.stats.summary()})"
        )


class PairEvaluator:
    """Evaluation kernel: feature fetch, predicate/rule/function evaluation.

    ``memo=None`` means every feature access recomputes (Algorithms 1/3);
    with a memo, first access computes and stores, later accesses hit
    (Algorithm 4).  ``check_cache_first`` applies the paper's §5.4.3
    runtime optimization: inside a rule, predicates whose features are
    already memoized for this pair are evaluated before the rest, with
    both groups keeping their static relative order.

    ``kernels`` (a :class:`repro.kernels.FeatureKernels`) routes supported
    token-based features through the record token cache — same values,
    same counters, less tokenization.  When the kernels object has
    ``use_bounds`` enabled, threshold predicates over supported features
    may additionally be decided from token-set sizes alone *before* the
    feature is computed or memoized; such decisions increment
    ``stats.bound_skips`` (not ``predicate_evaluations``) and are only
    taken when provably equal to the full evaluation's outcome.
    """

    def __init__(
        self,
        stats: MatchStats,
        memo: Optional[FeatureMemo] = None,
        recorder: Optional[TraceRecorder] = None,
        check_cache_first: bool = False,
        profiler=None,
        kernels=None,
    ):
        if check_cache_first and memo is None:
            raise MatchingError("check_cache_first requires a memo")
        self.stats = stats
        self.memo = memo
        self.recorder = recorder
        self.check_cache_first = check_cache_first
        # Optional repro.kernels.FeatureKernels; None = seed paths.
        self.kernels = kernels
        # Optional repro.observability.Profiler: samples wall-clock of
        # feature computations / rule evaluations and counts predicate
        # outcomes.  Never touches stats — with profiler=None the counters
        # and control flow are identical to the unprofiled build.
        self.profiler = profiler
        #: feature computations made without a kernel (the columnar
        #: engine's ``scalar_fallbacks`` counter, on this path).
        self.scalar_fallbacks = 0
        # Per-pair local view of the memo: within one pair's evaluation the
        # same feature may be referenced by hundreds of predicates across
        # rules, and a plain dict lookup is much cheaper than the backing
        # store's indexing.  Purely an access-path optimization — contents
        # always mirror the memo.
        self._local: dict = {}
        self._local_index: int = -1

    # -- feature access -------------------------------------------------

    def feature_value(self, pair: CandidatePair, feature: Feature) -> float:
        if self.memo is not None:
            if pair.index != self._local_index:
                self._local = {}
                self._local_index = pair.index
            cached = self._local.get(feature.name)
            if cached is not None:
                self.stats.memo_hits += 1
                return cached
            cached = self.memo.get(pair.index, feature.name)
            if cached is not None:
                self.stats.memo_hits += 1
                self._local[feature.name] = cached
                return cached
        profiler = self.profiler
        kernels = self.kernels
        use_kernel = kernels is not None and kernels.supports(feature)
        if not use_kernel:
            self.scalar_fallbacks += 1
        if profiler is None:
            if use_kernel:
                value = kernels.compute(feature, pair)
            else:
                value = feature.compute(pair.record_a, pair.record_b)
        elif profiler.sample_feature(feature.name):
            # Time the path actually taken, so observed costs reflect the
            # warm-cache reality drift detection compares against.
            started = profiler.clock()
            if use_kernel:
                value = kernels.compute(feature, pair)
            else:
                value = feature.compute(pair.record_a, pair.record_b)
            profiler.record_feature(feature.name, profiler.clock() - started)
        elif use_kernel:
            value = kernels.compute(feature, pair)
        else:
            value = feature.compute(pair.record_a, pair.record_b)
        self.stats.record_computation(feature.name)
        if self.memo is not None:
            self.memo.put(pair.index, feature.name, value)
            self._local[feature.name] = value
        return value

    # -- predicate / rule / function evaluation -------------------------

    def predicate_true(
        self, pair: CandidatePair, predicate: Predicate, rule_name: str
    ) -> bool:
        kernels = self.kernels
        if kernels is not None and kernels.use_bounds:
            feature_name = predicate.feature.name
            # A memoized value costs one lookup — cheaper than the bound
            # check, and skipping it would forfeit a guaranteed hit.
            known = (
                pair.index == self._local_index and feature_name in self._local
            ) or (
                self.memo is not None
                and self.memo.contains(pair.index, feature_name)
            )
            if not known:
                decided = kernels.try_bound(predicate, pair)
                if decided is not None:
                    self.stats.bound_skips += 1
                    if self.profiler is not None:
                        self.profiler.record_predicate(predicate.pid, decided)
                        self.profiler.record_bound_skip(predicate.pid)
                    if not decided and self.recorder is not None:
                        self.recorder.record_predicate_false(
                            pair.index, rule_name, predicate.slot
                        )
                    return decided
        value = self.feature_value(pair, predicate.feature)
        self.stats.predicate_evaluations += 1
        result = predicate.evaluate(value)
        if self.profiler is not None:
            self.profiler.record_predicate(predicate.pid, result)
        if not result and self.recorder is not None:
            self.recorder.record_predicate_false(
                pair.index, rule_name, predicate.slot
            )
        return result

    def _rule_predicate_order(
        self, pair: CandidatePair, rule: Rule
    ) -> Sequence[Predicate]:
        if not self.check_cache_first:
            return rule.predicates
        if pair.index != self._local_index:
            self._local = {}
            self._local_index = pair.index
        cached: List[Predicate] = []
        uncached: List[Predicate] = []
        for predicate in rule.predicates:
            name = predicate.feature.name
            if name in self._local or self.memo.contains(pair.index, name):
                cached.append(predicate)
            else:
                uncached.append(predicate)
        return cached + uncached

    def rule_true(self, pair: CandidatePair, rule: Rule) -> bool:
        """Evaluate one rule with intra-rule early exit."""
        self.stats.rule_evaluations += 1
        profiler = self.profiler
        if profiler is not None and profiler.sample_rule(rule.name):
            started = profiler.clock()
            result = True
            for predicate in self._rule_predicate_order(pair, rule):
                if not self.predicate_true(pair, predicate, rule.name):
                    result = False
                    break
            profiler.record_rule(rule.name, profiler.clock() - started)
            return result
        for predicate in self._rule_predicate_order(pair, rule):
            if not self.predicate_true(pair, predicate, rule.name):
                return False
        return True

    def first_matching_rule(
        self, pair: CandidatePair, rules: Iterable[Rule]
    ) -> Optional[str]:
        """First rule that is true for the pair (inter-rule early exit),
        recording the match attribution; ``None`` if no rule fires."""
        for rule in rules:
            if self.rule_true(pair, rule):
                if self.recorder is not None:
                    self.recorder.record_rule_match(pair.index, rule.name)
                return rule.name
        return None


def _compiled_bound(op: str, threshold: float) -> Tuple[float, float]:
    """``(sign, bound)`` with ``value * sign >= bound`` equal to the
    predicate's comparison for every float ``value`` (``==`` aside).

    ``<=``/``<`` negate both sides (exact in floating point); a strict
    comparison becomes ``>=`` against the next float up.  Nothing exceeds
    ``+inf``, so that bound is NaN, which every comparison fails.
    """
    sign = -1.0 if op in ("<=", "<") else 1.0
    bound = threshold * sign
    if op in (">", "<"):
        bound = math.nan if bound == math.inf else math.nextafter(bound, math.inf)
    return sign, bound


#: A :meth:`PairRows.match_rows` call decides in one array pass when its
#: rows times the rules it covers reach this; smaller calls only walk.
#: The pass costs a fixed NumPy overhead, the walk a few microseconds
#: per row and rule; docs/performance.md records the sweep.
DECIDE_ROW_RULES = 128

#: Slots per rule in the decision pass: a rule's memo flags are 8 bool
#: bytes, read as one little-endian uint64 word.
_SLOTS = 8
#: One 0x01 byte per slot: a word whose every slot is set.
_EVERY_SLOT = np.uint64(0x0101010101010101)


class _RuleArrays:
    """One rule compiled for the decision pass of :meth:`PairRows.match_rows`.

    ``table`` is ``5 x 1 x 8`` float64, one column per predicate slot in the
    rule's order: its feature's :func:`~repro.core.memo.feature_id`, the
    ``sign`` and ``bound`` of :func:`_compiled_bound`, 1.0 for an ``==``,
    and 1.0 for a predicate (0.0 for the padding past the rule's end,
    which repeats its last feature).  ``None`` for a rule of more than 8
    predicates.  ``keys`` are the predicates' bitmap keys, (rule name,
    slot).  Independent of any memo, so it is built once per
    :class:`Rule` and cached on it.
    """

    __slots__ = ("table", "keys")

    def __init__(self, rule: Rule):
        predicates = rule.predicates
        self.keys = tuple((rule.name, p.slot) for p in predicates)
        self.table = None
        if len(predicates) <= _SLOTS:
            columns = [
                (
                    feature_id(p.feature.name),
                    *_compiled_bound(p.op, p.threshold),
                    p.op == "==",
                    1.0,
                )
                for p in predicates
            ]
            padding = (columns[-1][0], 1.0, -math.inf, 0.0, 0.0)
            columns += [padding] * (_SLOTS - len(columns))
            self.table = np.ascontiguousarray(
                np.array(columns, dtype=np.float64).T[:, None, :]
            )


def _rule_arrays(rule: Rule) -> _RuleArrays:
    arrays = rule._arrays
    if arrays is None:
        arrays = rule._arrays = _RuleArrays(rule)
    return arrays


class _SuffixPlan:
    """A rule sequence laid out for the decision pass: predicate ``k`` of
    rule ``r`` sits at ``[r, k]`` of ``rules x 8`` arrays.  Holds the
    rules, so the :data:`_SUFFIX_PLANS` key (their ids) stays theirs.
    ``feature_ids`` is ``None`` when some rule has more than 8
    predicates."""

    __slots__ = (
        "rules", "feature_ids", "signs", "bounds", "real", "padding", "equal",
        "lengths", "keys",
    )

    def __init__(self, rules: Tuple[Rule, ...]):
        self.rules = rules
        arrays = [rule._arrays or _rule_arrays(rule) for rule in rules]
        self.feature_ids = None
        if any(compiled.table is None for compiled in arrays):
            return
        feature_ids, self.signs, self.bounds, equal, real = np.concatenate(
            [compiled.table for compiled in arrays], axis=1
        )
        self.feature_ids = feature_ids.astype(np.int64)
        self.equal = np.flatnonzero(equal)
        self.real = real > 0
        self.padding = ~self.real
        self.lengths = self.real.sum(axis=1)
        #: ``keys[r][k]``: the bitmap key of predicate ``k`` of rule ``r``.
        self.keys = tuple(compiled.keys for compiled in arrays)


#: The last ``_SUFFIX_PLANS_LIMIT`` :class:`_SuffixPlan` s built, keyed by
#: their rules' ids.  Calls from one edited rule onward share a suffix
#: however the rules before it changed, so few distinct suffixes serve a
#: whole refinement search.
_SUFFIX_PLANS: dict = {}
_SUFFIX_PLANS_LIMIT = 64
_SUFFIX_PLANS_LOCK = threading.Lock()


def _suffix_plan(rules: Tuple[Rule, ...]) -> _SuffixPlan:
    key = tuple(map(id, rules))
    plan = _SUFFIX_PLANS.get(key)
    if plan is None:
        plan = _SuffixPlan(rules)
        with _SUFFIX_PLANS_LOCK:
            _SUFFIX_PLANS[key] = plan
            while len(_SUFFIX_PLANS) > _SUFFIX_PLANS_LIMIT:
                del _SUFFIX_PLANS[next(iter(_SUFFIX_PLANS))]
    return plan


class PairRows:
    """A :class:`PairEvaluator` behind the row-evaluator protocol.

    :meth:`predicate_rows` and :meth:`match_rows` take and return what
    their :class:`~repro.engine.ColumnarExecutor` namesakes do — int64
    rows in, surviving rows or a bool mask aligned with them out — but
    walk the rows one pair at a time.  Per pair the two paths leave the
    same labels, trace facts, memo entries, counters, and profiler
    counts.  This is the scalar engine of Algorithms 7-10 and of the
    streaming re-match (:meth:`~repro.core.state.MatchState.evaluator`),
    and the executor hands its few-row ``match_rows`` calls here: a pair
    costs a few dict lookups per predicate, where a columnar rule step
    pays a fixed NumPy cost however few rows it holds.

    Over an :class:`~repro.core.memo.ArrayMemo`, :meth:`match_rows` first
    decides in one array pass every rule whose outcome the rows' memoized
    values already settle (:meth:`_decide`); each row then walks
    :meth:`PairEvaluator.first_matching_rule` only from its first rule
    that needs a computation.
    """

    __slots__ = ("evaluator", "candidates", "rules", "rows")

    def __init__(
        self, evaluator: PairEvaluator, candidates: CandidateSet, rules: Sequence[Rule]
    ):
        self.evaluator = evaluator
        self.candidates = candidates
        self.rules = tuple(rules)
        #: rows handed to :meth:`match_rows`, summed over calls.
        self.rows = 0

    def predicate_rows(
        self, predicate: Predicate, rule_name: str, rows: np.ndarray
    ) -> np.ndarray:
        """The rows of ``rows`` on which ``predicate`` holds, in their
        order; false outcomes are recorded."""
        rows = np.asarray(rows, dtype=np.int64)
        candidates = self.candidates
        predicate_true = self.evaluator.predicate_true
        return rows[
            np.array(
                [
                    predicate_true(candidates[row], predicate, rule_name)
                    for row in rows.tolist()
                ],
                dtype=bool,
            )
        ]

    def match_rows(self, rows: np.ndarray, start_rule: int = 0) -> np.ndarray:
        """Match labels for ``rows`` (distinct) over ``rules[start_rule:]``,
        as a bool mask aligned with ``rows``; matches are recorded, labels
        are not written."""
        rows = np.asarray(rows, dtype=np.int64)
        self.rows += int(rows.size)
        labels = np.zeros(int(rows.size), dtype=bool)
        walks = self._decide(rows, start_rule, labels)
        candidates = self.candidates
        rules = self.rules
        first_matching_rule = self.evaluator.first_matching_rule
        row_list = rows.tolist()
        for position, rule in walks:
            labels[position] = (
                first_matching_rule(candidates[row_list[position]], rules[rule:])
                is not None
            )
        return labels

    # -- the decision pass ------------------------------------------------

    def _decide(self, rows: np.ndarray, start_rule: int, labels: np.ndarray):
        """Decide from memoized values what the walk would, for all rows.

        A rule is *decided false* for a row when the walk would reach a
        memoized false predicate before any unmemoized one: with
        check-cache-first, when any memoized predicate is false (the walk
        runs those first, in static order); without, when the first
        predicate in static order that is not memoized-and-true is
        memoized and false.  It is *decided true* when every predicate is
        memoized and true.  Each row's rules are decided in order up to
        the first that is not decided false, and the decided ones are
        recorded exactly as the walk records them: the first false
        predicate's bit, the match and its attribution, the counters and
        the profiler counts.

        Sets ``labels`` for the rows a decided-true rule matched and
        returns ``(position, rule)`` pairs: the rows left to walk and the
        rule each walk starts at, its first undecided one.  Without an
        :class:`~repro.core.memo.ArrayMemo`, or when no row has a memoized
        value, every row walks from ``start_rule``.
        """
        memo = self.evaluator.memo
        n_rules = len(self.rules) - start_rule
        every_row = [(position, start_rule) for position in range(int(rows.size))]
        if (
            type(memo) is not ArrayMemo
            or memo.dtype != np.float64
            or n_rules <= 0
            or len(every_row) * n_rules < DECIDE_ROW_RULES
        ):
            return every_row
        warm = memo.has_entries(rows)
        if not warm.any():
            return every_row
        plan = _suffix_plan(self.rules[start_rule:])
        if plan.feature_ids is None:
            return every_row
        walks = [(position, start_rule) for position in np.flatnonzero(~warm).tolist()]
        positions = np.flatnonzero(warm)
        walks += self._decide_rules(plan, rows, positions, start_rule, labels)
        return walks

    def _decide_rules(
        self,
        plan: _SuffixPlan,
        rows: np.ndarray,
        positions: np.ndarray,
        first: int,
        labels: np.ndarray,
    ) -> List[Tuple[int, int]]:
        """The decision over ``plan.rules`` (``rules[first:]``) for
        ``rows[positions]``; returns the walks of the rows it stopped at
        an undecided rule.

        Per (row, rule) the rule's memoized, false and true-or-padding
        slots are three uint64 words of 0x01/0x00 bytes, slot 0 lowest:
        ``x & -x`` isolates a word's first set slot, and a byte sum counts
        the memoized predicates the walk evaluates up to it.
        """
        evaluator = self.evaluator
        memo = evaluator.memo
        profiler = evaluator.profiler
        started = profiler.clock() if profiler is not None else 0.0
        block = rows[positions]
        n_rows = int(block.size)
        valid, values = memo.gather(block, memo.column_map().take(plan.feature_ids))
        valid &= plan.real
        truth = values * plan.signs >= plan.bounds
        if plan.equal.size:
            equal = plan.equal
            truth.reshape(n_rows, -1)[:, equal] = (
                values.reshape(n_rows, -1)[:, equal] == plan.bounds.ravel()[equal]
            )
        ok = valid & truth
        false = valid ^ ok
        ok |= plan.padding
        valid_words = valid.view("<u8")[..., 0]
        false_words = false.view("<u8")[..., 0]
        ok_words = ok.view("<u8")[..., 0]
        if evaluator.check_cache_first:
            first_false = false_words & (~false_words + np.uint64(1))
            decided_false = first_false != 0
        else:
            not_ok = ok_words ^ _EVERY_SLOT
            first_false = not_ok & (~not_ok + np.uint64(1))
            decided_false = (false_words & first_false) != 0

        n_rules = len(plan.rules)
        undecided = ~decided_false
        stop = undecided.argmax(axis=1)
        through = ~undecided[np.arange(n_rows), stop]
        stop[through] = n_rules
        # A row's rule at ``stop`` matches when every slot is true; rows
        # decided false through every rule read rule 0, decided false.
        matched = ok_words[np.arange(n_rows), stop % n_rules] == _EVERY_SLOT
        falses = np.arange(n_rules) < stop[:, None]
        false_rows, false_rules = np.nonzero(falses)
        first_false = first_false[false_rows, false_rules]
        matched_rows = np.flatnonzero(matched)
        matched_at = stop[matched_rows]

        # A decided-false rule's walk evaluates its memoized predicates up
        # to the first false one; a matching rule's, all of them.
        up_to = (first_false << np.uint64(8)) - np.uint64(1)
        counts = (valid_words[false_rows, false_rules] & up_to) * _EVERY_SLOT
        n_evaluated = int((counts >> np.uint64(56)).sum()) + int(
            plan.lengths[matched_at].sum()
        )
        n_rule_evaluations = int(false_rows.size) + int(matched_rows.size)
        stats = evaluator.stats
        stats.rule_evaluations += n_rule_evaluations
        stats.predicate_evaluations += n_evaluated
        stats.memo_hits += n_evaluated

        rules = plan.rules
        recorder = evaluator.recorder
        if recorder is not None and false_rows.size:
            slots = false_rules * _SLOTS + (np.log2(first_false).astype(np.int64) >> 3)
            order = slots.argsort(kind="stable")
            slots = slots[order]
            starts = np.flatnonzero(np.diff(slots, prepend=-1))
            keys = plan.keys
            _record_false_groups(
                recorder,
                block[false_rows[order]],
                [keys[slot >> 3][slot & 7] for slot in slots[starts].tolist()],
                [*starts.tolist(), len(slots)],
            )
        if recorder is not None and matched_rows.size:
            for rule in np.unique(matched_at).tolist():
                record_rule_match_rows(
                    recorder, block[matched_rows[matched_at == rule]], rules[rule].name
                )
        labels[positions[matched_rows]] = True

        if profiler is not None:
            last = np.full((n_rows, n_rules), -1)
            last[false_rows, false_rules] = np.log2(first_false).astype(np.int64) >> 3
            last[matched_rows, matched_at] = plan.lengths[matched_at] - 1
            evaluated = valid & (np.arange(_SLOTS) <= last[..., None])
            evals = evaluated.sum(axis=0)
            trues = (evaluated & truth).sum(axis=0)
            for rule, slot in zip(*np.nonzero(evals)):
                profiler.record_predicate_bulk(
                    rules[rule].predicates[slot].pid,
                    int(evals[rule, slot]),
                    int(trues[rule, slot]),
                )
            per_rule = falses.sum(axis=0)
            np.add.at(per_rule, matched_at, 1)
            seconds = (profiler.clock() - started) / max(n_rule_evaluations, 1)
            for rule in np.flatnonzero(per_rule).tolist():
                name = rules[rule].name
                sampled = profiler.count_rules(name, int(per_rule[rule]))
                if sampled:
                    profiler.record_rule_bulk(name, sampled, seconds)

        handed = ~through & ~matched
        return list(zip(positions[handed].tolist(), (stop[handed] + first).tolist()))

    def report_metrics(self, registry) -> None:
        """Nothing to fold: the per-pair path keeps no engine counters."""


def record_rule_match_rows(recorder, rows: np.ndarray, rule_name: str) -> None:
    """Record ``rule_name`` matching each of ``rows``: in one call when
    ``recorder`` has the bulk ``record_rule_match_rows``, else per row."""
    if recorder is None or rows.size == 0:
        return
    bulk = getattr(recorder, "record_rule_match_rows", None)
    if bulk is not None:
        bulk(rows, rule_name)
        return
    for row in rows.tolist():
        recorder.record_rule_match(row, rule_name)


def record_predicate_false_rows(
    recorder, rows: np.ndarray, rule_name: str, slot: str
) -> None:
    """Record the predicate ``(rule_name, slot)`` false on each of
    ``rows``: in one call when ``recorder`` has the bulk
    ``record_predicate_false_rows``, else per row."""
    if recorder is None or rows.size == 0:
        return
    bulk = getattr(recorder, "record_predicate_false_rows", None)
    if bulk is not None:
        bulk(rows, rule_name, slot)
        return
    for row in rows.tolist():
        recorder.record_predicate_false(row, rule_name, slot)


def _record_false_groups(recorder, rows, keys, bounds) -> None:
    """Record ``rows[bounds[i]:bounds[i + 1]]`` false on the predicate
    ``keys[i]`` (a (rule name, slot) pair) for every ``i``."""
    grouped = getattr(recorder, "record_predicate_false_groups", None)
    if grouped is not None:
        grouped(rows, keys, bounds)
        return
    for key, start, end in zip(keys, bounds, bounds[1:]):
        record_predicate_false_rows(recorder, rows[start:end], *key)


class Matcher:
    """Base class providing the run loop scaffolding and timing."""

    strategy_name = "matcher"

    def run(self, function: MatchingFunction, candidates: CandidateSet) -> MatchResult:
        stats = MatchStats()
        labels = np.zeros(len(candidates), dtype=bool)
        started = time.perf_counter()
        self._run(function, candidates, labels, stats)
        stats.elapsed_seconds = time.perf_counter() - started
        stats.pairs_evaluated = len(candidates)
        stats.pairs_matched = int(labels.sum())
        return MatchResult(candidates, labels, stats)

    def _run(
        self,
        function: MatchingFunction,
        candidates: CandidateSet,
        labels: np.ndarray,
        stats: MatchStats,
    ) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RudimentaryMatcher(Matcher):
    """Algorithm 1: evaluate everything, compute every feature from scratch.

    No early exit, no memo — the per-pair cost is
    ``Σ_r Σ_p cost(p)`` regardless of outcomes (the paper's C1).
    """

    strategy_name = "rudimentary"

    def _run(self, function, candidates, labels, stats) -> None:
        evaluator = PairEvaluator(stats)
        for pair in candidates:
            matched = False
            for rule in function.rules:
                stats.rule_evaluations += 1
                rule_result = True
                for predicate in rule.predicates:
                    # Deliberately no short-circuiting: Algorithm 1 treats
                    # predicates as black boxes and evaluates all of them.
                    if not evaluator.predicate_true(pair, predicate, rule.name):
                        rule_result = False
                matched = matched or rule_result
            labels[pair.index] = matched


class EarlyExitMatcher(Matcher):
    """Algorithm 3: early exit, but no memo — repeated features recompute."""

    strategy_name = "early_exit"

    def _run(self, function, candidates, labels, stats) -> None:
        evaluator = PairEvaluator(stats)
        for pair in candidates:
            labels[pair.index] = (
                evaluator.first_matching_rule(pair, function.rules) is not None
            )


class PrecomputeMatcher(Matcher):
    """Algorithm 2 (+ optional early exit): precompute, then match on lookups.

    ``features=None`` precomputes exactly the matching function's features
    — the paper's *production precomputation* (PPR), feasible only once a
    rule set is final.  Passing a feature superset models *full
    precomputation* (FPR): the analyst's whole candidate feature space is
    computed up front, including features no rule will ever use.

    ``use_value_cache=True`` shares computations between candidate pairs
    with identical attribute values (the paper's "hash table mapping pairs
    of attribute values to similarity function outputs").

    ``kernels`` (a :class:`repro.kernels.FeatureKernels`) replaces the
    per-feature-per-pair precompute loop with one batched column kernel
    per supported feature, landed via ``ArrayMemo.fill_column`` — same
    values and counters, one NumPy pass instead of a Python inner loop.
    """

    strategy_name = "precompute"

    def __init__(
        self,
        features: Optional[Sequence[Feature]] = None,
        early_exit: bool = True,
        use_value_cache: bool = False,
        kernels=None,
    ):
        self.features = list(features) if features is not None else None
        self.early_exit = early_exit
        self.use_value_cache = use_value_cache
        self.kernels = kernels

    def _run(self, function, candidates, labels, stats) -> None:
        features = self.features if self.features is not None else function.features()
        missing = {f.name for f in function.features()} - {f.name for f in features}
        if missing:
            raise MatchingError(
                f"precompute feature set lacks features used by the matching "
                f"function: {sorted(missing)}"
            )
        memo = ArrayMemo(len(candidates), [feature.name for feature in features])
        value_cache = ValueCache() if self.use_value_cache else None
        kernels = self.kernels
        for feature in features:
            use_kernel = kernels is not None and kernels.supports(feature)
            if use_kernel and value_cache is None:
                column = kernels.compute_column(feature, candidates)
                memo.fill_column(feature.name, column)
                count = len(candidates)
                stats.feature_computations += count
                stats.computations_by_feature[feature.name] += count
                continue
            for pair in candidates:
                if value_cache is not None:
                    value_a = pair.record_a.get(feature.attr_a)
                    value_b = pair.record_b.get(feature.attr_b)
                    cached = value_cache.lookup(feature.name, value_a, value_b)
                    if cached is not None:
                        stats.record_hit()
                        memo.put(pair.index, feature.name, cached)
                        continue
                    # Value-cache misses still compose with the kernel
                    # layer: a supported feature computes through the
                    # token cache (same value, fewer tokenizations)
                    # instead of silently bypassing it.
                    if use_kernel:
                        value = kernels.compute(feature, pair)
                    else:
                        value = feature.compute(pair.record_a, pair.record_b)
                    stats.record_computation(feature.name)
                    value_cache.store(feature.name, value_a, value_b, value)
                else:
                    value = feature.compute(pair.record_a, pair.record_b)
                    stats.record_computation(feature.name)
                memo.put(pair.index, feature.name, value)

        evaluator = PairEvaluator(stats, memo=memo, kernels=kernels)
        if self.early_exit:
            for pair in candidates:
                labels[pair.index] = (
                    evaluator.first_matching_rule(pair, function.rules) is not None
                )
        else:
            for pair in candidates:
                matched = False
                for rule in function.rules:
                    stats.rule_evaluations += 1
                    rule_result = True
                    for predicate in rule.predicates:
                        if not evaluator.predicate_true(pair, predicate, rule.name):
                            rule_result = False
                    matched = matched or rule_result
                labels[pair.index] = matched


class DynamicMemoMatcher(Matcher):
    """Algorithm 4: early exit + dynamic memoing — the paper's contribution.

    ``memo`` may be supplied to persist across runs (the debugging loop's
    key trick); otherwise a fresh one is created per run and exposed
    afterwards as :attr:`last_memo`.  ``recorder`` (usually a
    :class:`~repro.core.state.MatchState`) receives rule-match and
    predicate-false facts for incremental matching.
    """

    strategy_name = "dynamic_memo"

    def __init__(
        self,
        memo: Optional[FeatureMemo] = None,
        memo_backend: str = "array",
        check_cache_first: bool = False,
        recorder: Optional[TraceRecorder] = None,
        profiler=None,
        kernels=None,
    ):
        if memo_backend not in ("array", "hash"):
            raise MatchingError(
                f"memo_backend must be 'array' or 'hash', got {memo_backend!r}"
            )
        self.memo = memo
        self.memo_backend = memo_backend
        self.check_cache_first = check_cache_first
        self.recorder = recorder
        self.profiler = profiler
        self.kernels = kernels
        self.last_memo: Optional[FeatureMemo] = memo

    def _make_memo(self, function: MatchingFunction, candidates: CandidateSet) -> FeatureMemo:
        names = [feature.name for feature in function.features()]
        if self.memo_backend == "array":
            return ArrayMemo(len(candidates), names)
        return HashMemo(len(candidates), names)

    def _run(self, function, candidates, labels, stats) -> None:
        memo = self.memo if self.memo is not None else self._make_memo(function, candidates)
        self.last_memo = memo
        evaluator = PairEvaluator(
            stats,
            memo=memo,
            recorder=self.recorder,
            check_cache_first=self.check_cache_first,
            profiler=self.profiler,
            kernels=self.kernels,
        )
        for pair in candidates:
            labels[pair.index] = (
                evaluator.first_matching_rule(pair, function.rules) is not None
            )
