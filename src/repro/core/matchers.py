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
how the columnar executor runs its few-row calls pair by pair.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..data.pairs import CandidatePair, CandidateSet, PairId
from ..errors import MatchingError
from .memo import ArrayMemo, FeatureMemo, HashMemo, ValueCache
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
    parallel executor's workers record into a ``TraceLog`` (picklable —
    plain lists of tuples) and the parent replays it into the session's
    :class:`~repro.core.state.MatchState` with each chunk's local indices
    translated back to global ones.  Replay order equals observation order,
    so a replayed state is indistinguishable from one recorded live.
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
    # append in ascending row order; since the bitmaps any replay target
    # materializes are sets, batching changes nothing observable.

    def record_rule_match_rows(self, rows, rule_name: str) -> None:
        self.rule_matches.extend((int(row), rule_name) for row in rows)

    def record_predicate_false_rows(self, rows, rule_name: str, slot: str) -> None:
        self.predicate_falses.extend((int(row), rule_name, slot) for row in rows)

    def replay_into(
        self, recorder: TraceRecorder, index_offset: int = 0
    ) -> None:
        """Feed every remembered fact to ``recorder``, shifting pair
        indices by ``index_offset`` (a chunk's global start position)."""
        for pair_index, rule_name, slot in self.predicate_falses:
            recorder.record_predicate_false(
                pair_index + index_offset, rule_name, slot
            )
        for pair_index, rule_name in self.rule_matches:
            recorder.record_rule_match(pair_index + index_offset, rule_name)

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
        """Match labels for ``rows`` over ``rules[start_rule:]``, as a bool
        mask aligned with ``rows``; matches are recorded, labels are not
        written."""
        rows = np.asarray(rows, dtype=np.int64)
        self.rows += int(rows.size)
        candidates = self.candidates
        rules = self.rules[start_rule:]
        first_matching_rule = self.evaluator.first_matching_rule
        return np.array(
            [
                first_matching_rule(candidates[row], rules) is not None
                for row in rows.tolist()
            ],
            dtype=bool,
        )

    def report_metrics(self, registry) -> None:
        """Nothing to fold: the per-pair path keeps no engine counters."""


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
