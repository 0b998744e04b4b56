"""Columnar executor: set-at-a-time evaluation of a :class:`MatchPlan`.

Where the scalar :class:`~repro.core.matchers.PairEvaluator` walks
``for pair in candidates`` and evaluates rules tuple-at-a-time, the
columnar executor processes one *rule* at a time over the whole surviving
candidate index-set:

* inter-rule early exit becomes index-set shrinking (rows matched by a
  rule leave the surviving set);
* intra-rule early exit becomes per-predicate row filtering (rows that
  fail a predicate drop out of the rule's pipeline but stay alive for the
  next rule);
* dynamic memoing becomes column reuse — one ``memo.valid_rows`` mask
  splits a step's rows into memo hits (one gather) and misses (one
  batched kernel computation landed via ``memo.put_rows``);
* cheap bounds become a mask-level pre-filter: rows whose predicate a
  size-only bound decides skip the fetch entirely, exactly like the
  scalar ``try_bound`` path;
* check-cache-first becomes a partition: rows are grouped by their
  memo-validity vector over the rule's features (packed into one integer
  code per row, see :func:`validity_groups`), and each group runs the
  same cached-predicates-first order the scalar evaluator would pick for
  those pairs.

Conservation property (enforced by the property suite): labels,
``MatchStats`` counters, memo contents, trace bitmaps, and profiler
*counts* are bit-identical to the scalar path.  Pairs are independent and
the memo is keyed per (pair, feature), so reordering the evaluation from
pair-major to rule-major changes no per-pair outcome and no counter sum.
Only wall-clock observations (batch-timed means instead of per-call
samples) and trace *ordering* differ — both explicitly order-insensitive.

Features without a kernel fall back per-step to a per-pair
``feature.compute`` loop over just the rows that need them, counted in
``scalar_fallbacks``.

Few rows run per pair.  A rule step pays a fixed NumPy cost (validity
gathers, the partition, the bound pre-filter, bitmap writes) however few
rows it holds, so a :meth:`ColumnarExecutor.match_rows` call on at most
:data:`PAIR_ROWS` rows — an edit's fall-through, a single delta's
re-match — runs through a :class:`~repro.core.matchers.PairRows` adapter
over the scalar evaluator instead.  Per pair both paths leave identical
state, so the choice shows only in the engine counters (``pair_rows``,
``mask_evals``).  Single-predicate calls and the partitions inside one
large call stay columnar.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.matchers import (
    Matcher,
    PairEvaluator,
    PairRows,
    TraceRecorder,
    record_predicate_false_rows,
    record_rule_match_rows,
)
from ..core.memo import ArrayMemo, FeatureMemo, HashMemo
from ..core.rules import MatchingFunction, Predicate, Rule
from ..core.stats import MatchStats
from ..errors import MatchingError
from .plan import MatchPlan, RuleStep, plan_function

_EMPTY_ROWS = np.empty(0, dtype=np.int64)

#: ``match_rows`` calls on at most this many rows run pair by pair (see
#: the module docstring).  Both paths' costs grow with the rules
#: visited, so the crossover is a row count; docs/performance.md records
#: the sweep.
PAIR_ROWS = 32

#: Features packed per int64 validity word — 63, leaving the sign bit
#: clear so packed words order exactly like the bool rows they encode.
_WORD_BITS = 63


def validity_groups(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by their memo-validity vector across ``columns``.

    ``columns`` holds one bool column per feature, all of one length.
    Returns ``(flags, inverse)`` exactly as ``np.unique(np.column_stack(
    columns), axis=0, return_inverse=True)`` would: the distinct vectors
    in lexicographic order (first feature most significant, ``False``
    before ``True``) and each row's group index.

    Each row packs into one int64 code per 63 features, the first feature
    in the most significant bit, so code order *is* that lexicographic
    order.  One distinct code needs no grouping at all.  Otherwise
    ``np.unique`` groups the codes: up to 63 features a plain int64 sort
    of one code per row; wider rules sort their rows of packed words
    (``axis=0``, a structured sort several times slower).
    """
    n_features = len(columns)
    n_rows = len(columns[0])
    n_words = -(-n_features // _WORD_BITS)
    words = np.zeros((n_rows, n_words), dtype=np.int64)
    for position, column in enumerate(columns):
        word = words[:, position // _WORD_BITS]
        word <<= 1
        word |= column
    if n_rows and (words == words[0]).all():
        codes, inverse = words[:1], np.zeros(n_rows, dtype=np.intp)
    elif n_words == 1:
        codes, inverse = np.unique(words[:, 0], return_inverse=True)
        codes = codes[:, None]
    else:
        codes, inverse = np.unique(words, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
    flags = np.empty((len(codes), n_features), dtype=bool)
    for start in range(0, n_features, _WORD_BITS):
        width = min(_WORD_BITS, n_features - start)
        shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
        word = codes[:, start // _WORD_BITS : start // _WORD_BITS + 1]
        flags[:, start : start + width] = (word >> shifts) & 1
    return flags, inverse


def _compare_rows(predicate: Predicate, values: np.ndarray) -> np.ndarray:
    """One vectorized predicate evaluation over a float64 value column.

    Matches ``predicate.evaluate(float(value))`` element-wise: the values
    are float64 (memo reads cast up) and the threshold is a Python float,
    so the comparison semantics are identical to the scalar path.
    """
    op = predicate.op
    threshold = predicate.threshold
    if op == ">=":
        return values >= threshold
    if op == ">":
        return values > threshold
    if op == "<=":
        return values <= threshold
    if op == "<":
        return values < threshold
    return values == threshold


def _cached_first(rule: Rule, features, cached_flags) -> List[Predicate]:
    """The rule's predicates with those on cached features first (stable)."""
    cached = {feature.name for feature, flag in zip(features, cached_flags) if flag}
    return [p for p in rule.predicates if p.feature.name in cached] + [
        p for p in rule.predicates if p.feature.name not in cached
    ]


class ColumnarExecutor:
    """Evaluates a :class:`MatchPlan` over sets of candidate row indices.

    One instance per run (or per incremental change application); the
    ``mask_evals`` / ``pair_rows`` / ``scalar_fallbacks`` counters are
    engine-level observability — deliberately *not* part of
    :class:`MatchStats`, which must stay identical between engines.
    """

    def __init__(
        self,
        plan: MatchPlan,
        candidates,
        memo: FeatureMemo,
        stats: MatchStats,
        recorder: Optional[TraceRecorder] = None,
        profiler=None,
        kernels=None,
    ):
        self.plan = plan
        self.candidates = candidates
        self.memo = memo
        self.stats = stats
        self.recorder = recorder
        self.profiler = profiler
        self.kernels = kernels
        #: vectorized predicate-mask evaluations performed.
        self.mask_evals = 0
        # Feature computations the columnar passes made without a kernel.
        self._column_fallbacks = 0
        # The per-pair path, built on the first few-row call.
        self._pairs: Optional[PairRows] = None

    # ------------------------------------------------------------- metrics

    @property
    def scalar_fallbacks(self) -> int:
        """Feature computations made without a kernel (one per pair and
        feature), whichever path made them."""
        pairs = self._pairs
        if pairs is None:
            return self._column_fallbacks
        return self._column_fallbacks + pairs.evaluator.scalar_fallbacks

    @property
    def pair_rows(self) -> int:
        """Rows handed to the per-pair path, summed over calls."""
        return self._pairs.rows if self._pairs is not None else 0

    def report_metrics(self, registry) -> None:
        """Fold engine counters into a metrics registry."""
        if self.mask_evals:
            registry.counter("engine.mask_evals").inc(self.mask_evals)
        if self.pair_rows:
            registry.counter("engine.pair_rows").inc(self.pair_rows)
        scalar_fallbacks = self.scalar_fallbacks
        if scalar_fallbacks:
            registry.counter("engine.scalar_fallbacks").inc(scalar_fallbacks)

    def _per_pair(self) -> PairRows:
        """The per-pair path, bound to this executor's memo, recorder,
        stats, profiler, and kernels."""
        pairs = self._pairs
        if pairs is None:
            evaluator = PairEvaluator(
                self.stats,
                memo=self.memo,
                recorder=self.recorder,
                check_cache_first=self.plan.check_cache_first,
                profiler=self.profiler,
                kernels=self.kernels,
            )
            pairs = self._pairs = PairRows(
                evaluator,
                self.candidates,
                [rule_step.rule for rule_step in self.plan.rule_steps],
            )
        return pairs

    # ------------------------------------------------------ feature access

    def _compute_rows(self, predicate: Predicate, rows: np.ndarray) -> np.ndarray:
        """Compute the predicate's feature for ``rows`` (cold entries only).

        Mirrors the scalar ``PairEvaluator.feature_value`` compute branch:
        supported features run through the kernels (token-cached, batched
        where the measure vectorizes), the rest loop per pair over
        ``feature.compute`` — the scalar fallback.
        """
        feature = predicate.feature
        kernels = self.kernels
        if kernels is not None and kernels.supports(feature):
            return kernels.compute_rows(feature, self.candidates, rows)
        self._column_fallbacks += int(rows.size)
        candidates = self.candidates
        return np.fromiter(
            (
                feature.compute(
                    candidates[int(row)].record_a, candidates[int(row)].record_b
                )
                for row in rows
            ),
            dtype=np.float64,
            count=int(rows.size),
        )

    def _fetch_values(
        self, predicate: Predicate, rows: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Feature values for ``rows`` via memo-hit gather + batched compute.

        ``valid`` is the memo-validity mask for ``rows``.  Counter
        semantics mirror the scalar path exactly: one ``memo_hits`` per
        valid row, one ``record_computation`` per cold row; cold values
        are memoized.  Profiler feature timing uses the same deterministic
        modular sampling — the batch contributes the same number of
        histogram observations the per-pair loop would have, each valued
        at the batch mean.
        """
        name = predicate.feature.name
        memo = self.memo
        stats = self.stats
        n_hits = int(valid.sum())
        n_cold = int(rows.size) - n_hits
        if n_cold == 0:
            stats.memo_hits += n_hits
            return memo.get_rows(name, rows)
        cold_rows = rows[~valid]
        profiler = self.profiler
        if profiler is not None:
            sampled = profiler.count_features(name, n_cold)
            if sampled:
                started = profiler.clock()
                computed = self._compute_rows(predicate, cold_rows)
                elapsed = profiler.clock() - started
                profiler.record_feature_bulk(name, sampled, elapsed / n_cold)
            else:
                computed = self._compute_rows(predicate, cold_rows)
        else:
            computed = self._compute_rows(predicate, cold_rows)
        stats.feature_computations += n_cold
        stats.computations_by_feature[name] += n_cold
        memo.put_rows(name, cold_rows, computed)
        if n_hits == 0:
            return computed
        stats.memo_hits += n_hits
        values = np.empty(int(rows.size), dtype=np.float64)
        values[valid] = memo.get_rows(name, rows[valid])
        values[~valid] = computed
        return values

    # ------------------------------------------------------ predicate step

    def predicate_rows(
        self, predicate: Predicate, rule_name: str, rows: np.ndarray
    ) -> np.ndarray:
        """Rows of ``rows`` on which ``predicate`` holds (sorted if sorted in).

        The columnar mirror of ``PairEvaluator.predicate_true`` — bound
        pre-filter, memo fetch, batched compute, one vectorized compare —
        with identical counter and trace semantics.  Public because
        Algorithms 7-10 (:mod:`repro.core.incremental`) re-evaluate single
        predicates through it.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return _EMPTY_ROWS
        stats = self.stats
        profiler = self.profiler
        kernels = self.kernels
        name = predicate.feature.name
        valid = self.memo.valid_rows(name, rows)
        bound_true = _EMPTY_ROWS
        if kernels is not None and kernels.use_bounds:
            unknown = rows[~valid]
            if unknown.size:
                decisions = kernels.bound_rows(predicate, self.candidates, unknown)
                decided = decisions >= 0
                n_decided = int(decided.sum())
                if n_decided:
                    stats.bound_skips += n_decided
                    bound_true = unknown[decisions == 1]
                    bound_false = unknown[decisions == 0]
                    if profiler is not None:
                        profiler.record_predicate_bulk(
                            predicate.pid, n_decided, int(bound_true.size)
                        )
                        profiler.record_bound_skip_bulk(predicate.pid, n_decided)
                    record_predicate_false_rows(
                        self.recorder, bound_false, rule_name, predicate.slot
                    )
                    # Decided rows skip the fetch entirely (no compute, no
                    # memo write) — exactly the scalar try_bound path.
                    keep = valid.copy()
                    keep[~valid] = ~decided
                    rows = rows[keep]
                    valid = valid[keep]
                    if rows.size == 0:
                        return np.sort(bound_true) if bound_true.size else _EMPTY_ROWS
        values = self._fetch_values(predicate, rows, valid)
        stats.predicate_evaluations += int(rows.size)
        mask = _compare_rows(predicate, values)
        self.mask_evals += 1
        if profiler is not None:
            profiler.record_predicate_bulk(
                predicate.pid, int(rows.size), int(mask.sum())
            )
        record_predicate_false_rows(
            self.recorder, rows[~mask], rule_name, predicate.slot
        )
        survivors = rows[mask]
        if bound_true.size:
            survivors = np.sort(np.concatenate([survivors, bound_true]))
        return survivors

    # ----------------------------------------------------------- rule step

    def _rule_pipeline(
        self, rule: Rule, predicates, rows: np.ndarray
    ) -> np.ndarray:
        for predicate in predicates:
            if rows.size == 0:
                return _EMPTY_ROWS
            rows = self.predicate_rows(predicate, rule.name, rows)
        return rows

    def _rule_rows(self, rule_step: RuleStep, active: np.ndarray) -> np.ndarray:
        """Rows of ``active`` on which the whole rule holds.

        With ``check_cache_first`` on, rows are partitioned by their
        memo-validity vector over the rule's distinct features (captured
        at rule start, like the scalar ``_rule_predicate_order``), and
        each partition evaluates cached predicates before uncached ones —
        stable order within each group.  Partitions are disjoint row
        sets, so their processing order cannot affect any counter sum.
        """
        rule = rule_step.rule
        stats = self.stats
        stats.rule_evaluations += int(active.size)
        profiler = self.profiler
        sampled = 0
        if profiler is not None:
            sampled = profiler.count_rules(rule.name, int(active.size))
            started = profiler.clock() if sampled else 0.0

        features = rule_step.features
        if not self.plan.check_cache_first or len(features) <= 1:
            survivors = self._rule_pipeline(rule, rule.predicates, active)
        else:
            flags, inverse = validity_groups(
                [self.memo.valid_rows(feature.name, active) for feature in features]
            )
            if len(flags) == 1:
                order = _cached_first(rule, features, flags[0])
                survivors = self._rule_pipeline(rule, order, active)
            else:
                parts: List[np.ndarray] = []
                for group_index, group_flags in enumerate(flags):
                    order = _cached_first(rule, features, group_flags)
                    part_rows = active[inverse == group_index]
                    part = self._rule_pipeline(rule, order, part_rows)
                    if part.size:
                        parts.append(part)
                survivors = (
                    np.sort(np.concatenate(parts)) if parts else _EMPTY_ROWS
                )

        if profiler is not None and sampled:
            elapsed = profiler.clock() - started
            profiler.record_rule_bulk(
                rule.name, sampled, elapsed / max(int(active.size), 1)
            )
        return survivors

    # ------------------------------------------------------ function level

    def match_rows(self, rows, start_rule: int = 0) -> np.ndarray:
        """Match labels for ``rows``, as a bool mask aligned with ``rows``.

        The columnar mirror of ``first_matching_rule`` over
        ``plan.rule_steps[start_rule:]``: each rule is evaluated over the
        rows no earlier rule matched; matched rows are recorded via the
        recorder (attribution) and leave the surviving set.  Labels are
        *not* written — callers own the label array.  A call on at most
        :data:`PAIR_ROWS` rows runs per pair.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.zeros(0, dtype=bool)
        if rows.size <= PAIR_ROWS:
            return self._per_pair().match_rows(rows, start_rule)
        surviving = np.sort(rows)
        matched_parts: List[np.ndarray] = []
        for rule_step in self.plan.rule_steps[start_rule:]:
            if surviving.size == 0:
                break
            matched = self._rule_rows(rule_step, surviving)
            if matched.size:
                record_rule_match_rows(self.recorder, matched, rule_step.rule.name)
                matched_parts.append(matched)
                surviving = np.setdiff1d(surviving, matched, assume_unique=True)
        if not matched_parts:
            return np.zeros(int(rows.size), dtype=bool)
        all_matched = np.concatenate(matched_parts)
        return np.isin(rows, all_matched)


class ColumnarMatcher(Matcher):
    """Drop-in matcher running the columnar engine end to end.

    Same contract as :class:`~repro.core.matchers.DynamicMemoMatcher`
    (DM+EE semantics, persistent memo, recorder/profiler/kernels hooks),
    evaluated set-at-a-time through a compiled :class:`MatchPlan`.  The
    executor used by the last run is exposed as :attr:`last_executor` so
    callers can fold ``engine.*`` counters into their metrics registry.
    """

    strategy_name = "columnar"

    def __init__(
        self,
        memo: Optional[FeatureMemo] = None,
        memo_backend: str = "array",
        check_cache_first: bool = False,
        recorder: Optional[TraceRecorder] = None,
        profiler=None,
        kernels=None,
        plan: Optional[MatchPlan] = None,
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
        self.plan = plan
        self.last_memo: Optional[FeatureMemo] = memo
        self.last_executor: Optional[ColumnarExecutor] = None

    def _make_memo(
        self, function: MatchingFunction, candidates
    ) -> FeatureMemo:
        names = [feature.name for feature in function.features()]
        if self.memo_backend == "array":
            return ArrayMemo(len(candidates), names)
        return HashMemo(len(candidates), names)

    def _run(self, function, candidates, labels, stats) -> None:
        memo = self.memo if self.memo is not None else self._make_memo(function, candidates)
        self.last_memo = memo
        plan = self.plan
        if plan is None:
            plan = plan_function(
                function,
                kernels=self.kernels,
                check_cache_first=self.check_cache_first,
            )
        elif plan.function is not function:
            raise MatchingError(
                "ColumnarMatcher was given a plan for a different function"
            )
        executor = ColumnarExecutor(
            plan,
            candidates,
            memo,
            stats,
            recorder=self.recorder,
            profiler=self.profiler,
            kernels=self.kernels,
        )
        self.last_executor = executor
        rows = np.arange(len(candidates), dtype=np.int64)
        labels[:] = executor.match_rows(rows)
