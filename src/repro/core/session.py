"""The interactive debugging session — the paper's Figure 1 loop as an API.

A :class:`DebugSession` owns one matching task end to end:

1. ``run()`` — estimate costs on a sample, order the rules (Algorithm 5/6),
   run DM+EE once, and materialize the incremental state.
2. ``apply(change)`` — incremental re-matching via Algorithms 7-10; the
   memo and bitmaps persist, so edits take milliseconds, not another full
   run.  This is the "Run EM" box the paper wants under one second.
3. ``metrics()`` — precision/recall against the session's gold labels
   after every edit (the "Examine results" box).
4. ``explain(a_id, b_id)`` — per-rule, per-predicate breakdown of why a
   pair matches or not: the thing an analyst actually stares at before
   deciding which threshold to move.

``rerun_full()`` re-runs the whole matcher against the persistent memo —
the paper's "precomputation variation" of incremental matching, kept as a
comparison point for the Figure 5C experiment and as a safety valve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..data.pairs import CandidateSet, PairId
from ..errors import MatchingError, StateError
from ..evaluation.metrics import Confusion, confusion
from .changes import Change
from .cost_model import CostEstimator, Estimates
from .incremental import IncrementalResult, apply_change
from .matchers import DynamicMemoMatcher, MatchResult
from .ordering import order_function
from .parser import parse_function
from .rules import MatchingFunction
from .state import MatchState, check_engine


@dataclass
class PredicateTrace:
    """One predicate's outcome for one pair (for :meth:`DebugSession.explain`)."""

    pid: str
    value: float
    passed: bool


@dataclass
class RuleTrace:
    """One rule's outcome for one pair."""

    rule_name: str
    matched: bool
    predicates: List[PredicateTrace]

    def first_failure(self) -> Optional[PredicateTrace]:
        for trace in self.predicates:
            if not trace.passed:
                return trace
        return None


@dataclass
class PairExplanation:
    """Full evaluation trace of one candidate pair."""

    pair_id: PairId
    matched: bool
    rules: List[RuleTrace]

    def matching_rules(self) -> List[str]:
        return [trace.rule_name for trace in self.rules if trace.matched]

    def render(self) -> str:
        """Human-readable multi-line explanation."""
        lines = [
            f"pair {self.pair_id}: {'MATCH' if self.matched else 'NO MATCH'}"
        ]
        for rule in self.rules:
            mark = "+" if rule.matched else "-"
            lines.append(f"  [{mark}] {rule.rule_name}")
            for predicate in rule.predicates:
                ok = "ok " if predicate.passed else "FAIL"
                lines.append(
                    f"        {ok} {predicate.pid}  (value={predicate.value:.4f})"
                )
        return "\n".join(lines)


class DebugSession:
    """Stateful analyst session over one candidate set."""

    def __init__(
        self,
        candidates: CandidateSet,
        function: Union[MatchingFunction, str],
        gold: Optional[Set[PairId]] = None,
        ordering: str = "algorithm6",
        estimator: Optional[CostEstimator] = None,
        memo_backend: str = "array",
        check_cache_first: bool = True,
        paranoid: bool = False,
        observability=None,
        use_kernels: bool = True,
        use_bounds: bool = True,
        engine: str = "auto",
    ):
        """``paranoid=True`` re-validates the incremental state against a
        from-scratch run after every change — O(full run) per edit, test
        use only.  ``observability`` (a
        :class:`repro.observability.Observability`) collects spans,
        metrics, and optional profiles across every run of this session;
        ``None`` (the default) keeps the seed code paths untouched.

        ``use_kernels`` routes token-based features through the session's
        record token cache (:mod:`repro.kernels`) — labels, values, and
        counters are bit-identical to the uncached path.  ``use_bounds``
        additionally lets threshold predicates be decided from token-set
        size bounds without computing the feature; decisions are provably
        identical, but skipped features are not memoized and
        ``stats.bound_skips`` counts the skips.  Both default on; the
        same setting threads into streaming runs of this session.

        ``engine`` selects the evaluation engine: ``"scalar"`` is the
        per-pair :class:`~repro.core.matchers.PairEvaluator` loop,
        ``"columnar"`` the set-at-a-time plan/executor split of
        :mod:`repro.engine` (bit-identical labels, counters, and state).
        The default ``"auto"`` resolves per plan through the cost model
        (:func:`repro.engine.choose_engine`): columnar when the
        kernel-supported steps carry enough of the expected per-pair work
        to pay for the per-step fallback overhead of the unsupported
        ones, scalar otherwise.  Mixed plans are correct either way —
        the decision only moves wall-clock."""
        if isinstance(function, str):
            function = parse_function(function)
        self.candidates = candidates
        self.initial_function = function
        self.gold = gold
        self.ordering_strategy = ordering
        self.estimator = estimator or CostEstimator()
        self.memo_backend = memo_backend
        self.check_cache_first = check_cache_first
        self.paranoid = paranoid
        self.observability = observability
        self.use_kernels = use_kernels
        self.use_bounds = use_bounds
        check_engine(engine, auto=True)
        if memo_backend not in ("array", "hash"):
            raise MatchingError(
                f"memo_backend must be 'array' or 'hash', got {memo_backend!r}"
            )
        self.engine = engine
        if use_kernels:
            from ..kernels import FeatureKernels

            self.kernels = FeatureKernels(use_bounds=use_bounds)
        else:
            self.kernels = None
        self.estimates: Optional[Estimates] = None
        self.state: Optional[MatchState] = None
        self.history: List[IncrementalResult] = []
        self.last_run: Optional[MatchResult] = None

    # ------------------------------------------------------------------
    # Engine selection
    # ------------------------------------------------------------------

    def _engine_for(self, state: MatchState) -> str:
        """The engine a run over ``state`` uses: the configured one, or
        for ``"auto"`` the cost-model
        :class:`~repro.engine.EngineDecision` of the state's plan —
        columnar exactly when its estimated per-pair cost undercuts the
        scalar loop's, given the session's kernels and estimates
        (:meth:`MatchState.resolve_engine`).  Only ``"auto"`` reads (and
        so patches) the plan; edits resolve it themselves, and only when
        they have rows to evaluate."""
        return state.resolve_engine(self.engine)

    def compile_plan(self, function: Optional[MatchingFunction] = None):
        """A from-scratch :class:`~repro.engine.MatchPlan` for ``function``
        (default: the current function).

        Compiled against the session's kernels and cost estimates.  A run
        or reorder compiles the state's plan through here once; edits
        then patch that plan instead of compiling again.
        """
        from ..engine import plan_function

        if function is None:
            function = (
                self.state.function if self.state is not None
                else self.initial_function
            )
        return plan_function(
            function,
            kernels=self.kernels,
            estimates=self.estimates,
            check_cache_first=self.check_cache_first,
        )

    def _full_matcher(self, state: MatchState):
        """A full-run matcher over ``state``'s plan (reorder/rerun)."""
        if self._engine_for(state) == "columnar":
            from ..engine import ColumnarMatcher

            return ColumnarMatcher(
                memo=state.memo,
                check_cache_first=self.check_cache_first,
                recorder=state,
                kernels=self.kernels,
                plan=state.plan,
            )
        return DynamicMemoMatcher(
            memo=state.memo,
            check_cache_first=self.check_cache_first,
            recorder=state,
            kernels=self.kernels,
        )

    def _report_engine_metrics(self, matcher) -> None:
        if self.observability is None:
            return
        executor = getattr(matcher, "last_executor", None)
        if executor is not None:
            executor.report_metrics(self.observability.metrics)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def from_materialized(
        cls,
        candidates: CandidateSet,
        state: MatchState,
        gold: Optional[Set[PairId]] = None,
        **session_kwargs,
    ) -> "DebugSession":
        """A session adopting an already-materialized :class:`MatchState`.

        The restore path of :func:`repro.core.persistence.load_session`:
        no initial run happens — the state (function, labels, memo,
        bitmaps) is taken as-is, and the session's kernels are attached to
        it so subsequent edits and streaming re-matches go through the
        token cache exactly as they would have in the original process.
        Cost estimates start empty; they rebuild on the next
        :meth:`reorder` (or stay absent — every consumer handles ``None``).
        """
        session = cls(candidates, state.function, gold=gold, **session_kwargs)
        state.kernels = session.kernels
        state.check_cache_first = session.check_cache_first
        # A plan compiled against other kernels is void; the state compiles
        # the replacement on first use — against these kernels and no
        # estimates, exactly what compile_plan() would build here.
        state.plan = None
        session.state = state
        return session

    def run(self) -> MatchResult:
        """Initial full matching run: estimate → order → match → materialize."""
        from ..observability import maybe_span, record_match_stats

        observability = self.observability
        function = self.initial_function
        with maybe_span(observability, "run", pairs=len(self.candidates)):
            if self.ordering_strategy not in ("original", "random"):
                with maybe_span(observability, "estimate"):
                    self.estimates = self.estimator.estimate(
                        function, self.candidates, kernels=self.kernels
                    )
            with maybe_span(observability, "order", strategy=self.ordering_strategy):
                function = order_function(
                    function, self.estimates, self.ordering_strategy
                )
            with maybe_span(observability, "match"):
                plan = self.compile_plan(function)
                self.state, result = MatchState.from_initial_run(
                    function,
                    self.candidates,
                    memo_backend=self.memo_backend,
                    check_cache_first=self.check_cache_first,
                    profiler=observability.profiler if observability else None,
                    kernels=self.kernels,
                    engine=self.engine,
                    metrics=observability.metrics if observability else None,
                    plan=plan,
                )
        if observability is not None:
            record_match_stats(observability.metrics, result.stats, prefix="run")
            if self.kernels is not None:
                self.kernels.report_metrics(observability.metrics)
                self._trace_unsupported(observability)
        self.last_run = result
        return result

    def _trace_unsupported(self, observability) -> None:
        """Record one trace span per newly-seen kernel-unsupported feature.

        Pairs with the ``engine.kernel_unsupported`` counter: the metric
        says *how many* features fell back to per-pair evaluation, the
        spans say *which* and *why* (e.g. a TokenSetSimilarity subclass
        overriding ``compare``, which :meth:`FeatureKernels.supports`
        would otherwise reject silently).
        """
        for name, reason in self.kernels.drain_unsupported():
            with observability.tracer.span(
                "kernel.unsupported", feature=name, reason=reason
            ):
                pass

    def apply(self, change: Change) -> IncrementalResult:
        """Apply one edit incrementally (Algorithms 7-10).

        The affected pairs run through the session's engine: the
        set-at-a-time executor or the per-pair evaluator, with
        bit-identical resulting state.  The engine goes through
        unresolved: ``"auto"`` is decided when the edit first has rows to
        evaluate, on the state's plan patched to the edited function (only
        the edited rule is re-planned), which a columnar edit then runs
        under.  An edit with no affected pair, and a scalar edit, never
        read the plan."""
        state = self._require_state()
        result = apply_change(
            state,
            change,
            self.engine,
            metrics=self.observability.metrics if self.observability else None,
        )
        self.history.append(result)
        if self.paranoid:
            scratch = DynamicMemoMatcher().run(state.function, self.candidates)
            state.validate_against(scratch.labels)
        return result

    def apply_many(self, changes: Sequence[Change]) -> List[IncrementalResult]:
        """Apply a batch of edits in order, returning each outcome.

        Stops at the first failing change (its exception propagates);
        earlier changes stay applied — matching state is always
        consistent with ``self.function`` even on partial failure.
        """
        return [self.apply(change) for change in changes]

    def reorder(self, strategy: Optional[str] = None) -> MatchResult:
        """Re-optimize the rule order of the *current* (edited) function.

        After a burst of edits, the order chosen for the initial rule set
        may be stale: selectivities shifted, rules came and went.  This
        re-estimates on a fresh sample, re-orders with ``strategy``
        (default: the session's configured one), and rebuilds the
        materialized state with a full re-run — which is cheap now, since
        the memo is warm.  A reorder is mandatory before relying on
        position-based reasoning because the incremental bitmaps'
        attribution invariant is tied to rule positions; hence the state
        rebuild rather than an in-place permutation.
        """
        state = self._require_state()
        strategy = strategy or self.ordering_strategy
        function = state.function
        if strategy not in ("original", "random"):
            self.estimates = self.estimator.estimate(
                function, self.candidates, kernels=self.kernels
            )
        function = order_function(function, self.estimates, strategy)
        fresh = MatchState(
            function,
            self.candidates,
            state.memo,
            check_cache_first=self.check_cache_first,
            kernels=self.kernels,
            plan=self.compile_plan(function),
        )
        matcher = self._full_matcher(fresh)
        result = matcher.run(function, self.candidates)
        fresh.labels = result.labels.copy()
        self._report_engine_metrics(matcher)
        self.state = fresh
        self.last_run = result
        return result

    def rerun_full(self) -> MatchResult:
        """Full re-run against the persistent memo (the paper's
        "precomputation variation"); rebuilds state from scratch."""
        state = self._require_state()
        fresh = MatchState(
            state.function,
            self.candidates,
            state.memo,
            check_cache_first=self.check_cache_first,
            kernels=self.kernels,
            plan=state.plan,
        )
        matcher = self._full_matcher(fresh)
        result = matcher.run(state.function, self.candidates)
        fresh.labels = result.labels.copy()
        self._report_engine_metrics(matcher)
        self.state = fresh
        self.last_run = result
        return result

    def refine(
        self,
        config=None,
        gold: Optional[Set[PairId]] = None,
        seed_rules: Sequence = (),
        feature_universe: Sequence = (),
        feature_space=None,
        **config_overrides,
    ):
        """Run the automated refinement search (see :mod:`repro.refine`).

        Scores candidate edits through the incremental engine against the
        session's gold labels (or an explicit ``gold`` override) and
        returns a :class:`~repro.refine.search.RefinementReport` with the
        Pareto frontier over (precision, recall, expected cost).  The
        session's state is untouched afterwards — apply a chosen frontier
        entry with :meth:`apply_many` (``report.best.edits``).

        ``feature_space`` (a :class:`repro.learning.FeatureSpace`) widens
        the search: its features join the add-predicate/add-rule universe
        and the §7.1 extractor mines whole-rule seeds from it.  Keyword
        overrides (``budget=...``, ``beam_width=...``) build or adjust the
        :class:`~repro.refine.search.RefineConfig`.
        """
        from dataclasses import replace as dataclass_replace

        from ..errors import RefinementError
        from ..refine import RefineConfig, RefinementSearch, extractor_seed_rules

        gold = gold if gold is not None else self.gold
        if not gold:
            raise RefinementError(
                "refinement needs gold labels; build the session with gold= "
                "or pass gold=... explicitly"
            )
        state = self._require_state()
        if config is None:
            config = RefineConfig(**config_overrides)
        elif config_overrides:
            config = dataclass_replace(config, **config_overrides)
        seed_rules = list(seed_rules)
        feature_universe = list(feature_universe)
        if feature_space is not None:
            seed_rules.extend(
                extractor_seed_rules(
                    self.candidates, gold, feature_space, seed=config.seed
                )
            )
            feature_universe.extend(feature_space)
        search = RefinementSearch(
            state,
            gold,
            config=config,
            seed_rules=seed_rules,
            feature_universe=feature_universe,
            observability=self.observability,
            kernels=self.kernels,
            engine=self._engine_for(state),
        )
        return search.run()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def function(self) -> MatchingFunction:
        """The current (possibly edited, possibly reordered) function."""
        return self._require_state().function

    def labels(self):
        return self._require_state().labels

    def matched_ids(self) -> List[PairId]:
        state = self._require_state()
        return [
            self.candidates[index].pair_id for index in state.matched_indices()
        ]

    def metrics(
        self, evaluated_indices: Optional[Sequence[int]] = None
    ) -> Confusion:
        """Quality against the session's gold labels (MatchingError if the
        session was built without gold)."""
        if self.gold is None:
            raise MatchingError("session has no gold labels to score against")
        state = self._require_state()
        return confusion(state.labels, self.candidates, self.gold, evaluated_indices)

    def explain(self, a_id: str, b_id: str) -> PairExplanation:
        """Evaluate every rule and predicate for one pair, via the memo.

        Unlike matching, explanation evaluates *everything* (no early
        exit): the analyst needs to see all the near-miss predicates, not
        just the first failing one.  Computed values are memoized, so
        explaining is cheap after the first look.
        """
        state = self._require_state()
        index = self.candidates.index_of(a_id, b_id)
        pair = self.candidates[index]
        rule_traces: List[RuleTrace] = []
        for rule in state.function.rules:
            predicate_traces: List[PredicateTrace] = []
            rule_matched = True
            for predicate in rule.predicates:
                cached = state.memo.get(index, predicate.feature.name)
                if cached is None:
                    cached = predicate.feature.compute(pair.record_a, pair.record_b)
                    state.memo.put(index, predicate.feature.name, cached)
                passed = predicate.evaluate(cached)
                rule_matched = rule_matched and passed
                predicate_traces.append(
                    PredicateTrace(pid=predicate.pid, value=cached, passed=passed)
                )
            rule_traces.append(
                RuleTrace(
                    rule_name=rule.name,
                    matched=rule_matched,
                    predicates=predicate_traces,
                )
            )
        return PairExplanation(
            pair_id=(a_id, b_id),
            matched=bool(state.labels[index]),
            rules=rule_traces,
        )

    def memory_report(self) -> Dict[str, int]:
        """§7.4-style byte accounting of the materialized state."""
        return self._require_state().nbytes()

    def total_incremental_seconds(self) -> float:
        return sum(result.elapsed_seconds for result in self.history)

    def _require_state(self) -> MatchState:
        if self.state is None:
            raise StateError("session not started; call run() first")
        return self.state

    def __repr__(self) -> str:
        started = self.state is not None
        return (
            f"DebugSession({len(self.candidates)} pairs, "
            f"{'started' if started else 'not started'}, "
            f"{len(self.history)} edits applied)"
        )
