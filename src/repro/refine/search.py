"""Beam search over rule-edit sequences, scored by the incremental engine.

The refinement loop the paper leaves to the analyst, automated:

1. Checkpoint the live :class:`~repro.core.state.MatchState` (labels,
   attribution, bitmaps — *not* the memo: feature values depend only on
   the record pair, never on the matching function, so the memo stays
   warm across every candidate and scoring gets faster as the search
   runs).
2. Generate candidate edits from the current error profile
   (:mod:`repro.refine.edits` — thresholds from observed feature-value
   quantiles, predicate/rule additions and removals).
3. Score each candidate by **applying it through Algorithms 7-10**
   (:func:`repro.core.incremental.apply_change`) — never a from-scratch
   re-match — then measuring precision/recall against gold and expected
   per-pair cost via the §5 cost model, and rolling back via
   :meth:`~repro.core.state.MatchState.restore`.
4. Keep the best ``beam_width`` sequences, extend them next round, and
   report the Pareto frontier over (precision, recall, expected cost)
   with per-edit attribution of which errors each edit fixed/broke.

Everything is deterministic under a fixed :class:`RefineConfig` seed:
generation order is structural, beam ties break on edit descriptions, and
expected cost defaults to the calibrated (wall-clock-free) estimator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.changes import Change
from ..core.cost_model import CostEstimator, Estimates, MemoCostPrefix, per_pair_cost
from ..core.incremental import apply_change
from ..core.rules import Feature, MatchingFunction, Rule
from ..core.state import MatchState, StateCheckpoint
from ..data.pairs import CandidateSet, PairId
from ..errors import ChangeError, EstimationError, RefinementError, StateError
from ..evaluation.metrics import Confusion
from ..observability import Observability, maybe_span
from .edits import CandidateEdit, change_key, generate_candidates
from .pareto import Objective, pareto_frontier


@dataclass(frozen=True)
class RefineConfig:
    """Knobs of the refinement search.  The defaults favour interactive
    latency; benchmarks and offline sweeps raise ``budget``/``max_depth``.
    """

    #: total candidate evaluations across all rounds (hard cap).
    budget: int = 200
    #: surviving sequences per round; 1 = greedy.
    beam_width: int = 4
    #: maximum edits per sequence (search rounds).
    max_depth: int = 2
    #: candidate pool cap per beam node per round.
    max_candidates_per_round: int = 48
    #: tighten proposals kept per (rule, slot).
    max_per_slot: int = 3
    #: relax quantiles — fraction of recoverable FNs each proposal admits.
    admit_fractions: Tuple[float, ...] = (0.25, 0.5, 1.0)
    #: prefix sample size for relaxation/addition risk replay.
    risk_sample: int = 500
    #: RNG seed for cost estimation sampling (and any future stochastic
    #: component); fixing it makes the whole search deterministic.
    seed: int = 0
    #: execution strategy priced by the cost objective.
    cost_strategy: str = "dynamic_memo"
    #: "calibrated" (deterministic tier table) or "measured" (wall clock).
    estimate_mode: str = "calibrated"
    #: example pair ids retained per edit in the attribution record.
    attribution_limit: int = 10
    #: warm-start hint (e.g. from the observability drift monitor):
    #: restrict candidate generation to edits targeting these rules.
    #: Empty = cold start, the full pool.
    focus_rules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise RefinementError("budget must be >= 1")
        if self.beam_width < 1:
            raise RefinementError("beam_width must be >= 1")
        if self.max_depth < 1:
            raise RefinementError("max_depth must be >= 1")
        if not isinstance(self.focus_rules, tuple):
            object.__setattr__(
                self, "focus_rules",
                tuple(str(name) for name in self.focus_rules),
            )


@dataclass(frozen=True)
class EditOutcome:
    """What one edit did, measured (not predicted) against gold."""

    change: Change
    #: pairs whose label flipped to the correct side.
    fixed: int
    #: pairs whose label flipped to the wrong side.
    broken: int
    fixed_examples: Tuple[PairId, ...]
    broken_examples: Tuple[PairId, ...]
    newly_matched: int
    newly_unmatched: int

    def describe(self) -> str:
        return (
            f"{self.change.describe()}  (+{self.fixed} fixed, "
            f"-{self.broken} broken)"
        )


@dataclass(frozen=True)
class ScoredCandidate:
    """One edit sequence with its measured quality and cost."""

    edits: Tuple[Change, ...]
    outcomes: Tuple[EditOutcome, ...]
    confusion: Confusion
    #: expected seconds per pair under the configured strategy (§5 model).
    expected_cost: float

    @property
    def precision(self) -> float:
        return self.confusion.precision

    @property
    def recall(self) -> float:
        return self.confusion.recall

    @property
    def f1(self) -> float:
        return self.confusion.f1

    @property
    def objective(self) -> Objective:
        return (self.precision, self.recall, self.expected_cost)

    def describe(self) -> str:
        if not self.edits:
            return "(no edits)"
        return "; ".join(change.describe() for change in self.edits)

    def summary(self) -> str:
        return (
            f"P={self.precision:.3f} R={self.recall:.3f} F1={self.f1:.3f} "
            f"cost={self.expected_cost * 1e6:.2f}us/pair  [{self.describe()}]"
        )


@dataclass
class RefinementReport:
    """Everything the search learned, plus its work counters.

    ``full_rematches`` exists to make the tentpole invariant checkable:
    the search recovers from *any* mid-candidate failure by restoring a
    checkpoint, so the counter stays 0 unless the emergency
    from-scratch rebuild path ran — benchmarks assert on it.
    """

    baseline: ScoredCandidate
    frontier: List[ScoredCandidate]
    candidates_generated: int
    candidates_scored: int
    incremental_evals: int
    full_rematches: int
    rounds: int
    elapsed_seconds: float

    @property
    def best(self) -> ScoredCandidate:
        """Highest-F1 frontier point (cost, then description break ties)."""
        pool = self.frontier or [self.baseline]
        return min(
            pool, key=lambda c: (-c.f1, c.expected_cost, c.describe())
        )

    def improves_f1(self) -> bool:
        return self.best.f1 > self.baseline.f1

    def summary(self) -> str:
        lines = [
            f"baseline  {self.baseline.summary()}",
            f"scored {self.candidates_scored}/{self.candidates_generated} "
            f"candidates in {self.rounds} round(s), "
            f"{self.incremental_evals} incremental evals, "
            f"{self.full_rematches} full re-matches, "
            f"{self.elapsed_seconds:.2f}s",
            f"frontier ({len(self.frontier)} points):",
        ]
        for candidate in self.frontier:
            marker = "*" if candidate is self.best else " "
            lines.append(f"  {marker} {candidate.summary()}")
        return "\n".join(lines)


@dataclass
class _BeamNode:
    candidate: ScoredCandidate
    checkpoint: StateCheckpoint
    #: the cost objective's per-rule state over ``checkpoint.function``,
    #: built when the node's first child is priced.
    cost_prefix: Optional[MemoCostPrefix] = None


class RefinementSearch:
    """One search run over a live state.  The state is borrowed: on return
    (or failure) it is restored to exactly its pre-search condition —
    except the memo, which keeps every feature value the search computed
    (deliberately: values are function-independent, and a warmer memo
    makes both the next search and the analyst's next edit faster)."""

    def __init__(
        self,
        state: MatchState,
        gold: Set[PairId],
        config: Optional[RefineConfig] = None,
        estimates: Optional[Estimates] = None,
        seed_rules: Sequence[Rule] = (),
        feature_universe: Sequence[Feature] = (),
        observability: Optional[Observability] = None,
        kernels=None,
        engine: str = "scalar",
    ):
        if not gold:
            raise RefinementError(
                "refinement needs gold labels (a non-empty set of matching "
                "pair ids) to score candidates against"
            )
        if engine not in ("scalar", "columnar"):
            raise RefinementError(
                f"engine must be 'scalar' or 'columnar', got {engine!r}"
            )
        self.state = state
        self.candidates: CandidateSet = state.candidates
        self.gold = gold
        self.config = config or RefineConfig()
        self.seed_rules = tuple(seed_rules)
        self.feature_universe = tuple(feature_universe)
        self.observability = observability
        self.kernels = kernels
        #: the row evaluator candidate edits run Algorithms 7-10 against:
        #: "scalar" walks the affected pairs one at a time, "columnar"
        #: makes each scored edit a handful of mask passes over the
        #: checkpointed state.  Outcomes (labels, counters, restored
        #: state) are bit-identical either way.
        self.engine = engine
        self._gold_mask = np.fromiter(
            (pair.pair_id in gold for pair in self.candidates),
            dtype=bool,
            count=len(self.candidates),
        )
        self.estimates = estimates if estimates is not None else self._estimate()
        # Work counters (mirrored into observability metrics when present).
        self.candidates_generated = 0
        self.candidates_scored = 0
        self.incremental_evals = 0
        self.full_rematches = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _estimate(self) -> Optional[Estimates]:
        """Deterministic cost estimates covering the whole edit universe.

        Built once, over the union of the current function's features, any
        extractor seed-rule features, and the extra feature universe —
        so every edited function the search can produce is priceable
        without re-estimating.  ``estimate_mode='calibrated'`` keeps the
        costs wall-clock-free, which is what makes the Pareto frontier
        reproducible under a fixed seed.
        """
        extra: Dict[str, Feature] = {}
        for rule in self.seed_rules:
            for feature in rule.features():
                extra.setdefault(feature.name, feature)
        for feature in self.feature_universe:
            extra.setdefault(feature.name, feature)
        estimator = CostEstimator(
            seed=self.config.seed, mode=self.config.estimate_mode
        )
        try:
            return estimator.estimate(
                self.state.function,
                self.candidates,
                extra_features=tuple(extra.values()),
                kernels=self.kernels,
            )
        except EstimationError:
            return None  # cost objective degrades to 0.0 for every point

    # ------------------------------------------------------------------
    # Scoring primitives
    # ------------------------------------------------------------------

    def _confusion(self, labels: np.ndarray) -> Confusion:
        predicted = labels.astype(bool)
        gold_mask = self._gold_mask
        tp = int(np.count_nonzero(predicted & gold_mask))
        fp = int(np.count_nonzero(predicted & ~gold_mask))
        fn = int(np.count_nonzero(~predicted & gold_mask))
        tn = len(labels) - tp - fp - fn
        return Confusion(tp, fp, fn, tn)

    def _expected_cost(
        self, function: MatchingFunction, parent: Optional[_BeamNode] = None
    ) -> float:
        """Expected per-pair cost of ``function`` under the configured
        strategy.  Under ``dynamic_memo`` a child of ``parent`` resumes the
        parent function's C4 state at the first rule its edit changed
        (bit-identical to :func:`per_pair_cost`)."""
        if self.estimates is None:
            return 0.0
        try:
            if parent is None or self.config.cost_strategy != "dynamic_memo":
                return per_pair_cost(
                    function, self.estimates, self.config.cost_strategy
                )
            if parent.cost_prefix is None:
                parent.cost_prefix = MemoCostPrefix(
                    parent.checkpoint.function, self.estimates
                )
            return parent.cost_prefix.cost(function)
        except (EstimationError, KeyError):
            return 0.0

    def _outcome(
        self,
        change: Change,
        before_labels: np.ndarray,
        after_labels: np.ndarray,
    ) -> EditOutcome:
        before = before_labels.astype(bool)
        after = after_labels.astype(bool)
        flipped = before != after
        gold_mask = self._gold_mask
        fixed_mask = flipped & (after == gold_mask)
        broken_mask = flipped & (after != gold_mask)
        limit = self.config.attribution_limit
        fixed_examples = tuple(
            self.candidates[int(index)].pair_id
            for index in np.flatnonzero(fixed_mask)[:limit]
        )
        broken_examples = tuple(
            self.candidates[int(index)].pair_id
            for index in np.flatnonzero(broken_mask)[:limit]
        )
        return EditOutcome(
            change=change,
            fixed=int(np.count_nonzero(fixed_mask)),
            broken=int(np.count_nonzero(broken_mask)),
            fixed_examples=fixed_examples,
            broken_examples=broken_examples,
            newly_matched=int(np.count_nonzero(after & ~before)),
            newly_unmatched=int(np.count_nonzero(before & ~after)),
        )

    def _score_current(
        self,
        edits: Tuple[Change, ...],
        outcomes: Tuple[EditOutcome, ...],
        parent: Optional[_BeamNode] = None,
    ) -> ScoredCandidate:
        return ScoredCandidate(
            edits=edits,
            outcomes=outcomes,
            confusion=self._confusion(self.state.labels),
            expected_cost=self._expected_cost(self.state.function, parent),
        )

    def _recover(self) -> None:
        """Emergency rebuild after a failed restore — the one path that
        performs a from-scratch re-match, counted so callers can assert it
        never ran."""
        from ..core.matchers import DynamicMemoMatcher

        self.full_rematches += 1
        self._counter("refine.full_rematches").inc()
        state = self.state
        fresh = MatchState(
            state.function,
            self.candidates,
            state.memo,
            check_cache_first=state.check_cache_first,
            kernels=self.kernels,
            plan=state.plan,
        )
        matcher = DynamicMemoMatcher(
            memo=state.memo,
            check_cache_first=state.check_cache_first,
            recorder=fresh,
            kernels=self.kernels,
        )
        result = matcher.run(state.function, self.candidates)
        fresh.labels = result.labels.copy()
        self.state = fresh

    def _apply(self, change: Change) -> None:
        """Apply one candidate edit via the configured engine.

        A columnar edit patches the state's plan (re-planning only the
        edited rule), a scalar one never reads it, and the rollback that
        follows restores the parent's plan by reference — a scored
        candidate never compiles a plan."""
        apply_change(
            self.state,
            change,
            self.engine,
            metrics=(
                self.observability.metrics
                if self.observability is not None
                else None
            ),
        )

    def _counter(self, name: str):
        if self.observability is not None:
            return self.observability.metrics.counter(name)

        class _Null:
            def inc(self, amount: float = 1) -> None:
                pass

        return _Null()

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------

    def run(self) -> RefinementReport:
        config = self.config
        state = self.state
        started = time.perf_counter()
        with maybe_span(
            self.observability,
            "refine.search",
            budget=config.budget,
            beam_width=config.beam_width,
            max_depth=config.max_depth,
            pairs=len(self.candidates),
        ):
            base_checkpoint = state.checkpoint()
            baseline = self._score_current((), ())
            beam: List[_BeamNode] = [
                _BeamNode(candidate=baseline, checkpoint=base_checkpoint)
            ]
            scored: List[ScoredCandidate] = []
            seen_sequences: Set[frozenset] = {frozenset()}
            rounds = 0
            try:
                for _ in range(config.max_depth):
                    if self.candidates_scored >= config.budget:
                        break
                    round_results = self._run_round(beam, seen_sequences)
                    if not round_results:
                        break
                    rounds += 1
                    scored.extend(candidate for candidate, _ in round_results)
                    beam = self._select_beam(round_results, base_checkpoint)
            finally:
                try:
                    state.restore(base_checkpoint)
                except StateError:
                    self._recover()
            with maybe_span(self.observability, "refine.frontier",
                            scored=len(scored)):
                frontier = pareto_frontier(
                    [baseline] + scored, lambda c: c.objective
                )
        return RefinementReport(
            baseline=baseline,
            frontier=frontier,
            candidates_generated=self.candidates_generated,
            candidates_scored=self.candidates_scored,
            incremental_evals=self.incremental_evals,
            full_rematches=self.full_rematches,
            rounds=rounds,
            elapsed_seconds=time.perf_counter() - started,
        )

    def _run_round(
        self,
        beam: List[_BeamNode],
        seen_sequences: Set[frozenset],
    ) -> List[Tuple[ScoredCandidate, _BeamNode]]:
        """Expand every beam node; returns (candidate, parent) pairs."""
        config = self.config
        state = self.state
        results: List[Tuple[ScoredCandidate, _BeamNode]] = []
        for node in beam:
            if self.candidates_scored >= config.budget:
                break
            state.restore(node.checkpoint)
            with maybe_span(
                self.observability,
                "refine.generate",
                depth=len(node.candidate.edits),
            ):
                pool = generate_candidates(
                    state,
                    self.gold,
                    max_per_slot=config.max_per_slot,
                    admit_fractions=config.admit_fractions,
                    risk_sample=config.risk_sample,
                    seed_rules=self.seed_rules,
                    feature_universe=self.feature_universe,
                    max_candidates=config.max_candidates_per_round,
                    focus_rules=config.focus_rules or None,
                )
            self.candidates_generated += len(pool)
            self._counter("refine.candidates").inc(len(pool))
            parent_keys = frozenset(
                change_key(change) for change in node.candidate.edits
            )
            with maybe_span(
                self.observability, "refine.score", pool=len(pool)
            ):
                for edit in pool:
                    if self.candidates_scored >= config.budget:
                        break
                    sequence_key = parent_keys | {change_key(edit.change)}
                    if sequence_key in seen_sequences:
                        continue
                    seen_sequences.add(sequence_key)
                    candidate = self._score_edit(node, edit)
                    if candidate is not None:
                        results.append((candidate, node))
        return results

    def _score_edit(
        self, node: _BeamNode, edit: CandidateEdit
    ) -> Optional[ScoredCandidate]:
        """Apply one edit incrementally, measure, roll back."""
        state = self.state
        try:
            edit.change.validate(state.function)
        except ChangeError:
            return None
        try:
            self._apply(edit.change)
            self.incremental_evals += 1
            self._counter("refine.incremental_evals").inc()
            self.candidates_scored += 1
            outcome = self._outcome(
                edit.change, node.checkpoint.labels, state.labels
            )
            return self._score_current(
                node.candidate.edits + (edit.change,),
                node.candidate.outcomes + (outcome,),
                parent=node,
            )
        except ChangeError:
            return None
        finally:
            try:
                state.restore(node.checkpoint)
            except StateError:
                self._recover()

    def _select_beam(
        self,
        round_results: List[Tuple[ScoredCandidate, _BeamNode]],
        base_checkpoint: StateCheckpoint,
    ) -> List[_BeamNode]:
        """Keep the best sequences and materialize a checkpoint for each by
        replaying its last edit on its parent's checkpoint (one extra
        incremental application per survivor — still no re-match)."""
        config = self.config
        state = self.state
        ranked = sorted(
            round_results,
            key=lambda item: (
                -item[0].f1,
                item[0].expected_cost,
                item[0].describe(),
            ),
        )
        survivors: List[_BeamNode] = []
        for candidate, parent in ranked[: config.beam_width]:
            state.restore(parent.checkpoint)
            try:
                self._apply(candidate.edits[-1])
                self.incremental_evals += 1
                self._counter("refine.incremental_evals").inc()
            except ChangeError:  # cannot happen: already applied once
                continue
            survivors.append(
                _BeamNode(candidate=candidate, checkpoint=state.checkpoint())
            )
        return survivors


def refine(
    state: MatchState,
    gold: Set[PairId],
    config: Optional[RefineConfig] = None,
    **search_kwargs,
) -> RefinementReport:
    """Convenience wrapper: build a :class:`RefinementSearch` and run it."""
    return RefinementSearch(state, gold, config=config, **search_kwargs).run()
