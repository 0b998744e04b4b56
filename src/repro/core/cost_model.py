"""The paper's §4.4 cost model, and sampling-based estimation (§5.5).

The model's ingredients:

* ``cost(f)`` — seconds to compute feature ``f`` for one pair,
* ``δ`` — seconds for one memo lookup,
* ``sel(p)`` — probability a predicate returns true on a random pair,
* ``α(f, r_i)`` — probability ``f`` is memoized after evaluating rule
  ``r_i`` (the §4.4.4 recurrence).

All are estimated on a small random sample of candidate pairs (the paper
used 1 %) by :class:`CostEstimator`.  Two estimation modes:

* ``"measured"`` — wall-clock feature costs and measured δ (what the paper
  does; host-dependent).
* ``"calibrated"`` — deterministic synthetic costs derived from each
  measure's :attr:`cost_tier`, for reproducible tests and cross-host
  comparability.  Selectivities are always measured (they are data
  properties, not host properties).

The model functions (:func:`rule_cost`, :func:`function_cost`,
:func:`function_cost_with_memo`, …) are pure: they read an
:class:`Estimates` and a matching function and return expected seconds per
candidate pair.  Multiply by ``len(candidates)`` for a run estimate — the
linearity the paper verifies in its Figure 5B.

Fidelity notes
--------------
* Selectivities of same-feature predicate groups are estimated *jointly*
  on the sample (they are perfectly correlated through the shared feature
  value); groups of different features are combined by independence, as
  the paper assumes.
* The α recurrence follows the paper exactly, including its simplification
  of ignoring cross-rule reach probabilities inside α itself; reach
  probabilities enter once, at the C3/C4 composition level (Equation 4).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.pairs import CandidateSet
from ..errors import EstimationError
from .memo import ArrayMemo
from .rules import Feature, MatchingFunction, Predicate, Rule

#: Synthetic per-computation cost (seconds) for each cost tier, used by the
#: "calibrated" mode.  The ladder mirrors the paper's Table 3 µs spread.
CALIBRATED_TIER_COSTS: Dict[int, float] = {
    0: 0.2e-6,
    1: 0.5e-6,
    2: 0.8e-6,
    3: 1.2e-6,
    4: 2.0e-6,
    5: 3.5e-6,
    6: 6.8e-6,
    7: 9.0e-6,
    8: 15.0e-6,
    9: 45.0e-6,
}

#: Synthetic memo lookup cost (δ) for the calibrated mode.
CALIBRATED_LOOKUP_COST = 0.05e-6

#: Synthetic size-bound check cost for the calibrated mode — the kernel
#: layer's "pre-predicate" is cheaper than a feature but touches the token
#: cache, so it sits between δ and the cheapest tier.
CALIBRATED_BOUND_COST = 0.1e-6


@dataclass
class Estimates:
    """Estimated costs and selectivities for one (function, candidates) task.

    ``sample_values`` keeps the raw per-feature score vectors over the
    sample so that joint selectivities of arbitrary predicate conjunctions
    can be evaluated empirically later (e.g. when an edit introduces a new
    threshold on an already-sampled feature).
    """

    feature_costs: Dict[str, float]
    lookup_cost: float
    sample_values: Dict[str, np.ndarray]
    sample_size: int
    mode: str = "measured"
    #: predicate pid -> probability its outcome is decided by the kernel
    #: layer's size bound (no feature computation, no memo fill).  Empty
    #: when estimated without kernels/bounds — all formulas then reduce
    #: exactly to the paper's.
    bound_skip_rates: Dict[str, float] = field(default_factory=dict)
    #: seconds for one size-bound check (near-zero "pre-predicate" cost)
    bound_check_cost: float = 0.0
    # Memoization caches — ordering algorithms evaluate the same
    # selectivities and group decompositions O(n^2) times; everything here
    # is derived data, safe to cache because rules/predicates are immutable.
    _predicate_masks: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: sel(p) by pid: the mean of the mask beside it, taken once.
    _selectivities: Dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )
    _joint_cache: Dict[Tuple[str, ...], float] = field(
        default_factory=dict, repr=False, compare=False
    )
    _group_cache: Dict[Rule, list] = field(
        default_factory=dict, repr=False, compare=False
    )

    def cost(self, feature: Feature) -> float:
        """cost(f) in seconds; EstimationError if the feature is unknown."""
        value = self.feature_costs.get(feature.name)
        if value is None:
            raise EstimationError(
                f"no cost estimate for feature {feature.name!r}; re-estimate "
                f"after introducing new features"
            )
        return value

    def has_feature(self, feature: Feature) -> bool:
        return feature.name in self.feature_costs

    def _mask(self, predicate: Predicate) -> np.ndarray:
        """Boolean sample mask of one predicate (cached by pid)."""
        mask = self._predicate_masks.get(predicate.pid)
        if mask is None:
            values = self.sample_values.get(predicate.feature.name)
            if values is None:
                raise EstimationError(
                    f"no sample values for feature {predicate.feature.name!r}"
                )
            op, threshold = predicate.op, predicate.threshold
            if op == ">=":
                mask = values >= threshold
            elif op == ">":
                mask = values > threshold
            elif op == "<=":
                mask = values <= threshold
            elif op == "<":
                mask = values < threshold
            else:
                mask = values == threshold
            self._predicate_masks[predicate.pid] = mask
        return mask

    def selectivity(self, predicate: Predicate) -> float:
        """sel(p): fraction of sample pairs on which the predicate is true."""
        if self.sample_size == 0:
            return 0.0
        selectivity = self._selectivities.get(predicate.pid)
        if selectivity is None:
            selectivity = float(self._mask(predicate).mean())
            self._selectivities[predicate.pid] = selectivity
        return selectivity

    def joint_selectivity(self, predicates: Sequence[Predicate]) -> float:
        """Empirical selectivity of a conjunction over the sample.

        Exact for same-feature groups (the case Lemma 2/3 needs); for
        mixed-feature conjunctions this measures true correlations that
        the paper's independence assumption ignores — the ablation bench
        compares both.
        """
        if not predicates:
            return 1.0
        if self.sample_size == 0:
            return 0.0
        key = tuple(sorted(predicate.pid for predicate in predicates))
        cached = self._joint_cache.get(key)
        if cached is not None:
            return cached
        surviving = self._mask(predicates[0])
        for predicate in predicates[1:]:
            surviving = surviving & self._mask(predicate)
        result = float(surviving.mean())
        self._joint_cache[key] = result
        return result

    def independent_rule_selectivity(self, rule: Rule) -> float:
        """sel(r) under the paper's independence assumption: the product of
        per-group joint selectivities (the groups come from the per-rule
        group cache)."""
        selectivity = 1.0
        for group in group_predicates(rule, self):
            selectivity *= group.selectivity
        return selectivity

    def with_feature_costs(self, overrides: Dict[str, float]) -> "Estimates":
        """A copy with some feature costs replaced (fresh caches).

        Selectivities stay sample-based — only ``feature_costs`` entries
        named in ``overrides`` change.  Used by cost-model drift detection
        (:func:`repro.observability.drift.detect_drift`) to ask "would the
        chosen order change under *observed* costs?" without mutating the
        session's estimates.
        """
        unknown = set(overrides) - set(self.feature_costs)
        if unknown:
            raise EstimationError(
                f"cannot override costs of unestimated features: "
                f"{sorted(unknown)}"
            )
        return Estimates(
            feature_costs={**self.feature_costs, **overrides},
            lookup_cost=self.lookup_cost,
            sample_values=self.sample_values,
            sample_size=self.sample_size,
            mode=self.mode,
            bound_skip_rates=self.bound_skip_rates,
            bound_check_cost=self.bound_check_cost,
        )


@dataclass
class PredicateGroup:
    """Predicates of one rule sharing one feature, in Lemma 2 order
    (ascending selectivity — the cheaper-to-fail predicate first)."""

    feature: Feature
    predicates: Tuple[Predicate, ...]
    selectivity: float            # joint selectivity of the group
    first_selectivity: float      # selectivity of the first predicate alone

    def __len__(self) -> int:
        return len(self.predicates)


def group_predicates(rule: Rule, estimates: Optional[Estimates] = None) -> List[PredicateGroup]:
    """Group a rule's predicates by feature (the §5.4 canonical form).

    With ``estimates``, predicates inside each group are ordered by Lemma 2
    (ascending selectivity) and group selectivities are filled in; without,
    groups keep rule order and carry selectivity 1.0 placeholders (useful
    for structural analysis only).  Results are cached per (rule,
    estimates) — both are immutable.
    """
    if estimates is not None:
        cached = estimates._group_cache.get(rule)
        if cached is not None:
            return cached
    by_feature: Dict[str, List[Predicate]] = {}
    feature_order: List[Feature] = []
    for predicate in rule.predicates:
        name = predicate.feature.name
        if name not in by_feature:
            by_feature[name] = []
            feature_order.append(predicate.feature)
        by_feature[name].append(predicate)

    groups: List[PredicateGroup] = []
    for feature in feature_order:
        members = by_feature[feature.name]
        if estimates is not None:
            members = sorted(members, key=estimates.selectivity)
            joint = estimates.joint_selectivity(members)
            first = estimates.selectivity(members[0])
        else:
            joint = 1.0
            first = 1.0
        groups.append(
            PredicateGroup(feature, tuple(members), joint, first)
        )
    if estimates is not None:
        estimates._group_cache[rule] = groups
    return groups


# ---------------------------------------------------------------------------
# Expected-cost formulas (per candidate pair, in seconds)
# ---------------------------------------------------------------------------


def group_cost(group: PredicateGroup, estimates: Estimates, memo_probability: float = 0.0) -> float:
    """Expected cost of evaluating one predicate group.

    With ``memo_probability`` = α(f): the first predicate's feature fetch
    costs ``(1-α)·cost(f) + α·δ``; a second same-feature predicate always
    costs δ and only runs if the first was true (Lemma 2's ``c + sel·c'``).

    When the kernel layer's size bounds can decide the group's first
    predicate (``estimates.bound_skip_rates``), the un-memoized fetch is
    discounted: with skip probability ``p`` it costs the near-zero bound
    check plus ``(1-p)·cost(f)``, modeling the bound as a free
    pre-predicate (the ISSUE's "recorded in the cost model" requirement).
    With empty rates the arithmetic below is exactly the paper's.
    """
    skip_rate = estimates.bound_skip_rates.get(group.predicates[0].pid, 0.0)
    if skip_rate:
        compute = estimates.bound_check_cost + (1.0 - skip_rate) * estimates.cost(
            group.feature
        )
    else:
        compute = estimates.cost(group.feature)
    fetch = (
        (1.0 - memo_probability) * compute
        + memo_probability * estimates.lookup_cost
    )
    cost = fetch
    if len(group) > 1:
        cost += group.first_selectivity * estimates.lookup_cost
    return cost


def rule_cost(
    rule: Rule,
    estimates: Estimates,
    alpha: Optional[Dict[str, float]] = None,
) -> float:
    """Expected cost of one rule (Equation 1 / 3, over predicate groups).

    ``alpha`` maps feature name -> memo-presence probability before this
    rule runs (empty/None = cold memo, which degenerates to the paper's
    Equation 3 where every fetch is a computation).

    Models the §5.4 grouped canonical form, not raw rule order: a rule
    that repeats a feature around an intervening predicate is costed as
    if the repeat ran immediately after its group's first member.  If the
    intervening predicate would have exited early, that charges a δ-lookup
    rule-order execution skips — so ``rule_cost`` can exceed
    ``rule_cost_no_memo`` by up to δ per repeated predicate.
    """
    alpha = alpha or {}
    prefix_selectivity = 1.0
    total = 0.0
    for group in group_predicates(rule, estimates):
        total += prefix_selectivity * group_cost(
            group, estimates, alpha.get(group.feature.name, 0.0)
        )
        prefix_selectivity *= group.selectivity
    return total


def rule_cost_no_memo(rule: Rule, estimates: Estimates) -> float:
    """Equation 1 with black-box predicates: every access recomputes
    (Algorithm 3's per-rule cost — same-feature repeats pay full price)."""
    prefix_selectivity = 1.0
    total = 0.0
    for predicate in rule.predicates:
        total += prefix_selectivity * estimates.cost(predicate.feature)
        prefix_selectivity *= estimates.selectivity(predicate)
    return total


def update_alpha(rule: Rule, estimates: Estimates, alpha: Dict[str, float]) -> None:
    """Advance the α state across one rule (the §4.4.4 recurrence):

        α(f, r_i) = (1 - α(f, r_{i-1})) · sel(prev(f, r_i)) + α(f, r_{i-1})

    where ``prev(f, r)`` is the set of groups before f's group in r.
    """
    prefix_selectivity = 1.0
    for group in group_predicates(rule, estimates):
        name = group.feature.name
        previous = alpha.get(name, 0.0)
        # A bound-skipped first predicate never computes the feature, so
        # the memo only fills on the (1 - skip_rate) complement.
        skip_rate = estimates.bound_skip_rates.get(
            group.predicates[0].pid, 0.0
        )
        fill_probability = prefix_selectivity
        if skip_rate:
            fill_probability *= 1.0 - skip_rate
        alpha[name] = (1.0 - previous) * fill_probability + previous
        prefix_selectivity *= group.selectivity


def function_cost_no_memo(function: MatchingFunction, estimates: Estimates) -> float:
    """C3 (Equation 4): early exit, no memo — per-pair expected seconds."""
    reach_probability = 1.0
    total = 0.0
    for rule in function.rules:
        total += reach_probability * rule_cost_no_memo(rule, estimates)
        reach_probability *= 1.0 - estimates.independent_rule_selectivity(rule)
    return total


def function_cost_with_memo(
    function: MatchingFunction, estimates: Estimates
) -> float:
    """C4: early exit + dynamic memoing — per-pair expected seconds.

    Composes Equation 4's rule-level early exit with Equation 2's
    memo-aware fetch costs and the α recurrence.
    """
    return _memo_cost_from(function.rules, estimates, 0.0, 1.0, {})


#: C4's running state between two rules: (total, reach probability, α).
MemoCostState = Tuple[float, float, Dict[str, float]]


def _memo_cost_from(
    rules: Sequence[Rule],
    estimates: Estimates,
    total: float,
    reach_probability: float,
    alpha: Dict[str, float],
    states: Optional[List[MemoCostState]] = None,
) -> float:
    """C4's running sum over ``rules``, resumed from one state (``alpha``
    advances in place).  ``states`` collects the state before each rule
    and after the last."""
    for rule in rules:
        if states is not None:
            states.append((total, reach_probability, dict(alpha)))
        total += reach_probability * rule_cost(rule, estimates, alpha)
        update_alpha(rule, estimates, alpha)
        reach_probability *= 1.0 - estimates.independent_rule_selectivity(rule)
    if states is not None:
        states.append((total, reach_probability, dict(alpha)))
    return total


class MemoCostPrefix:
    """C4 of one function, resumable at any rule.

    Keeps :func:`function_cost_with_memo`'s state before each rule of
    ``function``.  :meth:`cost` prices an edited version of it by
    replaying only the rules from the first one the edit changed (rules
    compared by identity: ``MatchingFunction``'s edit helpers keep the
    untouched rule objects) — the same float operations in the same order,
    so the result is bit-identical to pricing it whole.
    """

    def __init__(self, function: MatchingFunction, estimates: Estimates):
        self.rules = function.rules
        self.estimates = estimates
        self._states: List[MemoCostState] = []
        try:
            _memo_cost_from(self.rules, estimates, 0.0, 1.0, {}, self._states)
        except (EstimationError, KeyError):
            # The states stop before the rule that cannot be priced; a
            # function that keeps that rule fails there again in cost().
            pass

    def cost(self, function: MatchingFunction) -> float:
        """``function_cost_with_memo(function, estimates)``."""
        rules = function.rules
        held = self.rules
        limit = min(len(rules), len(held), len(self._states) - 1)
        start = 0
        while start < limit and rules[start] is held[start]:
            start += 1
        total, reach_probability, alpha = self._states[start]
        return _memo_cost_from(
            rules[start:], self.estimates, total, reach_probability, dict(alpha)
        )


def rudimentary_cost(function: MatchingFunction, estimates: Estimates) -> float:
    """C1: every predicate of every rule, from scratch — per-pair seconds."""
    return sum(
        estimates.cost(predicate.feature)
        for rule in function.rules
        for predicate in rule.predicates
    )


def precompute_cost(
    function: MatchingFunction,
    estimates: Estimates,
    features: Optional[Sequence[Feature]] = None,
) -> float:
    """C2: precompute all features, then match on lookups — per-pair seconds.

    ``features`` defaults to the function's own features (production
    precomputation); pass the analyst's feature superset for the FPR cost.
    The lookup term uses ``freq(f)`` — how many predicates reference f —
    exactly as §4.4.2 defines.
    """
    feature_list = list(features) if features is not None else function.features()
    compute = sum(estimates.cost(feature) for feature in feature_list)
    frequency: Dict[str, int] = {}
    for rule in function.rules:
        for predicate in rule.predicates:
            name = predicate.feature.name
            frequency[name] = frequency.get(name, 0) + 1
    lookups = sum(frequency.values()) * estimates.lookup_cost
    return compute + lookups


def per_pair_cost(
    function: MatchingFunction,
    estimates: Estimates,
    strategy: str = "dynamic_memo",
) -> float:
    """Expected seconds to evaluate one candidate pair under ``strategy``.

    Strategies: ``rudimentary`` (C1), ``precompute`` (C2), ``early_exit``
    (C3), ``dynamic_memo`` (C4).  Besides feeding
    :func:`predicted_runtime`, this is the refinement search's cost
    objective for a candidate edit.
    """
    formulas = {
        "rudimentary": rudimentary_cost,
        "precompute": precompute_cost,
        "early_exit": function_cost_no_memo,
        "dynamic_memo": function_cost_with_memo,
    }
    if strategy not in formulas:
        raise EstimationError(
            f"unknown strategy {strategy!r}; expected one of {sorted(formulas)}"
        )
    return formulas[strategy](function, estimates)


def predicted_runtime(
    function: MatchingFunction,
    candidates: CandidateSet,
    estimates: Estimates,
    strategy: str = "dynamic_memo",
) -> float:
    """Predicted wall-clock seconds for a full run of ``strategy``.

    This is the model curve of Figure 5A.
    """
    return per_pair_cost(function, estimates, strategy) * len(candidates)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


class CostEstimator:
    """Estimate feature costs and predicate selectivities on a pair sample.

    The paper (§5.5, §7.3) samples 1 % of candidate pairs, evaluates each
    feature on the sample, and derives both per-feature mean costs and
    per-predicate selectivities.  We do the same; ``min_sample`` guards
    against tiny candidate sets where 1 % would be statistically useless.
    """

    def __init__(
        self,
        sample_fraction: float = 0.01,
        min_sample: int = 50,
        seed: int = 0,
        mode: str = "measured",
    ):
        if not 0.0 < sample_fraction <= 1.0:
            raise EstimationError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        if mode not in ("measured", "calibrated"):
            raise EstimationError(
                f"mode must be 'measured' or 'calibrated', got {mode!r}"
            )
        self.sample_fraction = sample_fraction
        self.min_sample = min_sample
        self.seed = seed
        self.mode = mode

    def sample_indices(self, candidates: CandidateSet) -> List[int]:
        """Deterministic sample of pair indices."""
        population = len(candidates)
        if population == 0:
            raise EstimationError("cannot estimate on an empty candidate set")
        size = max(
            min(self.min_sample, population),
            round(population * self.sample_fraction),
        )
        rng = random.Random(self.seed)
        return sorted(rng.sample(range(population), min(size, population)))

    def estimate(
        self,
        function: MatchingFunction,
        candidates: CandidateSet,
        extra_features: Sequence[Feature] = (),
        kernels=None,
    ) -> Estimates:
        """Estimate costs/selectivities for all features of ``function``
        (plus ``extra_features``, e.g. an FPR superset) on one sample.

        ``kernels`` (a :class:`repro.kernels.FeatureKernels`) makes the
        estimate consistent with a kernel-enabled run: measured feature
        costs are taken on the warm-cache path the matchers actually
        execute (so drift detection compares like with like), and when the
        kernels object has bounds enabled, per-predicate
        ``bound_skip_rates`` are measured on the sample.
        """
        features: Dict[str, Feature] = {
            feature.name: feature for feature in function.features()
        }
        for feature in extra_features:
            features.setdefault(feature.name, feature)

        indices = self.sample_indices(candidates)
        pairs = [candidates[index] for index in indices]
        sample_values: Dict[str, np.ndarray] = {}
        feature_costs: Dict[str, float] = {}

        for name, feature in features.items():
            use_kernel = kernels is not None and kernels.supports(feature)
            if use_kernel:
                if self.mode == "measured":
                    # Warm the token cache untimed, then time the warm
                    # path — in a real run every record is touched by
                    # many pairs and features, so warm is the
                    # representative regime.  Calibrated costs are not
                    # timed, so one pass gives the values.
                    for pair in pairs:
                        kernels.compute(feature, pair)
                started = time.perf_counter()
                values = np.fromiter(
                    (kernels.compute(feature, pair) for pair in pairs),
                    dtype=np.float64,
                    count=len(pairs),
                )
                elapsed = time.perf_counter() - started
            else:
                started = time.perf_counter()
                values = np.fromiter(
                    (
                        feature.compute(pair.record_a, pair.record_b)
                        for pair in pairs
                    ),
                    dtype=np.float64,
                    count=len(pairs),
                )
                elapsed = time.perf_counter() - started
            sample_values[name] = values
            if self.mode == "measured":
                feature_costs[name] = elapsed / len(pairs)
            else:
                feature_costs[name] = CALIBRATED_TIER_COSTS[feature.cost_tier]

        lookup_cost = (
            self._measure_lookup_cost(len(pairs))
            if self.mode == "measured"
            else CALIBRATED_LOOKUP_COST
        )
        bound_skip_rates: Dict[str, float] = {}
        bound_check_cost = 0.0
        if kernels is not None and kernels.use_bounds and pairs:
            bound_check_cost = (
                self._measure_bound_cost(kernels, function, pairs)
                if self.mode == "measured"
                else CALIBRATED_BOUND_COST
            )
            # One bound per (feature, sample pair), shared by every
            # predicate on the feature.
            bounds: Dict[str, List[float]] = {}
            for rule in function.rules:
                for predicate in rule.predicates:
                    if predicate.pid in bound_skip_rates:
                        continue
                    feature = predicate.feature
                    if not kernels.supports(feature):
                        continue
                    sample_bounds = bounds.get(feature.name)
                    if sample_bounds is None:
                        sample_bounds = bounds[feature.name] = [
                            bound
                            for bound in (
                                kernels.bound_value(feature, pair) for pair in pairs
                            )
                            if bound is not None
                        ]
                    decided = sum(
                        1
                        for bound in sample_bounds
                        if kernels.decide(predicate, bound) is not None
                    )
                    if decided:
                        bound_skip_rates[predicate.pid] = decided / len(pairs)
        return Estimates(
            feature_costs=feature_costs,
            lookup_cost=lookup_cost,
            sample_values=sample_values,
            sample_size=len(pairs),
            mode=self.mode,
            bound_skip_rates=bound_skip_rates,
            bound_check_cost=bound_check_cost,
        )

    @staticmethod
    def _measure_bound_cost(kernels, function, pairs) -> float:
        """Measure the per-check cost of a size-bound decision (warm cache)."""
        predicates = [
            predicate
            for rule in function.rules
            for predicate in rule.predicates
            if kernels.supports(predicate.feature)
        ]
        if not predicates:
            return 0.0
        probe = predicates[0]
        probe_pairs = pairs[: min(len(pairs), 200)]
        started = time.perf_counter()
        for pair in probe_pairs:
            kernels.bound_decision(probe, pair)
        return (time.perf_counter() - started) / len(probe_pairs)

    @staticmethod
    def _measure_lookup_cost(sample_size: int, repetitions: int = 20000) -> float:
        """Measure δ by timing ArrayMemo gets on a warm toy memo."""
        memo = ArrayMemo(max(sample_size, 1), ["probe"])
        for index in range(memo.n_pairs):
            memo.put(index, "probe", 0.5)
        started = time.perf_counter()
        for iteration in range(repetitions):
            memo.get(iteration % memo.n_pairs, "probe")
        return (time.perf_counter() - started) / repetitions
